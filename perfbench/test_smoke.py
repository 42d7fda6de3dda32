"""Smoke test of the benchmark: all four workloads at tiny sizes, with their
output checks, untraced and traced. Run with ``python -m pytest perfbench``."""

import json
import os
import subprocess
import sys

import pytest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ("eval", "search", "finetune", "calibrate")


def _run(trace: int) -> dict:
    proc = subprocess.run([sys.executable, RUN, "--workload", "all", "--smoke",
                           "--seconds", "0.1", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= len(WORKLOADS)
    return result["metrics"]


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(os.path.dirname(RUN), "..", "BENCHMARK.json")) as f:
        return json.load(f)


def _names(metrics, workload):
    return {k.split(".", 1)[1] for k in metrics if k.startswith(workload + ".")}


def test_untraced_reports_every_end_to_end_metric(benchmark_json):
    metrics = _run(0)
    for w in WORKLOADS:
        assert _names(metrics, w) == {m["name"] for m in benchmark_json["end_to_end"]}
        for m in benchmark_json["end_to_end"]:
            entry = metrics[f"{w}.{m['name']}"]
            assert entry["unit"] == m["unit"]
            assert entry["value"] > 0


def test_traced_reports_every_layer_and_the_predicted_split(benchmark_json):
    metrics = _run(1)
    for w in WORKLOADS:
        assert _names(metrics, w) == {m["name"] for m in benchmark_json["per_layer"]}
        for m in benchmark_json["per_layer"]:
            assert metrics[f"{w}.{m['name']}"]["unit"] == m["unit"]

    def value(w, name):
        return metrics[f"{w}.{name}"]["value"]

    assert value("calibrate", "model.axx_matmul.calls") == 0
    assert value("calibrate", "quant.HistogramCalibrator.observe.calls") > 0
    for w in ("eval", "search", "finetune"):
        assert value(w, "model.axx_matmul.macs") > 0
    for w in WORKLOADS:
        trains = value(w, "training.vit_backward.time_s") > 0
        assert trains == (w == "finetune")
    assert value("eval", "model.exact_int_matmul.calls") > 0
    assert value("search", "search.predict_accuracy.calls") > 0
    assert value("search", "search.prefix_reuse_ratio") > 0
