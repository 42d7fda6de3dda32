"""tools/ab_sweeps.py: two source trees side by side in one process."""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TOOL = os.path.join(ROOT, "tools", "ab_sweeps.py")


def run(parent, change):
    return subprocess.run([sys.executable, TOOL, "--parent", parent, "--change", change,
                           "--workload", "eval", "--seconds", "0", "--smoke"],
                          capture_output=True, text=True, timeout=300)


def test_same_tree_prints_one_json_line():
    proc = run(SRC, SRC)
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    out = json.loads(line)
    assert out["rounds"] >= 1 and 0 <= out["change_wins"] <= out["rounds"]
    # the ratio is of the unrounded medians
    assert out["ratio"] == pytest.approx(out["change_median_s"] / out["parent_median_s"],
                                         rel=1e-3)


def test_trees_with_different_outputs_are_refused(tmp_path):
    """A tree whose LayerNorm epsilon differs gives other logits, so the
    digests differ and nothing is timed."""
    changed = tmp_path / "src"
    shutil.copytree(os.path.join(SRC, "axvit"), changed / "axvit",
                    ignore=shutil.ignore_patterns("__pycache__"))
    model_py = changed / "axvit" / "model.py"
    text = model_py.read_text()
    assert "_LN_EPS = 1e-5\n" in text
    model_py.write_text(text.replace("_LN_EPS = 1e-5\n", "_LN_EPS = 2e-5\n"))
    proc = run(SRC, str(changed))
    assert proc.returncode == 1 and proc.stdout == ""
    assert "output digests differ" in proc.stderr


def test_all_workloads_print_one_line_each():
    proc = subprocess.run([sys.executable, TOOL, "--parent", SRC, "--change", SRC,
                           "--workload", "all", "--seconds", "0", "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [out["workload"] for out in lines] == ["eval", "search", "finetune", "calibrate"]
    assert all(out["rounds"] >= 1 for out in lines)
