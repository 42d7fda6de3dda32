#!/usr/bin/env python3
"""Host-time benchmark of the axvit emulator.

Runs one workload (eval, search, finetune or calibrate) for a fixed time,
checks its outputs and prints the metrics; the last line of standard output
is one JSON object. Run it from the repository root:

    python3 perfbench/run.py --workload eval --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --smoke     # all four, tiny sizes

With ``--trace 0`` it reports the end-to-end metrics, with times rescaled
to a host on which ``reference.py`` takes ``NOMINAL_S``. With ``--trace 1`` it
alternates untraced sweeps with sweeps that record spans around every public
function the per-layer metrics name, and reports those metrics; the spans are
written to ``perfbench/out/trace-<workload>-seed<seed>.jsonl``.
"""

import os

# One BLAS thread, set before numpy loads: a fixed count keeps float results
# and timings comparable between machines with different core counts.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 3
LOCAL_S = 1.0  # an op is rescaled by the reference samples this close to it
TAIL_BEYOND = 10  # the tail percentile keeps at least this many ops above it

END_TO_END_UNITS = {"throughput": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB", "success_rate": "ratio"}


@dataclass
class Record:
    op: object
    start: float
    seconds: float
    output: object
    error: str | None


def git_sha() -> str:
    """HEAD commit read from the checkout's .git files, or 'unknown'."""
    git = os.path.join(REPO_ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas": blas, "blas_threads": int(BLAS_THREADS)}


def time_sweeps(ops, seconds, tracer=None, first_op_id=0,
                reference=None, ref_samples=None) -> list[Record]:
    """Run one whole sweep of ``ops``, then go on op by op until ``seconds``
    have passed: stopping only at the end of a sweep would make the op count
    jump by a sweep (three ``search`` ops, twelve ``calibrate`` ops).
    With a ``reference``, sample it after every op into ``ref_samples``."""
    records = []
    deadline = time.perf_counter() + seconds
    while True:
        for op in ops:
            if tracer is not None:
                tracer.op = first_op_id + len(records)
                span = tracer.begin("op")
            start = time.perf_counter()
            try:
                output, error = op.run(), None
            except Exception as exc:  # a failing op is counted, not fatal
                output, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.end(span)
                tracer.op = None
            records.append(Record(op, start, elapsed, output, error))
            if reference is not None:
                ref_samples += reference.sample(elapsed)
            if len(records) >= len(ops) and time.perf_counter() >= deadline:
                return records


def judge(prepared, records, first_outputs) -> tuple[int, list[str]]:
    """Count failed ops: raised, failed the workload check, or differed from
    the first output of an op with the same key."""
    failed, errors = 0, []
    for rec in records:
        msg = rec.error or prepared.check(rec.output)
        if msg is None:
            first = first_outputs.setdefault(rec.op.key, rec.output)
            if rec.output != first:
                msg = "output differs from an earlier op with the same inputs"
        if msg is not None:
            failed += 1
            errors.append(f"op {rec.op.key}: {msg}")
    return failed, errors


def tail(times) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND ops above it, and its value
    (the maximum, as percentile 100, when there are too few ops)."""
    times = sorted(times)
    n = len(times)
    if n <= TAIL_BEYOND:
        return 100.0, times[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, times[n - TAIL_BEYOND - 1]


def setup(workloads, name, seed, sizes, rep):
    """(prepared workload, host seconds)."""
    path = os.path.join(OUT_DIR, f"ext-{name}-seed{seed}-{rep}.axlut")
    start = time.perf_counter()
    prepared = workloads.PREPARE[name](seed, sizes, path)
    return prepared, time.perf_counter() - start


def host_times(units, op_times, setup_times) -> dict:
    return {"throughput": units / sum(op_times),
            "op_p50_ms": statistics.median(op_times) * 1e3,
            "op_tail_ms": tail(op_times)[1] * 1e3,
            "setup_s": statistics.median(setup_times)}


def local_reference(rec, ref_samples) -> float:
    """Median reference time of the samples started within LOCAL_S of the op;
    the first sample after an op always is."""
    return statistics.median(
        s for t, s in ref_samples
        if rec.start - LOCAL_S <= t <= rec.start + rec.seconds + LOCAL_S)


def run_plain(workloads, name, seed, seconds, sizes):
    """End-to-end metrics in host time, tracing off, rescaled to a host on
    which the reference computation takes NOMINAL_S. The reference is sampled
    after every set-up and op. The host's speed changes within seconds, so
    each op is rescaled by the samples near it, and set-up by the median
    sample of the run."""
    from reference import NOMINAL_S, Reference

    ref = Reference()
    setups, ref_samples = [], []
    for rep in range(SETUP_REPEATS):
        setups.append(setup(workloads, name, seed, sizes, rep))
        ref_samples += ref.sample(setups[-1][1])
    prepared = setups[-1][0]
    errors = []
    if len({p.state_digest for p, _ in setups}) != 1:
        errors.append(f"{name}: repeated set-ups built different models")
    records = time_sweeps(prepared.ops, seconds, reference=ref,
                          ref_samples=ref_samples)
    outputs = {}
    failed, op_errors = judge(prepared, records, outputs)
    final_errors, digest_input = prepared.final(outputs)
    units = sum(r.op.units for r in records)
    op_times = [r.seconds for r in records]
    setup_times = [s for _, s in setups]
    ref_s = statistics.median(s for _, s in ref_samples)
    scaled_ops = [r.seconds * NOMINAL_S / local_reference(r, ref_samples)
                  for r in records]
    scaled_setups = [s * NOMINAL_S / ref_s for s in setup_times]
    metrics = {**host_times(units, scaled_ops, scaled_setups),
               "peak_rss_mb":
                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               "success_rate": (len(records) - failed) / len(records)}
    info = {"ops": len(records), "tail_percentile": round(tail(op_times)[0], 2),
            "throughput_unit": f"{workloads.UNITS[name]}/s",
            "error_rate": failed / len(records),
            "reference_ms": round(ref_s * 1e3, 4),
            **{f"unscaled_{k}": round(v, 4) for k, v in
               host_times(units, op_times, setup_times).items()},
            "digest": workloads.digest(digest_input)}
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    return metrics, info, len(records), failed, errors + op_errors + final_errors


def _layer(span, *fields):
    """(metric, span, aggregate field, unit) rows; time_s is self time."""
    kinds = {"time_s": ("self_s", "s"), "temp_bytes": ("temp_bytes", "B")}
    return [(f"{span}.{f}", span, *kinds.get(f, (f, "count"))) for f in fields]


# Op-phase metrics, reported per op.
OP_LAYERS = [
    *_layer("model.axx_matmul", "calls", "time_s", "macs", "temp_bytes"),
    *_layer("model.exact_int_matmul", "calls", "time_s"),
    *_layer("model.vit_forward", "calls", "time_s", "samples"),
    *_layer("model.gelu", "time_s"),
    *_layer("model.softmax", "time_s"),
    *_layer("model.layer_norm", "time_s"),
    *_layer("quant.quantize", "calls", "time_s", "elements"),
    *_layer("quant.HistogramCalibrator.observe", "calls", "time_s"),
    *_layer("quant.compute_scale", "time_s"),
    *_layer("quant.max_scale", "calls"),
    *_layer("training.vit_backward", "time_s"),
    *_layer("training.optimizer_step", "time_s"),
    *_layer("search.predict_accuracy", "calls", "time_s"),
    *_layer("search.profile_sensitivity", "time_s"),
    ("search.mcts_self_s", "search.mcts_search", "self_s", "s"),
    ("op.uncovered_s", "op", "self_s", "s"),
]
# Set-up metrics: inclusive seconds over one set-up.
SETUP_LAYERS = ("multipliers.build_lut", "multipliers.load_lut",
                "training.train_float", "data.synthetic_dataset")


def _per_layer(name, prepared, tracer, records, overhead_pct):
    """Per-layer metrics of the traced ops, and on ``eval`` the MAC check."""
    from axvit.search import transformer_mac_counts
    from tracing import aggregate, search_evaluations

    op_ids = set(range(len(records)))
    ops_agg = aggregate(tracer.spans, op_ids)
    setup_agg = aggregate(tracer.spans, {"setup"})
    out = {metric: (ops_agg[span][agg] / len(records), unit)
           for metric, span, agg, unit in OP_LAYERS}
    for span in SETUP_LAYERS:
        out[f"{span}.time_s"] = (setup_agg[span]["incl_s"], "s")
    sims = sum(r.op.units for r in records) if name == "search" else 0
    evals, reuse = search_evaluations(tracer.spans, op_ids)
    out["search.eval_hit_ratio"] = (1.0 - evals / sims if sims else 0.0, "ratio")
    out["search.prefix_reuse_ratio"] = (reuse, "ratio")
    out["trace.overhead_pct"] = (overhead_pct, "%")

    errors = []
    if name == "eval":
        # every sample of an eval op runs per_block MACs in each block; other
        # workloads may rightly skip work (shared prefixes), so only eval checks
        per_block, _ = transformer_mac_counts(prepared.cfg)
        samples = sum(r.op.units for r in records)
        expected = sum(per_block) * samples
        counted = (ops_agg["model.axx_matmul"]["macs"]
                   + ops_agg["model.exact_int_matmul"]["macs"])
        if counted != expected:
            errors.append(f"eval: {counted} MACs counted, transformer_mac_counts "
                          f"gives {expected} for {samples} samples")
    return out, errors


def run_traced(workloads, name, seed, seconds, sizes):
    """Per-layer metrics from traced sweeps, plus the tracing overhead against
    untraced sweeps; the two alternate so machine noise hits both alike."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = "setup"
        span = tracer.begin("setup")
        prepared = workloads.PREPARE[name](
            seed, sizes, os.path.join(OUT_DIR, f"ext-{name}-seed{seed}-traced.axlut"))
        tracer.end(span)
        tracer.op = None
    finally:
        tracer.remove()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        plain += time_sweeps(prepared.ops, 0)
        tracer.install()
        try:
            traced += time_sweeps(prepared.ops, 0, tracer, len(traced))
        finally:
            tracer.remove()
    outputs = {}
    failed, errors = judge(prepared, plain + traced, outputs)
    final_errors, digest_input = prepared.final(outputs)
    overhead_pct = (sum(r.seconds for r in traced) / sum(r.seconds for r in plain)
                    - 1.0) * 100.0
    metrics, trace_errors = _per_layer(name, prepared, tracer, traced, overhead_pct)
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.jsonl")
    tracer.write_jsonl(trace_path)
    info = {"ops_untraced": len(plain), "ops_traced": len(traced),
            "spans": len(tracer.spans), "trace_file": os.path.relpath(trace_path),
            "digest": workloads.digest(digest_input)}
    attempted = len(plain) + len(traced)
    return metrics, info, attempted, failed, errors + final_errors + trace_errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("eval", "search", "finetune", "calibrate", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: every check runs in seconds")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC_DIR, "axvit", "__init__.py")):
        print(f"perfbench: axvit sources not found under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC_DIR, BENCH_DIR]
    import numpy as np
    import axvit
    import workloads

    if not os.path.abspath(axvit.__file__).startswith(SRC_DIR + os.sep):
        print(f"perfbench: imported axvit from {axvit.__file__}, not {SRC_DIR}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    runner = run_traced if args.trace else run_plain

    for key, value in environment(np).items():
        print(f"# {key}: {value}")
    metrics_out, attempted, failed, errors = {}, 0, 0, []
    for name in names:
        metrics, info, n_ops, n_failed, errs = runner(workloads, name, args.seed,
                                                      args.seconds, sizes)
        attempted += n_ops
        failed += n_failed
        errors += errs
        prefix = f"{name}." if len(names) > 1 else ""
        print(f"[{name}] " + " ".join(f"{k}={v}" for k, v in info.items()))
        for metric, (value, unit) in metrics.items():
            print(f"[{name}] {metric} = {value:.6g} {unit}")
            metrics_out[prefix + metric] = {"value": value, "unit": unit}
    for err in errors[:20]:
        print(f"CHECK FAILED: {err}")
    result = {"correct": not errors and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics_out}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
