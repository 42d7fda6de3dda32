#!/usr/bin/env python3
"""A/B timing of two axvit source trees in one process.

Imports the ``axvit`` package of each tree side by side, builds the same
perfbench workload (``perfbench/workloads.py``) for each, and stops with an
error unless both give the same output digest. It then alternates whole
sweeps (every op of the workload once), the first tree of a round switching
each round, until ``--seconds`` have passed, and prints one JSON line: the
median sweep seconds of both trees, their ratio (change over parent) and
the number of rounds whose change sweep was the faster. Separate processes
running the same code differ by a few percent, so a gain of that size shows
here and can hide in a few harness runs. ``--workload all`` runs the four
workloads in turn, ``--seconds`` each, and prints a line for each: one
command checks a claimed gain and the workloads that should not move. It
stops at the first workload whose digests differ. Run it from the
repository root:

    python3 tools/ab_sweeps.py --parent ../parent/src --change src --workload eval
    python3 tools/ab_sweeps.py --parent ../parent/src --change src --workload all

It changes no file under ``perfbench/``; the external table of a set-up is
written to a temporary directory.
"""

import os

# One BLAS thread, set before numpy loads, as perfbench/run.py does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS_PY = os.path.join(REPO_ROOT, "perfbench", "workloads.py")
WORKLOADS = ("eval", "search", "finetune", "calibrate")


def _axvit_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "axvit" or k.startswith("axvit.")}


class Tree:
    """The axvit package of one source directory and the workload module
    built on it. Its modules are put into ``sys.modules`` only while it runs
    (``active``), so each tree's code sees its own package."""

    def __init__(self, src: str, tag: str):
        src = os.path.abspath(src)
        if not os.path.isfile(os.path.join(src, "axvit", "__init__.py")):
            raise SystemExit(f"ab_sweeps: no axvit package under {src}")
        saved = _axvit_modules()
        for k in saved:
            del sys.modules[k]
        sys.path.insert(0, src)
        try:
            import axvit  # noqa: F401  (the import binds this tree's package)
            if os.path.dirname(os.path.abspath(axvit.__file__)) != os.path.join(src, "axvit"):
                raise SystemExit(f"ab_sweeps: imported axvit from {axvit.__file__}, not {src}")
            spec = importlib.util.spec_from_file_location(f"workloads_{tag}", WORKLOADS_PY)
            self.workloads = importlib.util.module_from_spec(spec)
            sys.modules[spec.name] = self.workloads  # dataclasses look their module up
            spec.loader.exec_module(self.workloads)
            self.modules = _axvit_modules()
        finally:
            sys.path.remove(src)
            for k in _axvit_modules():
                del sys.modules[k]
            sys.modules.update(saved)
        self.tag = tag

    @contextlib.contextmanager
    def active(self):
        sys.modules.update(self.modules)
        try:
            yield
        finally:
            for k in self.modules:
                sys.modules.pop(k, None)


def prepare(tree: Tree, name: str, seed: int, sizes_name: str, tmp: str):
    with tree.active():
        sizes = getattr(tree.workloads, sizes_name)
        path = os.path.join(tmp, f"ext-{tree.tag}.axlut")
        return tree.workloads.PREPARE[name](seed, sizes, path)


def sweep(tree: Tree, prepared) -> tuple[float, dict]:
    """Seconds of one whole sweep, and each op's output by key."""
    outputs = {}
    with tree.active():
        start = time.perf_counter()
        for op in prepared.ops:
            outputs.setdefault(op.key, op.run())
        return time.perf_counter() - start, outputs


def output_digest(tree: Tree, prepared, outputs) -> str:
    """The digest perfbench/run.py prints for a run, over one sweep's outputs;
    raises on a failed workload check."""
    with tree.active():
        for key, out in outputs.items():
            msg = prepared.check(out)
            if msg is not None:
                raise SystemExit(f"ab_sweeps: {tree.tag}: op {key}: {msg}")
        errors, digest_input = prepared.final(outputs)
        if errors:
            raise SystemExit(f"ab_sweeps: {tree.tag}: {errors[0]}")
        return tree.workloads.digest(digest_input)


def compare(trees: list, name: str, args) -> int:
    """Time one workload on both trees and print its JSON line; 1 where the
    digests differ."""
    sizes = "SMOKE" if args.smoke else "FULL"
    with tempfile.TemporaryDirectory() as tmp:
        prepared = [prepare(t, name, args.seed, sizes, tmp) for t in trees]
    # the first sweep of each tree gives its digest and warms it up
    digests = [output_digest(t, p, sweep(t, p)[1]) for t, p in zip(trees, prepared)]
    if digests[0] != digests[1]:
        print(f"ab_sweeps: {name}: output digests differ: parent {digests[0]}, "
              f"change {digests[1]}", file=sys.stderr)
        return 1
    times = ([], [])
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or not times[0]:
        order = (0, 1) if len(times[0]) % 2 == 0 else (1, 0)
        for i in order:
            times[i].append(sweep(trees[i], prepared[i])[0])
    parent, change = (statistics.median(t) for t in times)
    print(json.dumps({"workload": name, "seed": args.seed, "digest": digests[0],
                      "rounds": len(times[0]), "parent_median_s": round(parent, 6),
                      "change_median_s": round(change, 6),
                      "ratio": round(change / parent, 4),
                      "change_wins": sum(c < p for p, c in zip(*times))}), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="source directory holding axvit/")
    parser.add_argument("--change", required=True, help="source directory holding axvit/")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all four in turn")
    parser.add_argument("--seconds", type=float, default=60.0, help="per workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true", help="perfbench's tiny sizes")
    args = parser.parse_args(argv)

    trees = [Tree(args.parent, "parent"), Tree(args.change, "change")]
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        if compare(trees, name, args):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
