"""Span tracing around the public functions of the axvit modules.

The tracer wraps functions from outside the package: it swaps each target for
a wrapper in every axvit module namespace (and class) that binds it, records a
span per call, and puts the originals back when it is removed. Spans are kept
in memory and written out as JSONL at the end of a run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) targets; "Class.method" patches a method on the class.
# The span name is "<module>.<attribute>" except where renamed below.
TARGETS = (
    ("model", "axx_matmul"),
    ("model", "exact_int_matmul"),
    ("model", "vit_forward"),
    ("model", "gelu"),
    ("model", "softmax"),
    ("model", "layer_norm"),
    ("quant", "quantize"),
    ("quant", "max_scale"),
    ("quant", "HistogramCalibrator.observe"),
    ("quant", "HistogramCalibrator.compute_scale"),
    ("training", "vit_backward"),
    ("training", "Adam.step"),
    ("training", "train_float"),
    ("search", "predict_accuracy"),
    ("search", "profile_sensitivity"),
    ("search", "mcts_search"),
    ("multipliers", "build_lut"),
    ("multipliers", "load_lut"),
    ("data", "synthetic_dataset"),
)

RENAMED = {
    "quant.HistogramCalibrator.compute_scale": "quant.compute_scale",
    "training.Adam.step": "training.optimizer_step",
}


def _matmul_counters(args, kwargs):
    a, b = np.shape(args[0]), np.shape(args[1])
    batch = np.broadcast_shapes(a[:-2], b[:-2])
    macs = int(np.prod(batch, dtype=np.int64)) * a[-2] * a[-1] * b[-1]
    return {"macs": macs}


def _axx_counters(args, kwargs):
    counters = _matmul_counters(args, kwargs)
    lut = args[2] if len(args) > 2 else kwargs["lut"]
    # the gather materializes one LUT entry per multiply before the sum
    counters["temp_bytes"] = counters["macs"] * lut.entries.itemsize
    return counters


def _forward_counters(args, kwargs):
    return {"samples": int(np.shape(args[1])[0])}


def _quantize_counters(args, kwargs):
    return {"elements": int(np.size(args[0]))}


def _predict_counters(args, kwargs):
    assignment = args[1] if len(args) > 1 else kwargs["assignment"]
    return {"assignment": list(assignment)}


COUNTERS = {
    "model.axx_matmul": _axx_counters,
    "model.exact_int_matmul": _matmul_counters,
    "model.vit_forward": _forward_counters,
    "quant.quantize": _quantize_counters,
    "search.predict_accuracy": _predict_counters,
}


class Tracer:
    """Records spans (name, start, end, parent, op) and per-span counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = None
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str, counters=None) -> int:
        parent = self._stack[-1] if self._stack else None
        span = {"id": len(self.spans), "name": name, "parent": parent,
                "op": self.op, "start": time.perf_counter(), "end": None}
        if counters:
            span.update(counters)
        self.spans.append(span)
        self._stack.append(span["id"])
        return span["id"]

    def end(self, span_id: int) -> None:
        self.spans[span_id]["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            sid = self.begin(name, count(args, kwargs) if count else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(sid)

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever an axvit module or class binds it."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "axvit" or n.startswith("axvit."))]
        for mod_name, attr in TARGETS:
            owner = sys.modules[f"axvit.{mod_name}"]
            name = RENAMED.get(f"{mod_name}.{attr}", f"{mod_name}.{attr}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _set(self, obj, key, value):
        self._patches.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def remove(self) -> None:
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def aggregate(spans, ops):
    """Per span name: calls, inclusive and self seconds, summed counters.

    Only spans whose op id is in ``ops`` are counted. Self time
    is a span's duration minus the durations of its direct children; calls are
    strictly nested, so children never overlap.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if s["op"] not in ops:
            continue
        agg = out[s["name"]]
        dur = s["end"] - s["start"]
        agg["calls"] += 1
        agg["incl_s"] += dur
        agg["self_s"] += dur - child_time[s["id"]]
        for key, value in s.items():
            if key not in ("id", "name", "parent", "op", "start", "end", "assignment"):
                agg[key] += value
    return out


def search_evaluations(spans, ops):
    """(evaluations made by MCTS, prefix reuse ratio) over the ops in ``ops``.

    An evaluation is a ``predict_accuracy`` call; profile_sensitivity makes
    the others. Block i's output depends only on the probe batch and the
    assignment up to block i, so an evaluation could reuse the blocks of its
    longest prefix that an earlier evaluation of the same op computed. The
    ratio is those blocks over all blocks evaluated.
    """
    mcts, by_op = 0, defaultdict(list)
    for s in spans:
        if s["name"] != "search.predict_accuracy" or s["op"] not in ops:
            continue
        by_op[s["op"]].append(tuple(s["assignment"]))
        if s["parent"] is not None and spans[s["parent"]]["name"] == "search.mcts_search":
            mcts += 1
    blocks = reused = 0
    for assignments in by_op.values():
        computed = set()  # prefixes already evaluated in this op
        for a in assignments:
            shared = 0
            while shared < len(a) and a[:shared + 1] in computed:
                shared += 1
            reused += shared
            blocks += len(a)
            computed.update(a[:i + 1] for i in range(len(a)))
    return mcts, (reused / blocks if blocks else 0.0)
