"""The four benchmark workloads: how each builds its inputs, what one op is,
and how its outputs are checked.

Every input comes from the workload seed. Set-up (data, float training,
calibration, every LUT build and the external-LUT load) finishes before any
op is timed.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from axvit import data, model, multipliers, search, training

NAMES = ("eval", "search", "finetune", "calibrate")
UNITS = {"eval": "samples", "search": "simulations", "finetune": "steps",
         "calibrate": "samples"}
PERFORATED_SPEC = "perf8r2"
EXTERNAL_NAME = "ext8"


@dataclass(frozen=True)
class Sizes:
    train_samples: int = 384
    eval_samples: int = 128
    eval_batch: int = 64
    calib_samples: int = 128
    float_iters: int = 30
    deep_float_iters: int = 100  # the deep model learns slowly; see prepare_search
    float_batch: int = 32
    vit: model.ModelConfig = model.ModelConfig()
    deep_vit: model.ModelConfig = model.ModelConfig(num_layers=6, embed_dim=16,
                                                    ffn_dim=32)
    probe: int = 16
    sims: int = 32
    lambdas: tuple[float, ...] = (0.1, 1.0, 8.0)
    ft_steps: int = 4
    ft_batch: int = 32
    calib_orders: int = 12


FULL = Sizes()
SMOKE = Sizes(train_samples=64, eval_samples=16, eval_batch=8, calib_samples=32,
              float_iters=3, deep_float_iters=3, float_batch=16,
              vit=model.ModelConfig(embed_dim=8, ffn_dim=16),
              deep_vit=model.ModelConfig(num_layers=3, embed_dim=8, ffn_dim=16),
              probe=32, sims=4, lambdas=(0.5, 2.0), ft_steps=2, ft_batch=8,
              calib_orders=2)


@dataclass
class Op:
    """One timed call. Ops with the same key must return equal outputs."""

    key: str
    units: int
    run: Callable[[], object]


@dataclass
class Prepared:
    ops: list[Op]                                    # one sweep
    check: Callable[[object], str | None]            # op output -> error or None
    cfg: model.ModelConfig
    state_digest: str                                # of the set-up model
    # outputs by op key -> (run-level errors, what the digest covers)
    final: Callable[[dict[str, object]], tuple[list[str], object]] = \
        lambda outputs: ([], outputs)


def digest(obj) -> str:
    """sha256 of a canonical rendering; float reprs round-trip exactly."""
    h = hashlib.sha256()

    def feed(o):
        if isinstance(o, np.ndarray):
            h.update(f"{o.dtype}{o.shape}".encode())
            h.update(np.ascontiguousarray(o).tobytes())
        elif isinstance(o, dict):
            for k in sorted(o):
                h.update(repr(k).encode())
                feed(o[k])
        elif isinstance(o, (list, tuple)):
            h.update(b"[")
            for item in o:
                feed(item)
            h.update(b"]")
        else:
            h.update(repr(o).encode())

    feed(obj)
    return h.hexdigest()


def _params_digest(m: model.VitModel) -> str:
    return digest((m.params, m.scales))


# ---------------------------------------------------------------------------
# Set-up shared by all workloads
# ---------------------------------------------------------------------------

def external_lut(seed: int) -> multipliers.ProductLut:
    """Exact 8-bit products plus seeded small errors on a quarter of the
    entries, so the table is not an outer product of two factor tables."""
    ops = np.arange(-128, 128, dtype=np.int64)
    table = ops[:, None] * ops[None, :]
    rng = np.random.default_rng(seed)
    errors = rng.integers(-8, 9, size=table.shape) * (rng.random(table.shape) < 0.25)
    return multipliers.ProductLut(8, table + errors)


def build_catalog(seed: int, lut_path: str) -> multipliers.Catalog:
    """Built-in presets, one perforated spec and one external LUT, with every
    product table built (and the external one loaded) up front."""
    catalog = multipliers.builtin_catalog()
    catalog.add(multipliers.parse_multiplier_spec(PERFORATED_SPEC, power_mw=0.33))
    multipliers.save_lut(external_lut(seed), lut_path)
    catalog.add(multipliers.AxMultiplier(EXTERNAL_NAME, 8, "external",
                                         lut_path=lut_path, power_mw=0.36))
    try:
        for name in catalog.names():
            catalog.lut(name)
    finally:
        os.remove(lut_path)
    return catalog


def _trained_model(cfg, iters, seed, sizes, patches, labels):
    m = model.init_model(cfg, seed=seed)
    hp = training.TrainHyperparams(learning_rate=3e-3, iterations=iters,
                                   batch_size=sizes.float_batch, data_fraction=1.0,
                                   seed=seed)
    training.train_float(m, patches[:sizes.train_samples],
                         labels[:sizes.train_samples], hp)
    model.calibrate(m, patches[:sizes.calib_samples])
    return m


def _common(cfg, seed, sizes, lut_path, iters=None):
    imgs, labels = data.synthetic_dataset(sizes.train_samples + sizes.eval_samples,
                                          seed=seed)
    patches = data.images_to_patches(imgs)
    m = _trained_model(cfg, iters or sizes.float_iters, seed, sizes, patches, labels)
    catalog = build_catalog(seed, lut_path)
    return m, catalog, patches, labels


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def prepare_eval(seed, sizes, lut_path) -> Prepared:
    """evaluate_accuracy over every rank-1 multiplier, uniform and mixed per
    block, plus the integer reference path (no LUT)."""
    cfg = sizes.vit
    m, catalog, patches, labels = _common(cfg, seed, sizes, lut_path)
    ep = patches[sizes.train_samples:]
    el = labels[sizes.train_samples:]
    rank1 = [n for n in catalog.names() if n != EXTERNAL_NAME]
    L = cfg.num_layers
    assignments = [(name,) * L for name in rank1]
    for shift in (1, 2):
        assignments.append(tuple(rank1[(i * shift + shift) % len(rank1)] for i in range(L)))

    def op(assignment):
        return lambda: model.evaluate_accuracy(m, ep, el, assignment, catalog,
                                               batch_size=sizes.eval_batch)

    ops = [Op("+".join(a), sizes.eval_samples, op(a)) for a in assignments]
    ops.append(Op("integer-reference", sizes.eval_samples, op(None)))

    def check(acc):
        return None if 0.0 <= acc <= 1.0 else f"accuracy {acc} outside [0, 1]"

    def final(outputs):
        errors = []
        batch = ep[:sizes.eval_batch]
        exact = [catalog.lut(multipliers.EXACT_BASELINE_NAME)] * L
        ref = model.vit_forward(m, batch, None)
        if not np.array_equal(model.vit_forward(m, batch, exact), ref):
            errors.append("eval: exact-LUT logits differ from the integer reference")
        logits = [model.vit_forward(m, batch, [catalog.lut(n) for n in a])
                  for a in assignments]
        return errors, (outputs, ref, logits)

    return Prepared(ops, check, cfg, _params_digest(m), final)


def _row(p: search.SearchPoint) -> tuple:
    return p.config, p.predicted_accuracy, p.normalized_power, p.reward


def prepare_search(seed, sizes, lut_path) -> Prepared:
    """search_model with the hw policy over a lambda sweep on a deep, narrow
    model. Each call profiles its own sensitivity table, as the ``search``
    command does: one multiplier in one block with the exact one elsewhere,
    so those evaluations share long assignment prefixes. The deep model gets
    more float training than the default one: after 30 steps some seeds are
    near chance, and an all-exact probe accuracy of 0 stops the search."""
    cfg = sizes.deep_vit
    m, catalog, patches, labels = _common(cfg, seed, sizes, lut_path,
                                          sizes.deep_float_iters)
    cands = multipliers.builtin_catalog().names() + [EXTERNAL_NAME]
    probe_p, probe_l = patches[:sizes.probe], labels[:sizes.probe]

    def op(lam):
        params = search.SearchParams(lam=lam, num_simulations=sizes.sims, policy="hw",
                                     probe_batch_size=sizes.probe, seed=seed)

        def run():
            res = search.search_model(m, catalog, probe_p, probe_l, params,
                                      acu_names=cands)
            return tuple(map(_row, res.points)), tuple(map(_row, res.pareto))
        return run

    ops = [Op(f"lambda={lam}", sizes.sims, op(lam)) for lam in sizes.lambdas]

    def check(out):
        points, front = out
        if not front or not set(front) <= set(points):
            return "Pareto front is empty or not a subset of the evaluated points"
        for _, acc, pw, _ in front:
            for _, a2, p2, _ in points:
                if a2 >= acc and p2 <= pw and (a2 > acc or p2 < pw):
                    return f"Pareto point ({acc}, {pw}) is dominated by ({a2}, {p2})"
        return None

    return Prepared(ops, check, cfg, _params_digest(m))


def prepare_finetune(seed, sizes, lut_path) -> Prepared:
    """Adam finetuning through the non-separable external LUT in every block,
    each op on a fresh copy of the set-up model."""
    cfg = sizes.vit
    m, catalog, patches, labels = _common(cfg, seed, sizes, lut_path)
    tp, tl = patches[:sizes.train_samples], labels[:sizes.train_samples]
    hp = training.TrainHyperparams(optimizer="adam", learning_rate=1e-3,
                                   iterations=sizes.ft_steps, batch_size=sizes.ft_batch,
                                   data_fraction=0.5, seed=seed)
    assignment = (EXTERNAL_NAME,) * cfg.num_layers

    def run():
        mm = m.copy()
        history = training.finetune(mm, assignment, tp, tl, hp, catalog)
        return tuple(history), _params_digest(mm)

    ops = [Op("finetune", sizes.ft_steps, run)]

    def check(out):
        history, _ = out
        if len(history) != sizes.ft_steps or not all(map(math.isfinite, history)):
            return f"loss history is not {sizes.ft_steps} finite values: {history}"
        return None

    return Prepared(ops, check, cfg, _params_digest(m))


def prepare_calibrate(seed, sizes, lut_path) -> Prepared:
    """Histogram calibration over the whole training set on a fresh copy of
    the set-up model (float path, no LUT matmul). Each op of a sweep takes the
    samples in another seeded order: the calibrator rebins whenever a batch
    raises a running maximum, so its cost depends on the order, and a sweep
    averages over several."""
    cfg = sizes.vit
    m, _, patches, _ = _common(cfg, seed, sizes, lut_path)
    tp = patches[:sizes.train_samples]
    rng = np.random.default_rng(seed)
    orders = [rng.permutation(sizes.train_samples) for _ in range(sizes.calib_orders)]

    def op(order):
        def run():
            scales = model.calibrate(m.copy(), tp[order])
            return tuple(sorted(scales.items()))
        return run

    ops = [Op(f"order-{i}", sizes.train_samples, op(order))
           for i, order in enumerate(orders)]

    def check(scales):
        bad = [k for k, v in scales if not (math.isfinite(v) and v > 0)]
        return f"non-positive scales: {bad}" if bad else None

    return Prepared(ops, check, cfg, _params_digest(m))


PREPARE = {"eval": prepare_eval, "search": prepare_search,
           "finetune": prepare_finetune, "calibrate": prepare_calibrate}
