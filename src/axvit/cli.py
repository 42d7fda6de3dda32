"""Command-line surface tying LUT generation, calibration, evaluation,
finetuning, sensitivity profiling and the assignment search into reproducible
experiments. All output files are written atomically (temp file + rename) and
every command is deterministic given its flags and inputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import data as dt
from . import model as nn
from . import search as se
from . import training as tr
from .multipliers import (
    builtin_catalog,
    build_lut,
    error_metrics,
    load_catalog,
    lut_checksum,
    parse_multiplier_spec,
    save_lut,
)
from .quant import DEFAULT_NUM_BINS, DEFAULT_PERCENTILE, save_scale_map

DEFAULT_SEED = 0


# ---------------------------------------------------------------------------
# Atomic output helpers
# ---------------------------------------------------------------------------

def _atomic_write(path: str, writer) -> None:
    """Call writer(temp_path), then rename the temp file onto path."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_text(path: str, text: str) -> None:
    def w(tmp):
        with open(tmp, "w", newline="") as f:
            f.write(text)
    _atomic_write(path, w)


def _emit(out, text: str) -> None:
    """Print text, and also write it to out when out is given."""
    if out:
        _write_text(out, text)
    print(text, end="")


def _csv_text(header_comments, columns, rows) -> str:
    buf = io.StringIO()
    for line in header_comments:
        buf.write(f"# {line}\n")
    w = csv.writer(buf)
    w.writerow(columns)
    w.writerows(rows)
    return buf.getvalue()


def read_csv(path: str):
    """Read a CSV emitted by this tool: ({header comments}, columns, rows)."""
    comments = {}
    with open(path, newline="") as f:
        lines = f.read().splitlines()
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, val = line[2:].partition("=")
            comments[key] = val
        else:
            body.append(line)
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    if not rows:
        raise ValueError(f"{path}: no CSV header row")
    if any(len(r) != len(rows[0]) for r in rows[1:]):
        raise ValueError(f"{path}: a row has a different field count than the header")
    return comments, rows[0], rows[1:]


# ---------------------------------------------------------------------------
# Shared input loading
# ---------------------------------------------------------------------------

def _load_catalog_arg(args):
    if args.catalog:
        return load_catalog(args.catalog)
    return builtin_catalog()


def _spec_count(spec: str, name: str, text: str) -> int:
    """A non-negative integer field of a synthetic dataset spec; int() and
    numpy's own errors name no flag."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"--dataset: {name} must be a non-negative integer, "
                         f"got {text!r} in {spec!r}")
    return value


def _load_dataset(spec: str):
    """Dataset flag: a directory with images.idx/labels.idx, or
    'synthetic:<num>:<seed>' for the in-tree generator."""
    if spec.startswith("synthetic:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"--dataset: expected synthetic:<num>:<seed>, got {spec!r}")
        imgs, labels = dt.synthetic_dataset(_spec_count(spec, "<num>", parts[1]),
                                            _spec_count(spec, "<seed>", parts[2]))
    else:
        imgs = dt.load_idx_images(os.path.join(spec, "images.idx"))
        labels = dt.load_idx_labels(os.path.join(spec, "labels.idx"))
        if len(imgs) != len(labels):
            raise ValueError(f"{spec}: {len(imgs)} images but {len(labels)} labels")
    return dt.images_to_patches(imgs), labels


def _load_inputs(args):
    """Model, catalog, patches and labels, loaded in that order."""
    model = nn.load_checkpoint(args.model)
    catalog = _load_catalog_arg(args)
    patches, labels = _load_dataset(args.dataset)
    return model, catalog, patches, labels


def _probe(args, patches, labels):
    """The first ``--probe`` samples and their labels."""
    if args.probe < 1:
        raise ValueError(f"--probe must be >= 1, got {args.probe}")
    return patches[:args.probe], labels[:args.probe]


def _parse_config(text: str, num_layers: int, catalog) -> list[str]:
    names = [n.strip() for n in text.split(",")]
    if len(names) == 1:
        names = names * num_layers
    if len(names) != num_layers:
        raise ValueError(f"--config: expected 1 or {num_layers} names, got {len(names)}")
    for n in names:
        if n not in catalog:
            raise ValueError(f"--config: unknown multiplier {n!r}")
    return names


def _resolve_multiplier(spec: str, catalog):
    if spec in catalog:
        return catalog.get(spec)
    return parse_multiplier_spec(spec)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen_lut(args) -> int:
    mult = _resolve_multiplier(args.multiplier, _load_catalog_arg(args))
    lut = build_lut(mult)
    _atomic_write(args.out, lambda tmp: save_lut(lut, tmp))
    print(f"wrote {args.out} bitwidth={lut.bitwidth} sha256={lut_checksum(args.out)}")
    return 0


def cmd_error_metrics(args) -> int:
    catalog = _load_catalog_arg(args)
    columns = ["name", "bitwidth", "mae_pct", "wce_pct", "mre_pct",
               "power_mw", "area_um2", "delay_ns"]
    rows = []
    for m in catalog:
        em = error_metrics(m)
        rows.append([m.name, m.bitwidth, repr(em.mae_pct), repr(em.wce_pct),
                     repr(em.mre_pct), repr(m.power_mw), repr(m.area_um2),
                     repr(m.delay_ns)])
    _emit(args.out, _csv_text([], columns, rows))
    return 0


def cmd_gen_data(args) -> int:
    imgs, labels = dt.synthetic_dataset(args.num, args.seed)  # checks --num first
    os.makedirs(args.out, exist_ok=True)
    _atomic_write(os.path.join(args.out, "images.idx"),
                  lambda tmp: dt.save_idx_images(tmp, imgs))
    _atomic_write(os.path.join(args.out, "labels.idx"),
                  lambda tmp: dt.save_idx_labels(tmp, labels))
    print(f"wrote {args.num} samples to {args.out}")
    return 0


def cmd_init_model(args) -> int:
    if args.train_iters and not args.dataset:
        raise ValueError("--dataset is required when --train-iters > 0")
    cfg = nn.ModelConfig(num_layers=args.layers, embed_dim=args.dim,
                         num_heads=args.heads, ffn_dim=args.ffn_dim)
    model = nn.init_model(cfg, seed=args.seed, bitwidth=args.bitwidth)
    if args.train_iters:
        patches, labels = _load_dataset(args.dataset)
        hp = tr.TrainHyperparams(learning_rate=args.lr, iterations=args.train_iters,
                                 batch_size=64, data_fraction=1.0, seed=args.seed)
        losses = tr.train_float(model, patches, labels, hp)
        print(f"trained {args.train_iters} steps, final loss {losses[-1]:.4f}")
        nn.calibrate(model, patches[:256])
    _atomic_write(args.out, lambda tmp: nn.save_checkpoint(model, tmp))
    print(f"wrote {args.out}")
    return 0


def cmd_calibrate(args) -> int:
    model = nn.load_checkpoint(args.model)
    patches, _ = _load_dataset(args.dataset)
    scales = nn.calibrate(model, patches, percentile=args.percentile,
                          num_bins=args.bins)
    _atomic_write(args.out, lambda tmp: save_scale_map(scales, tmp))
    if args.save_model:
        _atomic_write(args.save_model, lambda tmp: nn.save_checkpoint(model, tmp))
    print(f"wrote {args.out} ({len(scales)} scales)")
    return 0


def cmd_eval(args) -> int:
    model, catalog, patches, labels = _load_inputs(args)
    config = _parse_config(args.config, model.cfg.num_layers, catalog)
    if args.probe is not None:
        patches, labels = _probe(args, patches, labels)
    acc = nn.evaluate_accuracy(model, patches, labels, config, catalog)
    power = se.power_of_config(config, catalog, model.cfg,
                               se.exact_baseline(catalog, catalog.names()))
    report = {"config": config, "accuracy": acc, "normalized_power": power,
              "power_reduction_pct": se.power_reduction_pct(power),
              "samples": len(labels)}
    _emit(args.out, json.dumps(report, indent=2) + "\n")
    return 0


def cmd_finetune(args) -> int:
    model, catalog, patches, labels = _load_inputs(args)
    config = _parse_config(args.config, model.cfg.num_layers, catalog)
    hp = tr.TrainHyperparams(learning_rate=args.lr, iterations=args.iters,
                             batch_size=args.batch, data_fraction=args.fraction,
                             seed=args.seed)
    losses = tr.finetune(model, config, patches, labels, hp, catalog)
    # the loop checks each step's own forward and backward, not the weights
    # the last update leaves: one batch's forward checks them before any write
    logits = nn.vit_forward(model, patches[:hp.batch_size], [catalog.lut(n) for n in config])
    if not np.isfinite(logits).all():
        raise RuntimeError("training diverged: the final weights give non-finite logits")
    os.makedirs(args.out, exist_ok=True)
    ckpt = os.path.join(args.out, "finetuned.ckpt")
    _atomic_write(ckpt, lambda tmp: nn.save_checkpoint(model, tmp))
    loss_csv = os.path.join(args.out, "loss.csv")
    _write_text(loss_csv, _csv_text(
        [f"config={','.join(config)}", f"lr={hp.learning_rate}", f"seed={hp.seed}"],
        ["step", "loss"], [[i, repr(v)] for i, v in enumerate(losses)]))
    print(f"wrote {ckpt} and {loss_csv} ({len(losses)} steps)")
    return 0


def cmd_sensitivity(args) -> int:
    model, catalog, patches, labels = _load_inputs(args)
    table = se.profile_sensitivity(model, catalog, *_probe(args, patches, labels))
    rows = [[name, i, repr(float(table.s[j, i])), repr(float(table.p[j, i]))]
            for j, name in enumerate(table.acu_names)
            for i in range(table.s.shape[1])]
    text = _csv_text([f"baseline_accuracy={table.baseline_accuracy!r}"],
                     ["multiplier", "layer", "sensitivity", "normalized_power"], rows)
    _emit(args.out, text)
    return 0


def _search_header(args) -> list[str]:
    return [f"lambda={args.lam}", f"c={args.c}", f"sims={args.sims}",
            f"policy={args.policy}", f"seed={args.seed}", f"probe={args.probe}"]


_POINT_COLUMNS = ["config", "predicted_accuracy", "normalized_power", "reward"]


def _point_fields(pt) -> list[str]:
    """A search point's ``_POINT_COLUMNS`` fields, as every search CSV writes them."""
    return ["|".join(pt.config), repr(pt.predicted_accuracy), repr(pt.normalized_power),
            repr(pt.reward)]


def cmd_search(args) -> int:
    model, catalog, patches, labels = _load_inputs(args)
    params = se.SearchParams(lam=args.lam, c=args.c, num_simulations=args.sims,
                             policy=args.policy, probe_batch_size=args.probe,
                             seed=args.seed)
    result = se.search_model(model, catalog, patches, labels, params)
    os.makedirs(args.out, exist_ok=True)
    header = _search_header(args)
    pareto_keys = {(pt.predicted_accuracy, pt.normalized_power)
                   for pt in result.pareto}
    rows = [[i, *_point_fields(pt),
             str((pt.predicted_accuracy, pt.normalized_power) in pareto_keys).lower()]
            for i, pt in enumerate(result.points)]
    _write_text(os.path.join(args.out, "search.csv"), _csv_text(
        header, ["simulation_index", *_POINT_COLUMNS, "on_pareto"], rows))
    _write_text(os.path.join(args.out, "pareto.csv"), _csv_text(
        header, _POINT_COLUMNS, map(_point_fields, result.pareto)))
    _write_text(os.path.join(args.out, "rewards.csv"), _csv_text(
        header, ["simulation_index", "reward"],
        [[i, repr(float(r))] for i, r in enumerate(result.rewards)]))
    print(f"wrote search.csv, pareto.csv, rewards.csv to {args.out} "
          f"({len(result.pareto)} Pareto points, best root action "
          f"{result.best_root_action()})")
    return 0


def cmd_toy(args) -> int:
    catalog = _load_catalog_arg(args)
    mult = _resolve_multiplier(args.multiplier, catalog)
    result = tr.toy_attention_experiment(mult, iterations=args.iters,
                                         seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    _write_text(os.path.join(args.out, "loss.csv"), _csv_text(
        [f"multiplier={mult.name}", f"seed={args.seed}"],
        ["iteration", "mse"], [[i, repr(float(v))] for i, v in enumerate(result.losses)]))
    both = np.concatenate([result.outputs.ravel(), result.targets.ravel()])
    edges = np.histogram_bin_edges(both, bins=50)
    out_c, _ = np.histogram(result.outputs.ravel(), bins=edges)
    tgt_c, _ = np.histogram(result.targets.ravel(), bins=edges)
    _write_text(os.path.join(args.out, "histogram.csv"), _csv_text(
        [f"multiplier={mult.name}", f"seed={args.seed}"],
        ["bin_left", "bin_right", "output_count", "target_count"],
        [[repr(float(edges[i])), repr(float(edges[i + 1])), int(out_c[i]), int(tgt_c[i])]
         for i in range(len(out_c))]))
    print(f"wrote loss.csv and histogram.csv to {args.out} "
          f"(final MSE {result.losses[-1]:.6f})")
    return 0


def _finite_field(path: str, row: int, column: str, text: str) -> float:
    """A numeric field of a search CSV (row 1 follows the header); float()'s
    own error names no file or row, and a NaN accuracy would land on the
    front."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{path}: row {row}: {column} {text!r} is not a finite number")
    return value


def cmd_pareto(args) -> int:
    comments, columns, rows = read_csv(args.search_csv)
    idx = {c: i for i, c in enumerate(columns)}
    for needed in _POINT_COLUMNS:
        if needed not in idx:
            raise ValueError(f"{args.search_csv} is missing column {needed!r}")
    points = [se.SearchPoint(tuple(r[idx["config"]].split("|")),
                             *(_finite_field(args.search_csv, row, c, r[idx[c]])
                               for c in _POINT_COLUMNS[1:]))
              for row, r in enumerate(rows, 1)]
    _emit(args.out, _csv_text([f"{k}={v}" for k, v in comments.items()], _POINT_COLUMNS,
                              map(_point_fields, se.pareto_front(points))))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="axvit",
        description="Approximate-multiplier transformer emulation and "
                    "assignment search")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help, seed=False, catalog=False, inputs=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        if seed:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if catalog:
            p.add_argument("--catalog", help="catalog JSON (default: built-in)")
        if inputs:
            p.add_argument("--model", required=True)
            p.add_argument("--dataset", required=True)
        return p

    p = add("gen-lut", cmd_gen_lut, "build and save a product LUT", catalog=True)
    p.add_argument("multiplier", help="catalog name or spec like trunc8k2")
    p.add_argument("--out", required=True)

    p = add("error-metrics", cmd_error_metrics,
            "exhaustive error and hardware table for a catalog", catalog=True)
    p.add_argument("--out")

    p = add("gen-data", cmd_gen_data, "generate a synthetic IDX dataset", seed=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--num", type=int, default=1600)

    p = add("init-model", cmd_init_model,
            "initialize (and optionally train) a model checkpoint", seed=True)
    p.add_argument("--out", required=True)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--ffn-dim", type=int, default=64)
    p.add_argument("--bitwidth", type=int, default=8)
    p.add_argument("--train-iters", type=int, default=0)
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--dataset", help="required when --train-iters > 0")

    p = add("calibrate", cmd_calibrate, "histogram-calibrate quantization scales",
            inputs=True)
    p.add_argument("--out", required=True, help="scale map JSON")
    p.add_argument("--save-model", help="also save the calibrated checkpoint")
    p.add_argument("--percentile", type=float, default=DEFAULT_PERCENTILE)
    p.add_argument("--bins", type=int, default=DEFAULT_NUM_BINS)

    p = add("eval", cmd_eval, "accuracy and power of one assignment",
            catalog=True, inputs=True)
    p.add_argument("--config", required=True,
                   help="comma-separated per-layer multiplier names, or one name")
    p.add_argument("--probe", type=int, help="evaluate only the first N samples")
    p.add_argument("--out")

    p = add("finetune", cmd_finetune, "approximation-aware finetuning",
            seed=True, catalog=True, inputs=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--lr", type=float, default=5e-5)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--fraction", type=float, default=0.025)

    p = add("sensitivity", cmd_sensitivity, "per-layer multiplier sensitivity",
            catalog=True, inputs=True)
    p.add_argument("--probe", type=int, default=128)
    p.add_argument("--out")

    p = add("search", cmd_search, "MCTS over per-layer assignments",
            seed=True, catalog=True, inputs=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--c", type=float, default=math.sqrt(2.0))
    p.add_argument("--sims", type=int, default=500)
    p.add_argument("--policy", choices=se.POLICIES, default="hw")
    p.add_argument("--probe", type=int, default=128)

    p = add("toy", cmd_toy, "single-layer attention convergence experiment",
            seed=True, catalog=True)
    p.add_argument("multiplier", help="catalog name or spec like trunc8k2")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--iters", type=int, default=500)

    p = add("pareto", cmd_pareto, "recompute the Pareto front from a search CSV")
    p.add_argument("search_csv")
    p.add_argument("--out")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # numpy's own message names no flag
            raise ValueError(f"seed must be >= 0, got {args.seed}")
        # an overflowing forward ends in the package's own one-line error, not
        # numpy's warnings first; the training loop still raises on overflow
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    # OverflowError: a 32-bit accumulator sum of the model's products overflowed
    except (ValueError, OSError, RuntimeError, MemoryError, OverflowError) as exc:
        print(f"axvit {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
