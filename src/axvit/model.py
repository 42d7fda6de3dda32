"""Minimal dense transformer engine with swappable integer multipliers.

Every matrix multiply inside multi-head attention and the FFN runs on
quantized operands and routes each scalar product through a product LUT
(or an exact integer reference when no LUT is given). Softmax, LayerNorm,
GELU, residual adds, the patch embedding and the classifier head stay in
real arithmetic.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, asdict

import numpy as np

from .quant import QuantParams, HistogramCalibrator, max_scale, quantize

CHECKPOINT_MAGIC = b"AXVITCK"
CHECKPOINT_VERSION = 2

_INT32_MAX = np.int64(2**31 - 1)
_FLOAT_EXACT_LIMIT = 2**53  # float64 holds every integer of smaller magnitude
_GATHER_STEP_ELEMENTS = 4096  # LUT entries gathered per step of the general kernel


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int = 2
    embed_dim: int = 32
    num_heads: int = 2
    ffn_dim: int = 64
    num_patches: int = 16
    num_classes: int = 10
    patch_dim: int = 16

    def __post_init__(self):
        if any(type(v) is not int or v < 1 for v in asdict(self).values()):
            raise ValueError(f"model dimensions must be positive integers: {asdict(self)}")
        if self.embed_dim % self.num_heads:
            raise ValueError("embed_dim must be divisible by num_heads")

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.num_heads


# ---------------------------------------------------------------------------
# Integer matmul kernels
# ---------------------------------------------------------------------------

def _check_matmul_shapes(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"shape mismatch for matmul: {a.shape} x {b.shape}")
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:
        raise ValueError(f"shape mismatch for matmul: {a.shape} x {b.shape}") from None
    return a, b


def axx_matmul(a, b, lut) -> np.ndarray:
    """Integer matmul where each product is an approximate LUT lookup.

    Supports stacked matrices with matching leading dims, like np.matmul.
    Accumulation is exact 32-bit; only the multiplications are approximated.

    A rank-1 table (``lut.factors`` set) runs as one float64 matmul of the
    factor lookups, ``f[a] @ g[b]``, which is exact while every partial sum
    stays below 2**53. Any other table is gathered one inner index at a
    time, so temporaries stay the size of the output (or a few thousand
    entries, whichever is larger).
    """
    a, b = _check_matmul_shapes(a, b)
    lo, hi = -(1 << (lut.bitwidth - 1)), (1 << (lut.bitwidth - 1)) - 1
    if a.size and (a.min() < lo or a.max() > hi):
        raise ValueError(f"left operand out of range [{lo}, {hi}] for LUT")
    if b.size and (b.min() < lo or b.max() > hi):
        raise ValueError(f"right operand out of range [{lo}, {hi}] for LUT")
    ea, eb = lut.encode(a), lut.encode(b)
    depth = a.shape[-1]
    if lut.factors is not None and depth * lut.max_abs < _FLOAT_EXACT_LIMIT:
        f, g = lut.factors
        acc = np.matmul(f[ea], g[eb])
    else:
        flat = lut.entries.ravel()
        rows = ea << lut.bitwidth
        acc = np.zeros(np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
                       + (a.shape[-2], b.shape[-1]), dtype=np.int64)
        # one inner index per step; small outputs take several per step so
        # a long inner dimension does not turn into a long Python loop
        step = max(1, _GATHER_STEP_ELEMENTS // max(acc.size, 1))
        for t in range(0, depth, step):
            part = flat.take(rows[..., :, t:t + step, None] + eb[..., None, t:t + step, :])
            acc += part[..., 0, :] if step == 1 else part.sum(axis=-2, dtype=np.int64)
    if acc.size and max(acc.max(), -acc.min()) > _INT32_MAX:
        raise OverflowError("32-bit accumulator overflow in axx_matmul")
    return acc.astype(np.int32)


def exact_int_matmul(a, b) -> np.ndarray:
    """Exact integer matmul reference with 32-bit accumulators."""
    a, b = _check_matmul_shapes(a, b)
    acc = np.matmul(a.astype(np.int64), b.astype(np.int64))
    if acc.size and max(acc.max(), -acc.min()) > _INT32_MAX:
        raise OverflowError("32-bit accumulator overflow in exact_int_matmul")
    return acc.astype(np.int32)


def _matmul(x, y, qp_x: QuantParams | None, qp_y: QuantParams | None, lut) -> np.ndarray:
    """x @ y. With scales for both operands it quantizes them, multiplies and
    accumulates in integers (through the LUT, or the exact reference when
    ``lut`` is None) and dequantizes; with neither scale nor LUT it runs in
    real arithmetic."""
    if qp_x is None and qp_y is None and lut is None:
        return x @ y
    if qp_x is None or qp_y is None:
        raise RuntimeError("missing calibration scales for quantized matmul")
    qx = quantize(x, qp_x)
    qy = quantize(y, qp_y)
    acc = axx_matmul(qx, qy, lut) if lut is not None else exact_int_matmul(qx, qy)
    return acc.astype(np.float64) * (qp_x.scale * qp_y.scale)


def attn_weight_qparams(bitwidth: int) -> QuantParams:
    """Fixed scale for softmax outputs in [0, 1] before the value matmul."""
    return QuantParams(scale=1.0 / ((1 << (bitwidth - 1)) - 1), bitwidth=bitwidth)


# ---------------------------------------------------------------------------
# Real-arithmetic pieces
# ---------------------------------------------------------------------------

def softmax(x, axis=-1):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(x):
    # tanh approximation
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * x**3)))


def gelu_grad(x):
    inner = _GELU_C * (x + 0.044715 * x**3)
    t = np.tanh(inner)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * _GELU_C * (1.0 + 3 * 0.044715 * x**2)


def layer_norm(x, g, b, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    return g * xhat + b, (xhat, inv)


# ---------------------------------------------------------------------------
# Transformer building blocks
# ---------------------------------------------------------------------------

def linear_forward(x, w, b, qp_x, qp_w, lut):
    """x @ w + b, the matmul on quantized operands through the LUT; in real
    arithmetic when neither scales nor a LUT are given."""
    return _matmul(x, w, qp_x, qp_w, lut) + b


def attention_forward(q, k, v, d_k, qps, lut, collect=False):
    """Scaled dot-product attention with approximate integer matmuls.

    qps: dict with QuantParams for "q", "k", "v" plus "attn" for the softmax
    weights, or None for real arithmetic. Softmax itself runs in real
    arithmetic.
    """
    if q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2]:
        raise ValueError(f"attention shape mismatch: {q.shape}, {k.shape}, {v.shape}")
    qps = qps or {}
    scores = _matmul(q, np.swapaxes(k, -1, -2), qps.get("q"), qps.get("k"), lut) / np.sqrt(d_k)
    att = softmax(scores)
    out = _matmul(att, v, qps.get("attn"), qps.get("v"), lut)
    return (out, att) if collect else out


def _split_heads(t, num_heads):
    b, n, d = t.shape
    return t.reshape(b, n, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def _merge_heads(t):
    b, h, n, dk = t.shape
    return t.transpose(0, 2, 1, 3).reshape(b, n, h * dk)


def multi_head_forward(x, weights, num_heads, qps, lut, collect=False):
    """Multi-head self-attention: per-head attention then output projection.

    weights: dict with wq/bq, wk/bk, wv/bv, wo/bo. qps: QuantParams keyed by
    attn_in, wq, wk, wv, q, k, v, attn, attn_out, wo, or None for real
    arithmetic. The collected cache holds the tensor each activation
    quantizer sees, keyed by its role (q, k, v split into heads).
    """
    qps = qps or {}
    q, k, v = (_split_heads(linear_forward(x, weights["w" + r], weights["b" + r],
                                           qps.get("attn_in"), qps.get("w" + r), lut),
                            num_heads)
               for r in "qkv")
    ctx_h, att = attention_forward(q, k, v, q.shape[-1], qps, lut, collect=True)
    ctx = _merge_heads(ctx_h)
    out = linear_forward(ctx, weights["wo"], weights["bo"], qps.get("attn_out"),
                         qps.get("wo"), lut)
    if collect:
        return out, {"attn_in": x, "q": q, "k": k, "v": v, "attn": att, "attn_out": ctx}
    return out


def ffn_forward(x, w1, b1, w2, b2, qps, lut, collect=False):
    """Two quantized linears with an exact-arithmetic GELU in between.

    The collected cache holds ffn_in and ffn_mid, the linears' inputs, and
    ffn_h, the GELU input."""
    qps = qps or {}
    h = linear_forward(x, w1, b1, qps.get("ffn_in"), qps.get("w1"), lut)
    a = gelu(h)
    out = linear_forward(a, w2, b2, qps.get("ffn_mid"), qps.get("w2"), lut)
    if collect:
        return out, {"ffn_in": x, "ffn_h": h, "ffn_mid": a}
    return out


# ---------------------------------------------------------------------------
# The toy ViT
# ---------------------------------------------------------------------------

ACTIVATION_ROLES = ("attn_in", "q", "k", "v", "attn_out", "ffn_in", "ffn_mid")
WEIGHT_ROLES = ("wq", "wk", "wv", "wo", "w1", "w2")


class VitModel:
    """Weights, quantization scales and config for the toy vision transformer."""

    def __init__(self, cfg: ModelConfig, params: dict[str, np.ndarray],
                 scales: dict[str, float] | None = None, bitwidth: int = 8,
                 layer_norm_enabled: bool = True):
        self.cfg = cfg
        self.params = params
        self.scales = scales
        self.bitwidth = bitwidth
        self.layer_norm_enabled = layer_norm_enabled

    @property
    def calibrated(self) -> bool:
        return self.scales is not None

    def qparams(self, key: str) -> QuantParams:
        if self.scales is None:
            raise RuntimeError("model is not calibrated; run calibration first")
        return QuantParams(scale=self.scales[key], bitwidth=self.bitwidth)

    def block_qps(self, i: int) -> dict[str, QuantParams]:
        qps = {role: self.qparams(f"block{i}.{role}")
               for role in ACTIVATION_ROLES + WEIGHT_ROLES}
        qps["attn"] = attn_weight_qparams(self.bitwidth)
        return qps

    def block_weights(self, i: int) -> dict[str, np.ndarray]:
        p = self.params
        return {name: p[f"block{i}.{name}"]
                for name in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
                             "w1", "b1", "w2", "b2")}

    def copy(self) -> "VitModel":
        return VitModel(self.cfg, {k: v.copy() for k, v in self.params.items()},
                        None if self.scales is None else dict(self.scales),
                        self.bitwidth, self.layer_norm_enabled)


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter, in initialization order."""
    d, df = cfg.embed_dim, cfg.ffn_dim
    shapes = {"embed.w": (cfg.patch_dim, d), "embed.b": (d,)}
    for i in range(cfg.num_layers):
        p = f"block{i}."
        shapes.update({p + "ln1.g": (d,), p + "ln1.b": (d,)})
        for r in "qkvo":
            shapes.update({p + "w" + r: (d, d), p + "b" + r: (d,)})
        shapes.update({p + "ln2.g": (d,), p + "ln2.b": (d,), p + "w1": (d, df),
                       p + "b1": (df,), p + "w2": (df, d), p + "b2": (d,)})
    shapes.update({"head.w": (d, cfg.num_classes), "head.b": (cfg.num_classes,)})
    return shapes


def init_model(cfg: ModelConfig, seed: int = 0, bitwidth: int = 8) -> VitModel:
    """Normal(0, 1/fan_in) weight matrices, zero biases, unit LayerNorm gains."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in param_shapes(cfg).items():
        if len(shape) == 2:
            params[name] = rng.normal(0.0, 1.0 / np.sqrt(shape[0]), size=shape)
        else:
            params[name] = np.ones(shape) if name.endswith(".g") else np.zeros(shape)
    return VitModel(cfg, params, bitwidth=bitwidth)


def resolve_luts(assignment, catalog):
    return [catalog.lut(name) for name in assignment]


def check_assignment(model: VitModel, assignment) -> None:
    if len(assignment) != model.cfg.num_layers:
        raise ValueError(f"assignment length {len(assignment)} != "
                         f"num_layers {model.cfg.num_layers}")


def vit_forward(model: VitModel, patches, luts=None, quantized=True, collect=False):
    """Full forward pass: exact patch embedding, L approximated blocks,
    mean pool, exact classifier head.

    luts: per-block ProductLut list, or None for the exact integer reference
    path (only meaningful when quantized). Returns logits, or (logits, cache)
    when collect is set. The cache holds patches, pooled and, under
    "blocks", one dict per block keyed by quantization role (see
    ACTIVATION_ROLES, plus attn and ffn_h) and ln1/ln2 when LayerNorm is on.
    """
    cfg = model.cfg
    p = model.params
    patches = np.asarray(patches, dtype=np.float64)
    if patches.shape[1:] != (cfg.num_patches, cfg.patch_dim):
        raise ValueError(f"expected patches [N, {cfg.num_patches}, {cfg.patch_dim}], "
                         f"got {patches.shape}")
    if quantized and not model.calibrated:
        raise RuntimeError("model is not calibrated; run calibration first")
    if luts is not None and len(luts) != cfg.num_layers:
        raise ValueError("need one LUT per transformer block")

    cache = {"patches": patches, "blocks": []}
    x = patches @ p["embed.w"] + p["embed.b"]
    for i in range(cfg.num_layers):
        bw = model.block_weights(i)
        qps = model.block_qps(i) if quantized else None
        lut = luts[i] if (quantized and luts is not None) else None
        bc = {}
        h = x
        if model.layer_norm_enabled:
            h, bc["ln1"] = layer_norm(x, p[f"block{i}.ln1.g"], p[f"block{i}.ln1.b"])
        attn_out, mha = multi_head_forward(h, bw, cfg.num_heads, qps, lut, collect=True)
        x = x + attn_out
        h2 = x
        if model.layer_norm_enabled:
            h2, bc["ln2"] = layer_norm(x, p[f"block{i}.ln2.g"], p[f"block{i}.ln2.b"])
        ffn_out, ffc = ffn_forward(h2, bw["w1"], bw["b1"], bw["w2"], bw["b2"],
                                   qps, lut, collect=True)
        x = x + ffn_out
        bc.update(mha)
        bc.update(ffc)
        cache["blocks"].append(bc)
    pooled = x.mean(axis=1)
    logits = pooled @ p["head.w"] + p["head.b"]
    cache["pooled"] = pooled
    return (logits, cache) if collect else logits


def evaluate_accuracy(model: VitModel, patches, labels, assignment=None,
                      catalog=None, batch_limit=None, batch_size=64,
                      use_lut=True) -> float:
    """Top-1 accuracy on the (optionally truncated) labeled dataset."""
    patches = np.asarray(patches)
    labels = np.asarray(labels)
    if batch_limit is not None:
        patches, labels = patches[:batch_limit], labels[:batch_limit]
    if patches.shape[0] == 0:
        raise ValueError("empty dataset")
    luts = None
    if assignment is not None and use_lut:
        check_assignment(model, assignment)
        luts = resolve_luts(assignment, catalog)
    correct = 0
    for start in range(0, patches.shape[0], batch_size):
        logits = vit_forward(model, patches[start:start + batch_size], luts)
        correct += int((logits.argmax(axis=1) == labels[start:start + batch_size]).sum())
    return correct / patches.shape[0]


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def calibrate(model: VitModel, patches, percentile: float = 99.9,
              num_bins: int = 2048, batch_size: int = 64) -> dict[str, float]:
    """Histogram-calibrate activation scales from a float forward pass and
    max-calibrate weight scales. Stores the scale map on the model."""
    cals = {f"block{i}.{role}": HistogramCalibrator(num_bins, percentile)
            for i in range(model.cfg.num_layers) for role in ACTIVATION_ROLES}
    patches = np.asarray(patches)
    for start in range(0, patches.shape[0], batch_size):
        _, cache = vit_forward(model, patches[start:start + batch_size],
                               quantized=False, collect=True)
        for i, bc in enumerate(cache["blocks"]):
            for role in ACTIVATION_ROLES:
                cals[f"block{i}.{role}"].observe(bc[role])
    model.scales = {key: cal.compute_scale(model.bitwidth).scale for key, cal in cals.items()}
    refresh_weight_scales(model)
    return model.scales


def refresh_weight_scales(model: VitModel) -> None:
    """Max-calibrate every weight scale from the current weights."""
    for i in range(model.cfg.num_layers):
        for role in WEIGHT_ROLES:
            key = f"block{i}.{role}"
            model.scales[key] = max_scale(model.params[key], model.bitwidth).scale


# ---------------------------------------------------------------------------
# Checkpoint format: magic, version byte, u32 header length, JSON header
# (config, bitwidth, tensor names/shapes, scale map), then the tensors as
# little-endian float64 in header order, so a loaded model equals the saved
# one bit for bit (weight scales included).
# ---------------------------------------------------------------------------

def save_checkpoint(model: VitModel, path: str) -> None:
    names = sorted(model.params)
    header = {
        "config": asdict(model.cfg),
        "bitwidth": model.bitwidth,
        "tensors": [{"name": n, "shape": list(model.params[n].shape)} for n in names],
        "scales": model.scales,
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<BI", CHECKPOINT_VERSION, len(blob)))
        f.write(blob)
        for n in names:
            f.write(model.params[n].astype("<f8").tobytes(order="C"))


def load_checkpoint(path: str) -> VitModel:
    with open(path, "rb") as f:
        if f.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not an axvit checkpoint (bad magic)")
        prefix = f.read(5)
        if len(prefix) != 5:
            raise ValueError(f"{path}: truncated checkpoint header")
        version, hlen = struct.unpack("<BI", prefix)
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        blob = f.read(hlen)
        if len(blob) != hlen:
            raise ValueError(f"{path}: truncated checkpoint header")
        data = f.read()
    try:
        header = json.loads(blob)
        cfg = ModelConfig(**header["config"])
        tensors = [(t["name"], tuple(t["shape"])) for t in header["tensors"]]
        bitwidth, scales = header["bitwidth"], header["scales"]
    except (ValueError, TypeError, KeyError) as exc:
        raise ValueError(f"{path}: malformed checkpoint header ({exc!r})") from None
    if type(bitwidth) is not int or bitwidth < 2:
        raise ValueError(f"{path}: bitwidth must be an integer >= 2, got {bitwidth!r}")
    shapes = sorted(param_shapes(cfg).items())
    if tensors != shapes:
        raise ValueError(f"{path}: tensor names or shapes do not match the config")
    keys = {f"block{i}.{r}" for i in range(cfg.num_layers) for r in ACTIVATION_ROLES + WEIGHT_ROLES}
    if scales is not None and not (isinstance(scales, dict) and set(scales) == keys and all(
            isinstance(v, float) and v > 0 for v in scales.values())):
        raise ValueError(f"{path}: scale map is not one positive scale per quantizer")
    sizes = [int(np.prod(shape)) for _, shape in shapes]
    if len(data) != 8 * sum(sizes):
        raise ValueError(f"{path}: {len(data)} bytes of tensor data, "
                         f"the header needs {8 * sum(sizes)}")
    flat = np.split(np.frombuffer(data, dtype="<f8"), np.cumsum(sizes)[:-1])
    params = {name: t.reshape(shape).astype(np.float64) for (name, shape), t in zip(shapes, flat)}
    return VitModel(cfg, params, scales=scales, bitwidth=bitwidth)
