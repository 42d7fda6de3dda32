"""Minimal dense transformer engine with swappable integer multipliers.

Every matrix multiply inside multi-head attention and the FFN runs on
quantized operands, and each scalar product is the one a product LUT holds
(or the exact one when no LUT is given). A behavioral multiplier's product
is computed in closed form on operands prepared with its truncations;
integer operands are gathered from the table, row by row of the weight
operand when enough rows of the other share it. Softmax, LayerNorm, GELU,
residual adds, the patch embedding and the classifier head stay in real
arithmetic.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, asdict

import numpy as np

from .multipliers import MAX_LUT_BITWIDTH
from .quant import (DEFAULT_NUM_BINS, DEFAULT_PERCENTILE, HistogramCalibrator,
                    QuantParams, max_scale, quantize, saturate)

CHECKPOINT_MAGIC = b"AXVITCK"
CHECKPOINT_VERSION = 2

_INT32_MIN, _INT32_MAX = -2**31, 2**31 - 1
_FLOAT_EXACT_LIMIT = 2**53  # float64 holds every integer of smaller magnitude
_LN_EPS = 1e-5
BATCH = 64  # samples per forward pass in evaluation and calibration


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


# ---------------------------------------------------------------------------
# Integer matmul kernels
# ---------------------------------------------------------------------------

def _check_matmul_shapes(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"shape mismatch for matmul: {a.shape} x {b.shape}")
    if a.ndim > 2 and b.ndim > 2:  # a 2-D operand broadcasts against any stack
        try:
            np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        except ValueError:
            raise ValueError(f"shape mismatch for matmul: {a.shape} x {b.shape}") from None
    return a, b


def _check_int32(acc, kernel: str):
    """Raises if a sum of the accumulator is outside int32's range."""
    if acc.size and (acc.min() < _INT32_MIN or acc.max() > _INT32_MAX):
        raise OverflowError(f"32-bit accumulator overflow in {kernel}")


class PreparedOperand:
    """One operand of a closed-form product, as ``prepare_operand`` builds
    it: the integers ``trunc(quantize(x, qp), k)`` held exactly in a float64
    array (``values``), with the bitwidth ``qp`` quantized to and the ``k``
    LSBs masked. ``axx_matmul`` takes a pair of them only for a behavioral
    table with those truncations and at least that bitwidth; a float
    ndarray, which numpy arithmetic can produce anywhere, is still rejected
    by dtype. ``shape`` is the values' shape."""

    __slots__ = ("values", "bitwidth", "k")

    def __init__(self, values: np.ndarray, bitwidth: int, k: int):
        self.values, self.bitwidth, self.k = values, bitwidth, k

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape


def prepare_operand(x, qp: QuantParams, k: int = 0) -> PreparedOperand:
    """x quantized by qp with its k LSBs masked, in one new C-ordered
    float64 array of x's shape: quantize's steps (``saturate``),
    ``np.trunc`` for its cast toward zero, then ``floor(q * 2**-k) * 2**k``
    for ``_truncate``'s shifts. Every step is exact on integers below 2**53,
    so the values equal ``_truncate(quantize(x, qp), k)``."""
    q = saturate(x, qp)
    np.trunc(q, out=q)
    if k:
        q *= 2.0 ** -k
        np.floor(q, out=q)
        q *= 2.0 ** k
    return PreparedOperand(q, qp.bitwidth, k)


def _prepares(lut, bitwidth: int, depth: int) -> bool:
    """Whether operands of ``bitwidth`` bits and inner dimension ``depth``
    are prepared for lut's closed form: a behavioral table whose range holds
    them, below the float64 bound. This is the one statement of the rule:
    ``_operand`` prepares by it and ``axx_matmul`` checks a prepared pair by
    it. Any other table, or no table, takes int32 operands from
    ``quantize``."""
    return (lut is not None and lut.truncations is not None and lut.bitwidth >= bitwidth
            and depth * lut.max_abs < _FLOAT_EXACT_LIMIT)


def axx_matmul(a, b, lut) -> np.ndarray:
    """Integer matmul where each product is an approximate LUT lookup.

    Supports stacked matrices with matching leading dims, like np.matmul.
    Accumulation is exact 32-bit; only the multiplications are approximated.
    The operands' type picks one of two kernels.

    A pair of ``PreparedOperand`` runs in closed form. The table must be
    behavioral (``lut.truncations = (kx, ky)``, as ``build_lut`` gives every
    exact, truncating and perforating multiplier), the pair's truncations
    ``(kx, ky)`` and ``_prepares`` must allow its bitwidth and depth, so its
    values are ``trunc(a, kx)`` and ``trunc(b, ky)``. One float64 matmul of
    them is exact while every partial sum stays below 2**53, and the float64
    accumulator is returned as it is: its values are the exact integer sums.

    Integer arrays are range-checked and gathered, whatever the table, one
    inner index ``t`` at a time, adding one ``M x N`` slab of products per
    step:

    - the row slab, when ``b`` is one matrix (2-D) shared by at least
      ``2**lut.bitwidth`` rows of ``a``: ``T[lo_t:hi_t + 1, b[t]]`` holds the
      products of ``b``'s row ``t`` with every value that ``a``'s column
      ``t`` spans, ``lo_t`` to ``hi_t`` (both read once per call), and each
      row of ``a`` picks its own. That slice has no more entries than the
      output slab, and no table of every weight's products is ever built;
    - the flat lookup otherwise (batched ``b``, such as attention scores, or
      fewer rows): ``T[a[..., t], b[t]]`` directly, so temporaries stay the
      size of the output.

    No sum can leave int32 while ``depth * lut.max_abs`` fits it, so the
    accumulator is int32 then; past that, the accumulator (int64, or the
    closed form's float64) is scanned.
    """
    if isinstance(a, PreparedOperand) or isinstance(b, PreparedOperand):
        if not (isinstance(a, PreparedOperand) and isinstance(b, PreparedOperand)
                and (a.k, b.k) == lut.truncations
                and _prepares(lut, max(a.bitwidth, b.bitwidth), a.shape[-1])):
            raise ValueError("prepared operands do not match the product table")
        if a.values.ndim < 2 or b.values.ndim < 2:  # np.matmul takes 1-D operands
            raise ValueError(f"shape mismatch for matmul: {a.shape} x {b.shape}")
        try:  # np.matmul checks the inner and stacked dimensions itself
            acc = np.matmul(a.values, b.values)
        except ValueError:
            raise ValueError(f"shape mismatch for matmul: {a.shape} x {b.shape}") from None
        if a.shape[-1] * lut.max_abs > _INT32_MAX:
            _check_int32(acc, "axx_matmul")
        return acc
    a, b = _check_matmul_shapes(a, b)
    depth = a.shape[-1]
    bound = depth * lut.max_abs
    ea, eb = lut.encode(a), lut.encode(b)
    acc = np.zeros(np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
                   + (a.shape[-2], b.shape[-1]),
                   dtype=np.int32 if bound <= _INT32_MAX else np.int64)
    m = math.prod(a.shape[:-1])  # rows of a in all
    if b.ndim == 2 and m >= 1 << lut.bitwidth:
        # step t reads only the table rows that a's column t reaches, lo..hi;
        # acc is new and C-ordered, so out is a view of it
        cols, out = ea.reshape(m, depth), acc.reshape(m, b.shape[-1])
        lo = np.minimum.reduce(cols, axis=0)
        hi = np.maximum.reduce(cols, axis=0) + 1
        cols -= lo
        for t, (r0, r1) in enumerate(zip(lo.tolist(), hi.tolist())):
            out += lut.entries[r0:r1].take(eb[t], axis=1).take(cols[:, t], axis=0)
    else:
        flat, rows = lut.entries.ravel(), ea << lut.bitwidth
        for t in range(depth):
            acc += flat.take(rows[..., t:t + 1] + eb[..., t:t + 1, :])
    if bound <= _INT32_MAX:
        return acc
    _check_int32(acc, "axx_matmul")
    return acc.astype(np.int32)


def _max_abs(x) -> int:
    return max(int(x.max(initial=0)), -int(x.min(initial=0)))


def exact_int_matmul(a, b) -> np.ndarray:
    """Exact integer matmul reference with 32-bit accumulators: one float64
    BLAS matmul, whose float64 accumulator is returned; raises if a sum is
    outside int32. It needs ``depth * max|a| * max|b| < 2**53``, from the
    operands' own extremes, so that every partial sum is an integer float64
    holds and the sums are exact in any order; past that bound it raises
    ValueError. A model's operands have at most MAX_LUT_BITWIDTH bits, so
    no forward pass comes near it."""
    a, b = _check_matmul_shapes(a, b)
    if a.dtype.kind not in "iu" or b.dtype.kind not in "iu":
        raise ValueError(f"operands must be integers, got {a.dtype} x {b.dtype}")
    if a.shape[-1] * _max_abs(a) * _max_abs(b) >= _FLOAT_EXACT_LIMIT:
        raise ValueError("operands past the float64 bound in exact_int_matmul: "
                         "depth * max|a| * max|b| reaches 2**53")
    acc = np.matmul(a, b, dtype=np.float64)
    _check_int32(acc, "exact_int_matmul")
    return acc


def _operand(x, qp: QuantParams, lut, side: int):
    """x quantized as operand ``side`` (0 for a, 1 for b) of a product
    through lut: prepared for its closed form where ``_prepares`` allows it,
    with the inner dimension read from x's shape, or int32 from ``quantize``."""
    if _prepares(lut, qp.bitwidth, np.shape(x)[-1 - side]):
        return prepare_operand(x, qp, lut.truncations[side])
    return quantize(x, qp)


def _dequantized_product(a, b, lut, scale) -> np.ndarray:
    """The product of two quantized operands, through the LUT (or the exact
    reference when ``lut`` is None), times ``scale``: a scalar, or one scale
    per output column. A float64 accumulator (the closed form's or the
    exact reference's) is scaled in place; an int32 one into a new float64
    array."""
    acc = axx_matmul(a, b, lut) if lut is not None else exact_int_matmul(a, b)
    if acc.dtype == np.float64:
        acc *= scale
        return acc
    return np.multiply(acc, scale, dtype=np.float64)


def _matmul(x, y, qp_x: QuantParams | None, qp_y: QuantParams | None, lut) -> np.ndarray:
    """x @ y. With scales for both operands it quantizes them, multiplies and
    accumulates in integers (through the LUT, or the exact reference when
    ``lut`` is None) and dequantizes; with neither scale nor LUT it runs in
    real arithmetic."""
    if qp_x is None and qp_y is None and lut is None:
        return x @ y
    return _dequantized_product(_operand(x, qp_x, lut, 0), _operand(y, qp_y, lut, 1), lut,
                                qp_x.scale * qp_y.scale)


def attn_weight_qparams(bitwidth: int) -> QuantParams:
    """Fixed scale for softmax outputs in [0, 1] before the value matmul."""
    return QuantParams.from_clip(1.0, bitwidth)


# ---------------------------------------------------------------------------
# Real-arithmetic pieces
# ---------------------------------------------------------------------------

def _column_sums(t):
    """``np.add.reduce`` of each column of the 2-D t, bit for bit that of the
    column as one contiguous row wherever at most one NaN can arise in it:
    the additions of numpy's pairwise sum along a row, each one a ufunc call
    over every column. Below 8 entries, one by one from +0.0; up to 128,
    8 interleaved partial sums, their fixed tree, then the remainder; past
    128, the sums of the halves split at a multiple of 8. numpy's reduction
    adds its sum to +0.0, so every sum up to 128 entries is added to +0.0
    here: that turns -0.0 into +0.0 and leaves any other sum, and so any
    sum of halves, as it is."""
    n = len(t)
    if n < 8:
        s = t[0] + 0.0
        for i in range(1, n):
            s += t[i]
        return s
    if n <= 128:
        m = n - n % 8
        r = t[:8] if m == 8 else t[:8] + t[8:16]
        for i in range(16, m, 8):
            r += t[i:i + 8]
        r = r[0::2] + r[1::2]  # (r0+r1), (r2+r3), (r4+r5), (r6+r7)
        r = r[0::2] + r[1::2]
        s = r[0] + r[1]
        for i in range(m, n):
            s += t[i]
        s += 0.0
        return s
    h = n // 2 - n // 2 % 8
    s = _column_sums(t[:h])
    s += _column_sums(t[h:])
    return s


def softmax(x):
    """Softmax over the last axis, bit for bit the row reductions of a
    C-ordered x (``tests/oracles.softmax_out_of_place``), computed on one
    C-ordered copy of the rows as columns: each step is then one ufunc call
    over every row, where numpy's row reductions loop once per short row.
    The max is order-free except for which NaN it returns, so only rows
    whose max is NaN take numpy's row reduction; ``_column_sums`` keeps
    numpy's order of the sums. A row whose max is NaN is NaN throughout, so
    its division keeps the numerators' NaNs whatever NaN its sum holds.
    Returns a new C-ordered array; x is only read."""
    n = x.shape[-1]
    t = x.reshape(-1, n).T.copy()  # a copy even where the view is C-ordered
    m = np.maximum.reduce(t, axis=0)
    nan = np.isnan(m)
    if nan.any():
        m[nan] = np.maximum.reduce(x.reshape(-1, n)[nan], axis=-1)
    t -= m
    del m, nan
    np.exp(t, out=t)
    s = _column_sums(t)
    t /= s
    del s  # only t and the result are alive at the copy back
    # one array of x's shape that owns its data: a reshaped view of the copy
    # would keep a second array object alive as long as the result
    return np.ascontiguousarray(t.T.reshape(x.shape))


_GELU_C = np.sqrt(2.0 / np.pi)


def _gelu_tanh(x):
    """tanh(sqrt(2/pi) * (x + 0.044715 x^3)), the cube as two products:
    numpy's general power loop is about a hundred times slower, and its
    last bit depends on the CPU's SIMD dispatch. Each step after the first
    product, and the tanh, runs in place on its one new array; IEEE sums and
    products commute, so ``u *= c`` equals ``c * u`` bit for bit."""
    u = x * x
    u *= x
    u *= 0.044715
    u += x
    u *= _GELU_C
    return np.tanh(u, out=u) if isinstance(u, np.ndarray) else np.tanh(u)


def gelu(x, t=None):
    """tanh-approximation GELU, ``0.5 * x * (1 + t)``; t, when given, is
    ``_gelu_tanh(x)`` and is only read. Without t the tanh term is computed
    here and the result is formed in its array."""
    if t is None:
        y = _gelu_tanh(x)
        y += 1.0
    else:
        y = 1.0 + t
    # (0.5 * x) stays the first factor: a product of two NaNs keeps its payload
    return np.multiply(0.5 * x, y, out=y if isinstance(y, np.ndarray) else None)


def gelu_grad(x, t):
    """Derivative of ``gelu``; t is ``_gelu_tanh(x)``."""
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3 * 0.044715 * (x * x))


def _row_mean(x):
    """x.mean(axis=-1, keepdims=True) in numpy's own steps (a sum divided by
    the count), without its Python wrappers."""
    m = np.add.reduce(x, axis=-1, keepdims=True)
    m /= x.shape[-1]
    return m


def layer_norm(x, g, b):
    # the variance of the centred input, in np.var's own steps; the centred
    # array is then scaled in place, so no second copy of x stays alive
    xhat = x - _row_mean(x)
    inv = 1.0 / np.sqrt(_row_mean(xhat * xhat) + _LN_EPS)
    xhat *= inv
    return g * xhat + b, (xhat, inv)


# ---------------------------------------------------------------------------
# Transformer building blocks
# ---------------------------------------------------------------------------

def attention_forward(q, k, v, qps, lut):
    """Scaled dot-product attention with approximate integer matmuls.

    qps: dict with QuantParams for "q", "k", "v" plus "attn" for the softmax
    weights, or None for real arithmetic. Softmax itself runs in real
    arithmetic. Returns the output and the softmax weights.
    """
    if q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2]:
        raise ValueError(f"attention shape mismatch: {q.shape}, {k.shape}, {v.shape}")
    qps = qps or {}
    # one expression: a named or in-place scaled copy raised peak RSS by 0.6 MB
    att = softmax(_matmul(q, np.swapaxes(k, -1, -2), qps.get("q"), qps.get("k"), lut)
                  / np.sqrt(q.shape[-1]))
    return _matmul(att, v, qps.get("attn"), qps.get("v"), lut), att


def _split_heads(t, num_heads):
    b, n, d = t.shape
    return t.reshape(b, n, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def _merge_heads(t):
    b, h, n, dk = t.shape
    return t.transpose(0, 2, 1, 3).reshape(b, n, h * dk)


# ---------------------------------------------------------------------------
# The toy ViT
# ---------------------------------------------------------------------------

ACTIVATION_ROLES = ("attn_in", "q", "k", "v", "attn_out", "ffn_in", "ffn_mid")
WEIGHT_ROLES = ("wq", "wk", "wv", "wo", "w1", "w2")


class VitModel:
    """Weights, quantization scales and config for the toy vision transformer."""

    def __init__(self, cfg: ModelConfig, params: dict[str, np.ndarray],
                 scales: dict[str, float] | None = None, bitwidth: int = 8):
        # at most the table cap, so every model has an exact table
        if type(bitwidth) is not int or not 2 <= bitwidth <= MAX_LUT_BITWIDTH:
            raise ValueError(f"bitwidth must be an integer in [2, {MAX_LUT_BITWIDTH}], "
                             f"got {bitwidth!r}")
        self.cfg = cfg
        self.params = params
        self.scales = scales
        self.bitwidth = bitwidth

    def qparams(self, key: str) -> QuantParams:
        if self.scales is None:
            raise RuntimeError("model is not calibrated; run calibration first")
        return QuantParams(scale=self.scales[key], bitwidth=self.bitwidth)

    def block_qps(self, i: int) -> dict[str, QuantParams]:
        qps = {role: self.qparams(f"block{i}.{role}")
               for role in ACTIVATION_ROLES + WEIGHT_ROLES}
        qps["attn"] = attn_weight_qparams(self.bitwidth)
        return qps

    def copy(self) -> "VitModel":
        return VitModel(self.cfg, {k: v.copy() for k, v in self.params.items()},
                        None if self.scales is None else dict(self.scales),
                        self.bitwidth)


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


# the weights that read each activation role, in the block's order
_LINEAR_WEIGHTS = {"attn_in": ("wq", "wk", "wv"), "attn_out": ("wo",),
                  "ffn_in": ("w1",), "ffn_mid": ("w2",)}


def block_weights(model: VitModel, i: int, qps, lut) -> dict[str, tuple]:
    """Block i's weight operands for ``block_forward`` with these qps and
    lut: activation role -> (operand, dequantization scale, bias) of the
    weights that read it, ``[wq|wk|wv]`` and ``[bq|bk|bv]`` for ``attn_in``.

    In real arithmetic (qps None) the operand is the concatenated weights
    and the scale is None. Quantized, each weight is quantized by its own
    scale (prepared for lut's closed form, or int32), and the dequantization
    scale is ``sx * sw``: one float for a role that one weight reads
    (``attn_out``, ``ffn_in``, ``ffn_mid``), one value per output column for
    ``[wq|wk|wv]``. Operands are read-only copies
    of the weights and scales of this moment, so they must not be used
    after either changes.
    """
    p, pre = model.params, f"block{i}."
    weights = {}
    for role, names in _LINEAR_WEIGHTS.items():
        ops = [p[pre + n] if qps is None else _operand(p[pre + n], qps[n], lut, 1)
               for n in names]
        if isinstance(ops[0], PreparedOperand):
            w = PreparedOperand(np.concatenate([o.values for o in ops], axis=1),
                                ops[0].bitwidth, ops[0].k)
            w.values.flags.writeable = False
        else:
            w = np.concatenate(ops, axis=1)
            w.flags.writeable = False
        if qps is None:
            scale = None
        elif len(names) == 1:  # a float: ``acc *= scale`` runs numpy's scalar loop
            scale = qps[role].scale * qps[names[0]].scale
        else:
            scale = np.concatenate([np.full(p[pre + n].shape[1], qps[role].scale * qps[n].scale)
                                    for n in names])
        weights[role] = (w, scale, np.concatenate([p[pre + "b" + n[1:]] for n in names]))
    return weights


def block_forward(model: VitModel, i: int, x, plan, collect=False):
    """Pre-norm transformer block i: y = x + MHA(LN1(x)), out = y + FFN(LN2(y)).

    plan: block i's ``block_plan`` entry ``(qps, lut, weights)``: the block's
    QuantParams (``model.block_qps(i)``), or None for real arithmetic; its
    ProductLut, or None for the exact integer reference; and
    ``block_weights(model, i, qps, lut)``.
    x is only read, never written. Returns the block output, or (output,
    cache) when collect is set. The cache holds the tensor each activation
    quantizer sees, keyed by role (ACTIVATION_ROLES; q, k, v split into
    heads), plus the softmax weights (attn), the GELU input (ffn_h), its
    tanh term (ffn_t, which the backward reuses) and the LayerNorm caches
    (ln1, ln2). Intermediates live only when collected: otherwise each one is
    freed at its last use, so a block holds a few activations at a time.

    q, k and v are column blocks of one product of the ``attn_in`` operand
    with ``[wq|wk|wv]``; quantized, every output column is an exact integer
    dot product times its own scale, so they equal three separate products.
    """
    p = model.params
    pre = f"block{i}."
    qps, lut, weights = plan
    cache = {}
    keep = cache.update if collect else lambda **_: None

    def linear(t, role):
        w, scale, b = weights[role]
        if qps is None:
            y = t @ w
        else:
            a = _operand(t, qps[role], lut, 0)
            y = _dequantized_product(a, w, lut, scale)
        y += b  # y is the product's own new array
        return y

    h, ln1 = layer_norm(x, p[pre + "ln1.g"], p[pre + "ln1.b"])
    keep(ln1=ln1, attn_in=h)
    del ln1
    y, d = linear(h, "attn_in"), model.cfg.embed_dim
    q, k, v = (_split_heads(y[..., j:j + d], model.cfg.num_heads) for j in range(0, 3 * d, d))
    del h, y
    ctx, att = attention_forward(q, k, v, qps, lut)
    keep(q=q, k=k, v=v, attn=att)
    del q, k, v, att
    ctx = _merge_heads(ctx)
    x = x + linear(ctx, "attn_out")  # a new array: the input stays as it was
    keep(attn_out=ctx)
    del ctx
    h, ln2 = layer_norm(x, p[pre + "ln2.g"], p[pre + "ln2.b"])
    keep(ln2=ln2, ffn_in=h)
    del ln2
    hf = linear(h, "ffn_in")
    del h
    t = _gelu_tanh(hf) if collect else None  # lean: gelu's own tanh, formed in place
    keep(ffn_h=hf, ffn_t=t)
    a = gelu(hf, t)
    del hf, t
    keep(ffn_mid=a)
    x += linear(a, "ffn_mid")
    return (x, cache) if collect else x


def block_plan(model: VitModel, i: int, lut, quantized=True) -> tuple:
    """Block i's ``(qps, lut, weights)`` for ``block_forward``, built once for
    any number of chunks: ``model.block_qps(i)``, the block's ProductLut (None
    for the exact integer reference) and its ``block_weights``; or
    ``(None, None, float weights)`` in real arithmetic."""
    qps, lut = (model.block_qps(i), lut) if quantized else (None, None)
    return qps, lut, block_weights(model, i, qps, lut)


def run_blocks(model: VitModel, plan, xs, first=0, observe=None):
    """The block loop of every forward pass: runs each chunk of xs, the
    input of block ``first``, through blocks ``first`` to ``len(plan) - 1``
    by their ``block_plan`` entries and yields its output, one chunk at a
    time. With observe, the blocks collect and ``observe(i, cache)`` sees
    block i's cache, which stays alive until block i+1 has returned."""
    for x in xs:
        for i in range(first, len(plan)):
            if observe is None:
                x = block_forward(model, i, x, plan[i])
            else:
                x, cache = block_forward(model, i, x, plan[i], collect=True)
                observe(i, cache)
        yield x


def forward_inputs(model: VitModel, patches, luts=None) -> np.ndarray:
    """The input checks of a forward pass: returns the patches as float64 after
    checking their shape, that there is a sample and the LUT count
    (``block_qps`` checks calibration)."""
    cfg = model.cfg
    patches = np.asarray(patches, dtype=np.float64)
    if patches.shape[1:] != (cfg.num_patches, cfg.patch_dim):
        raise ValueError(f"expected patches [N, {cfg.num_patches}, {cfg.patch_dim}], "
                         f"got {patches.shape}")
    if len(patches) == 0:
        raise ValueError("empty dataset")
    if luts is not None and len(luts) != cfg.num_layers:
        raise ValueError(f"need one LUT per transformer block: assignment length "
                         f"{len(luts)} != num_layers {cfg.num_layers}")
    return patches


def embed(model: VitModel, patches) -> np.ndarray:
    """Exact patch embedding, the input of block 0."""
    return patches @ model.params["embed.w"] + model.params["embed.b"]


def embedded_chunks(model: VitModel, patches, size: int):
    """The embedded input of each ``size``-sample chunk of patches, each one
    made when it is read."""
    return (embed(model, patches[s:s + size]) for s in range(0, len(patches), size))


def pool_head(model: VitModel, x):
    """Mean pool over the tokens and exact classifier head: (logits, pooled)."""
    pooled = x.mean(axis=1)
    return pooled @ model.params["head.w"] + model.params["head.b"], pooled


def predictions(model: VitModel, x) -> np.ndarray:
    """The top-1 class of each sample from the last block's output. Raises
    when a logit is not finite (an activation overflowed), where argmax
    would pick an arbitrary class."""
    logits, _ = pool_head(model, x)
    if not np.isfinite(logits).all():
        raise ValueError("the forward pass gave non-finite logits: an activation overflowed")
    return logits.argmax(axis=1)


def vit_forward(model: VitModel, patches, luts=None, quantized=True, collect=False):
    """Full forward pass in stages: input checks (``forward_inputs``), exact
    patch embedding (``embed``), L approximated blocks (``run_blocks``, one
    chunk), mean pool and exact classifier head (``pool_head``).

    luts: per-block ProductLut list, or None for the exact integer reference
    path (only meaningful when quantized). Returns logits, or (logits, cache)
    when collect is set. The cache holds patches, pooled, under "blocks"
    each block's ``block_forward`` cache and under "qps" each block's plan
    QuantParams (None in real arithmetic).
    """
    patches = forward_inputs(model, patches, luts)
    plan = [block_plan(model, i, lut, quantized)
            for i, lut in enumerate(luts or [None] * model.cfg.num_layers)]
    blocks = []
    (x,) = run_blocks(model, plan, embedded_chunks(model, patches, len(patches)),
                      observe=(lambda i, cache: blocks.append(cache)) if collect else None)
    logits, pooled = pool_head(model, x)
    if collect:
        return logits, {"patches": patches, "blocks": blocks, "pooled": pooled,
                        "qps": [qps for qps, _, _ in plan]}
    return logits


def check_labels(model: VitModel, patches, labels) -> None:
    """Raises unless labels holds one of model's classes, an integer in
    ``[0, num_classes)``, per sample of patches."""
    labels = np.asarray(labels)
    if labels.shape != np.shape(patches)[:1]:
        raise ValueError(f"labels of shape {labels.shape} for {len(patches)} samples")
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, got {labels.dtype}")
    n = model.cfg.num_classes
    if labels.size and (labels.min() < 0 or labels.max() >= n):
        raise ValueError(f"labels span [{labels.min()}, {labels.max()}], "
                         f"outside the model's {n} classes [0, {n - 1}]")


def top1_accuracy(model: VitModel, outs, labels, size: int) -> float:
    """The share of labels predicted right by outs, the last block's outputs
    of consecutive ``size``-sample chunks."""
    correct = sum(int((predictions(model, x) == labels[s:s + size]).sum())
                  for s, x in zip(range(0, len(labels), size), outs))
    return correct / len(labels)


def evaluate_accuracy(model: VitModel, patches, labels, assignment=None,
                      catalog=None, batch_size=BATCH) -> float:
    """Top-1 accuracy on the labeled dataset, ``batch_size`` samples per
    chunk; each block's plan is built once for all the chunks."""
    labels = np.asarray(labels)
    check_labels(model, patches, labels)
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    luts = None if assignment is None else [catalog.lut(n) for n in assignment]
    patches = forward_inputs(model, patches, luts)
    plan = [block_plan(model, i, lut)
            for i, lut in enumerate(luts or [None] * model.cfg.num_layers)]
    outs = run_blocks(model, plan, embedded_chunks(model, patches, batch_size))
    return top1_accuracy(model, outs, labels, batch_size)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def calibrate(model: VitModel, patches, percentile: float = DEFAULT_PERCENTILE,
              num_bins: int = DEFAULT_NUM_BINS) -> dict[str, float]:
    """Histogram-calibrate activation scales from a float forward pass and
    max-calibrate weight scales. Stores the scale map on the model."""
    cals = {f"block{i}.{role}": HistogramCalibrator(num_bins, percentile)
            for i in range(model.cfg.num_layers) for role in ACTIVATION_ROLES}

    def observe(i, cache):
        for role in ACTIVATION_ROLES:
            cals[f"block{i}.{role}"].observe(cache[role])

    # each block observed as it runs, so that not all L caches are alive
    patches = forward_inputs(model, patches)
    plan = [block_plan(model, i, None, quantized=False) for i in range(model.cfg.num_layers)]
    for _ in run_blocks(model, plan, embedded_chunks(model, patches, BATCH), observe=observe):
        pass
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
        # compare with the file length first: a corrupt length can claim
        # more bytes than a read can allocate
        if os.fstat(f.fileno()).st_size - f.tell() < hlen:
            raise ValueError(f"{path}: truncated checkpoint header")
        blob = f.read(hlen)
        data = f.read()
    try:
        header = json.loads(blob)
        cfg = ModelConfig(**header["config"])
        tensors = [(t["name"], tuple(t["shape"])) for t in header["tensors"]]
        bitwidth, scales = header["bitwidth"], header["scales"]
    except (ValueError, TypeError, KeyError) as exc:
        raise ValueError(f"{path}: malformed checkpoint header ({exc!r})") from None
    # every layer has tensors, so compare the count first: a few header bytes
    # must not make param_shapes build any number of layers
    shapes = sorted(param_shapes(cfg).items()) if len(tensors) >= cfg.num_layers else None
    if tensors != shapes:
        raise ValueError(f"{path}: tensor names or shapes do not match the config")
    keys = {f"block{i}.{r}" for i in range(cfg.num_layers) for r in ACTIVATION_ROLES + WEIGHT_ROLES}
    if scales is not None and not (isinstance(scales, dict) and set(scales) == keys and all(
            isinstance(v, float) and 0 < v < math.inf for v in scales.values())):
        raise ValueError(f"{path}: scale map is not one positive scale per quantizer")
    sizes = [int(np.prod(shape)) for _, shape in shapes]
    if len(data) != 8 * sum(sizes):
        raise ValueError(f"{path}: {len(data)} bytes of tensor data, "
                         f"the header needs {8 * sum(sizes)}")
    flat = np.split(np.frombuffer(data, dtype="<f8"), np.cumsum(sizes)[:-1])
    params = {name: t.reshape(shape).astype(np.float64) for (name, shape), t in zip(shapes, flat)}
    for name, t in params.items():
        if not np.isfinite(t).all():
            raise ValueError(f"{path}: tensor {name} holds non-finite values")
    try:
        return VitModel(cfg, params, scales=scales, bitwidth=bitwidth)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
