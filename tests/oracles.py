"""Independent reference implementations used to check the library.
Everything here is deliberately written at the bit level with plain loops or
the most direct numpy expression, sharing no code with the package under
test, except where a docstring names the package code an oracle calls."""

import math
from dataclasses import dataclass

import numpy as np


def _to_unsigned(v, bits):
    return v & ((1 << bits) - 1)


def _to_signed(u, bits):
    return u - (1 << bits) if u >= (1 << (bits - 1)) else u


def gather_matmul(a, b, entries):
    """LUT matmul of signed operands by one-shot gather of every product:
    the [..., M, K, N] table lookup summed over K in int64."""
    offset = entries.shape[0] // 2
    ea = np.asarray(a, dtype=np.int64) + offset
    eb = np.asarray(b, dtype=np.int64) + offset
    return entries[ea[..., :, :, None], eb[..., None, :, :]].sum(axis=-2, dtype=np.int64)


def sign_floor_quantize(x, qp):
    """Saturating quantization by its original formula: the sign times the
    floor of |x| / scale + 0.5, clipped to the signed range."""
    q = np.sign(x) * np.floor(np.abs(x) / qp.scale + 0.5)
    return np.clip(q, -qp.qmax, qp.qmax).astype(np.int32)


def quantized_matmul(x, y, qp_x, qp_y, lut):
    """x @ y on quantized operands: both quantized by sign_floor_quantize,
    every product looked up in the table by gather_matmul (or, with no
    table, an int64 matmul), and the sums times the product of the scales.
    Raises OverflowError if a sum is outside int32, as a 32-bit accumulator
    would."""
    qx, qy = sign_floor_quantize(x, qp_x), sign_floor_quantize(y, qp_y)
    if lut is None:
        acc = np.matmul(qx.astype(np.int64), qy.astype(np.int64))
    else:
        acc = gather_matmul(qx, qy, lut.entries)
    if acc.size and (acc.min() < -2**31 or acc.max() > 2**31 - 1):
        raise OverflowError("32-bit accumulator overflow")
    return acc * (qp_x.scale * qp_y.scale)


def truncate_operand(v, b, k):
    """Mask the k least significant bits of v's two's-complement pattern."""
    u = _to_unsigned(v, b) & ~((1 << k) - 1)
    return _to_signed(u & ((1 << b) - 1), b)


def truncated_product(x, y, b, k):
    return truncate_operand(x, b, k) * truncate_operand(y, b, k)


def perforated_product(x, y, b, r):
    """Drop the r lowest partial-product rows of a signed Baugh-Wooley-style
    decomposition: y = -y_{b-1} 2^{b-1} + sum_j y_j 2^j."""
    ybits = _to_unsigned(y, b)
    acc = 0
    for j in range(r, b):
        if (ybits >> j) & 1:
            acc += -(x << j) if j == b - 1 else (x << j)
    return acc


def brute_force_error_metrics(product_fn, b):
    """(mae_pct, wce_pct, mre_pct) by looping over every operand pair."""
    lo, hi = -(1 << (b - 1)), (1 << (b - 1)) - 1
    norm = float(1 << (2 * b - 2))
    total = wce = 0
    rel_total = rel_count = 0.0
    pairs = 0
    for x in range(lo, hi + 1):
        for y in range(lo, hi + 1):
            exact = x * y
            err = abs(product_fn(x, y) - exact)
            total += err
            wce = max(wce, err)
            if exact != 0:
                rel_total += err / abs(exact)
                rel_count += 1
            pairs += 1
    mae = total / pairs / norm * 100.0
    mre = rel_total / rel_count * 100.0 if rel_count else 0.0
    return mae, wce / norm * 100.0, mre


def brute_force_pareto(points):
    """O(n^2) non-dominated filter over (accuracy, power) pairs; dedupes on
    the pair, keeps first occurrence, sorts by ascending power."""
    unique = []
    seen = set()
    for pt in points:
        key = (pt[0], pt[1])
        if key not in seen:
            seen.add(key)
            unique.append(pt)
    front = []
    for p in unique:
        dominated = False
        for q in unique:
            if q[0] >= p[0] and q[1] <= p[1] and (q[0] > p[0] or q[1] < p[1]):
                dominated = True
                break
        if not dominated:
            front.append(p)
    return sorted(front, key=lambda pt: pt[1])


def reference_ucb(mean, visits, parent_visits, c):
    return mean + c * (math.log(parent_visits) / visits) ** 0.5


def reference_policy(s, p, lam):
    z = [si - lam * pi for si, pi in zip(s, p)]
    m = max(z)
    e = [math.exp(v - m) for v in z]
    t = sum(e)
    return [v / t for v in e]


def reference_power_reduction(frac_approx, power_approx, power_exact):
    """Power reduction percentage when a fraction of all MACs runs on the
    approximate multiplier and the rest stays on the exact baseline."""
    used = frac_approx * power_approx + (1.0 - frac_approx) * power_exact
    return (1.0 - used / power_exact) * 100.0


def rebin_loop(counts, old_max, new_max):
    """Histogram rebinning by a loop over old bins and the new bins each one
    overlaps: every old bin's count is split in proportion to the overlap."""
    num_bins = counts.size
    new = np.zeros_like(counts)
    w_old = old_max / num_bins
    w_new = new_max / num_bins
    for j in np.nonzero(counts)[0]:
        lo, hi = j * w_old, (j + 1) * w_old
        first = int(lo / w_new)
        last = min(int(np.ceil(hi / w_new)), num_bins)
        for nb in range(first, last):
            overlap = min(hi, (nb + 1) * w_new) - max(lo, nb * w_new)
            if overlap > 0:
                new[nb] += counts[j] * overlap / (hi - lo)
    return new


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu_pow(x):
    """tanh-approximation GELU with the cube by numpy's power ufunc."""
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * x**3)))


def gelu_grad_pow(x):
    """Derivative of gelu_pow, with the powers written as powers."""
    t = np.tanh(_GELU_C * (x + 0.044715 * x**3))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * _GELU_C * (1.0 + 3 * 0.044715 * x**2)


def layer_norm_var(x, g, b):
    """LayerNorm over the last axis by np.var; returns y, xhat and inv."""
    mu = x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
    xhat = (x - mu) * inv
    return g * xhat + b, xhat, inv


def softmax_out_of_place(x):
    """Softmax over the last axis, each step into a new array."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def gelu_out_of_place(x):
    """tanh GELU as one expression, the cube as two products."""
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * (x * x * x))))


def block_out_of_place(model, i, x, qps, lut):
    """Transformer block i with every add, softmax and GELU step out of place
    and every intermediate kept to the end; q, k and v are three separate
    projections. The quantized matmuls are quantized_matmul; LayerNorm and
    the head split are the package's own, the rest is written out here."""
    from axvit import model as nn

    p, pre = model.params, f"block{i}."

    def matmul(a, b, role_a, role_b):
        if qps is None:
            return a @ b
        return quantized_matmul(a, b, qps[role_a], qps[role_b], lut)

    def linear(t, role_x, role_w):
        return matmul(t, p[pre + role_w], role_x, role_w) + p[pre + "b" + role_w[1:]]

    h, _ = nn.layer_norm(x, p[pre + "ln1.g"], p[pre + "ln1.b"])
    q, k, v = (nn._split_heads(linear(h, "attn_in", "w" + r), model.cfg.num_heads)
               for r in "qkv")
    att = softmax_out_of_place(matmul(q, np.swapaxes(k, -1, -2), "q", "k")
                               / np.sqrt(q.shape[-1]))
    ctx = matmul(att, v, "attn", "v")
    y = x + linear(nn._merge_heads(ctx), "attn_out", "wo")
    h2, _ = nn.layer_norm(y, p[pre + "ln2.g"], p[pre + "ln2.b"])
    hf = linear(h2, "ffn_in", "w1")
    return y + linear(gelu_out_of_place(hf), "ffn_mid", "w2")


def probe_blocks(model, assignment, catalog, patches, batch=64):
    """Fresh forward passes over the probe, `batch` samples at a time, as
    evaluate_accuracy runs them: per chunk, the embedded input and each
    block's output under `assignment`. The embedding and the block loop are
    written out here; the blocks are the package's block_forward on plans
    built here, once per call."""
    from axvit.model import block_forward, block_plan

    patches = np.asarray(patches, dtype=np.float64)
    plan = [block_plan(model, i, catalog.lut(name)) for i, name in enumerate(assignment)]
    chunks = []
    for start in range(0, patches.shape[0], batch):
        x = patches[start:start + batch] @ model.params["embed.w"] + model.params["embed.b"]
        xs = [x]
        for i, block in enumerate(plan):
            x = block_forward(model, i, x, block)
            xs.append(x)
        chunks.append(xs)
    return chunks


def probe_accuracy(model, assignment, catalog, patches, labels, batch=64):
    """Probe top-1 accuracy by probe_blocks, with the mean pool and the
    classifier head written out here."""
    labels = np.asarray(labels)
    correct = 0
    for start, xs in zip(range(0, len(patches), batch),
                         probe_blocks(model, assignment, catalog, patches, batch)):
        logits = xs[-1].mean(axis=1) @ model.params["head.w"] + model.params["head.b"]
        correct += int((logits.argmax(axis=1) == labels[start:start + batch]).sum())
    return correct / len(patches)


def copysign_saturate(x, qp):
    """quantize's steps before the cast toward zero by abs and copysign:
    |x / scale| + 0.5, capped at qmax, given x's sign back."""
    q = np.abs(np.asarray(x, dtype=np.float64) / qp.scale) + 0.5
    return np.copysign(np.minimum(q, qp.qmax), x)


class NumpyHistogramCalibrator:
    """The calibrator's running |value| histogram by np.histogram over
    [0, observed_max], rebinned by rebin_loop when a batch raises the
    maximum; zeros seen before the first nonzero value stay in bin 0."""

    def __init__(self, num_bins):
        self.num_bins = num_bins
        self.observed_max = 0.0
        self.counts = np.zeros(num_bins)
        self.total = 0

    def observe(self, values):
        absv = np.abs(np.asarray(values, dtype=np.float64)).ravel()
        if absv.size == 0:
            return self
        new_max = float(absv.max())
        if new_max > self.observed_max:
            if self.observed_max > 0.0:
                self.counts = rebin_loop(self.counts, self.observed_max, new_max)
            self.observed_max = new_max
        if self.observed_max == 0.0:
            self.counts[0] += absv.size
        else:
            self.counts += np.histogram(absv, self.num_bins, (0.0, self.observed_max))[0]
        self.total += absv.size
        return self


@dataclass
class SteCheckResult:
    max_rel_deviation: float
    analytic: np.ndarray
    finite_diff: np.ndarray
    inside_clip: np.ndarray


def ste_gradient_check(probe, epsilon=1e-4, kind="linear", clip=None, seed=0, bitwidth=8):
    """Compare the package's STE backward of a fake-quant linear layer,
    optionally followed by GELU, against central finite differences of the
    real-arithmetic layer. GELU and its derivative are gelu_pow and
    gelu_grad_pow; the package code called is training.linear_backward (the
    function checked) and QuantParams.

    The deviation is taken over probe components inside the clip range;
    clipped components carry an analytic gradient of exactly zero.
    """
    from axvit.quant import QuantParams
    from axvit.training import linear_backward

    if kind not in ("linear", "gelu"):
        raise ValueError(f"unknown layer kind {kind!r}")
    x = np.asarray(probe, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("probe must be a 1-D vector")
    if clip is None:
        clip = 1.5 * float(np.abs(x).max())
    qp = QuantParams.from_clip(clip, bitwidth)

    if np.any(np.abs(np.abs(x) - qp.clip) < epsilon):
        raise ValueError("rejected probe: component within epsilon of the clip boundary")
    frac = np.abs((np.abs(x) / qp.scale) % 1.0 - 0.5) * qp.scale
    if np.any((frac < epsilon) & (np.abs(x) <= qp.clip)):
        raise ValueError("rejected probe: component within epsilon of a rounding boundary")

    rng = np.random.default_rng(seed)
    n = x.size
    m = max(2, n // 2)
    w = rng.normal(0, 1 / np.sqrt(n), (n, m))
    b = rng.normal(0, 0.1, m)
    r = rng.normal(0, 1, m)  # fixed projection making the output a scalar

    def real_layer(xv):
        h = xv @ w + b
        return (gelu_pow(h) if kind == "gelu" else h) @ r

    h = x @ w + b
    g_h = r * (gelu_grad_pow(h) if kind == "gelu" else 1.0)
    inside = np.abs(x) <= qp.clip
    analytic, _, _ = linear_backward(g_h, x, w, qp, None)

    fd = np.empty(n)
    for j in range(n):
        xp, xm = x.copy(), x.copy()
        xp[j] += epsilon
        xm[j] -= epsilon
        fd[j] = (real_layer(xp) - real_layer(xm)) / (2 * epsilon)

    denom = max(float(np.abs(fd[inside]).max()) if inside.any() else 0.0, 1e-12)
    dev = float(np.abs(analytic[inside] - fd[inside]).max() / denom) if inside.any() else 0.0
    return SteCheckResult(dev, analytic, fd, inside)
