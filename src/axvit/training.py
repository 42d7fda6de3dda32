"""Approximation-aware finetuning with straight-through-estimator gradients.

Forward passes run through the product LUTs; the backward pass treats each
approximate quantized matmul as its real-arithmetic counterpart, with clip
masks zeroing gradients for operands outside the quantization range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as nn
from .multipliers import AxMultiplier, build_lut
from .quant import QuantParams, max_scale


@dataclass
class TrainHyperparams:
    optimizer: str = "adam"       # "adam" | "sgd"
    learning_rate: float = 5e-5
    iterations: int = 100
    batch_size: int = 32
    data_fraction: float = 0.025
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if not 0 < self.data_fraction <= 1:
            raise ValueError("data_fraction must be in (0, 1]")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


class Sgd:
    def __init__(self, lr):
        self.lr = lr

    def step(self, params, grads):
        for k, g in grads.items():
            params[k] -= self.lr * g


class Adam:
    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m, self.v = {}, {}
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        corr1 = 1 - b1**self.t
        corr2 = 1 - b2**self.t
        for k, g in grads.items():
            m = self.m.setdefault(k, np.zeros_like(g))
            v = self.v.setdefault(k, np.zeros_like(g))
            m += (1 - b1) * (g - m)
            v += (1 - b2) * (g * g - v)
            params[k] -= self.lr * (m / corr1) / (np.sqrt(v / corr2) + self.eps)


def make_optimizer(hp: TrainHyperparams):
    return Adam(hp.learning_rate) if hp.optimizer == "adam" else Sgd(hp.learning_rate)


def softmax_xent(logits, labels):
    """Mean cross-entropy and its gradient w.r.t. the logits."""
    n = logits.shape[0]
    probs = nn.softmax(logits)
    loss = -np.log(np.maximum(probs[np.arange(n), labels], 1e-300)).mean()
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


def _layer_norm_backward(dy, cache, g):
    xhat, inv = cache
    dg = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    db = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dx, dg, db


def _mask(t, qp: QuantParams | None):
    return 1.0 if qp is None else (np.abs(t) <= qp.clip)


def linear_backward(dy, x, w, qp_x, qp_w):
    """STE gradients (dx, dw, db) of y = fq(x) @ fq(w) + b, treated as
    x @ w + b; a None scale masks nothing."""
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    dw = (x2.T @ dy2) * _mask(w, qp_w)
    dx = (dy @ w.T) * _mask(x, qp_x)
    return dx, dw, dy.sum(axis=tuple(range(dy.ndim - 1)))


def attention_backward(dout, cache, qps, d_k):
    """STE gradients (dq, dk, dv) of attention_forward through att @ v and
    softmax(q k^T / sqrt(d_k)). cache holds q, k, v and the softmax weights
    under attn; qps masks by the same roles (None masks nothing)."""
    qps = qps or {}
    att, q, k, v = cache["attn"], cache["q"], cache["k"], cache["v"]
    dv = np.matmul(np.swapaxes(att, -1, -2), dout) * _mask(v, qps.get("v"))
    datt = np.matmul(dout, np.swapaxes(v, -1, -2)) * _mask(att, qps.get("attn"))
    dscores = att * (datt - (datt * att).sum(axis=-1, keepdims=True))
    inv_sqrt = 1.0 / np.sqrt(d_k)
    dq = np.matmul(dscores, k) * inv_sqrt * _mask(q, qps.get("q"))
    dk = np.matmul(np.swapaxes(dscores, -1, -2), q) * inv_sqrt * _mask(k, qps.get("k"))
    return dq, dk, dv


def vit_backward(model: nn.VitModel, cache, dlogits, quantized=True):
    """Gradients for every parameter given dL/dlogits and a forward cache."""
    cfg = model.cfg
    p = model.params
    grads = {}

    pooled = cache["pooled"]
    grads["head.w"] = pooled.T @ dlogits
    grads["head.b"] = dlogits.sum(axis=0)
    dpooled = dlogits @ p["head.w"].T
    dx = np.repeat(dpooled[:, None, :] / cfg.num_patches, cfg.num_patches, axis=1)

    for i in reversed(range(cfg.num_layers)):
        bc = cache["blocks"][i]
        pre = f"block{i}."
        qps = model.block_qps(i) if quantized else {}

        def linear(dy, role_x, role_w):
            dx_in, grads[pre + role_w], grads[pre + "b" + role_w[1:]] = linear_backward(
                dy, bc[role_x], p[pre + role_w], qps.get(role_x), qps.get(role_w))
            return dx_in

        def norm(dy, name):
            if not model.layer_norm_enabled:
                return dy
            dx_in, grads[pre + name + ".g"], grads[pre + name + ".b"] = \
                _layer_norm_backward(dy, bc[name], p[pre + name + ".g"])
            return dx_in

        # x_mid = x_in + mha(LN1(x_in)); x_out = x_mid + ffn(LN2(x_mid))
        dh = linear(dx, "ffn_mid", "w2") * nn.gelu_grad(bc["ffn_h"])
        dx = dx + norm(linear(dh, "ffn_in", "w1"), "ln2")
        dctx = linear(dx, "attn_out", "wo")
        dq, dk, dv = attention_backward(nn._split_heads(dctx, cfg.num_heads), bc, qps,
                                        cfg.head_dim)
        dh = sum(linear(nn._merge_heads(dt), "attn_in", "w" + r)
                 for r, dt in zip("qkv", (dq, dk, dv)))
        dx = dx + norm(dh, "ln1")

    patches2d = cache["patches"].reshape(-1, cfg.patch_dim)
    grads["embed.w"] = patches2d.T @ dx.reshape(-1, cfg.embed_dim)
    grads["embed.b"] = dx.sum(axis=(0, 1))
    return grads


def _train_loop(model, patches, labels, hp: TrainHyperparams, luts, quantized,
                recalibrate=False):
    rng = np.random.default_rng(hp.seed)
    n = patches.shape[0]
    subset = rng.permutation(n)[:max(1, int(round(n * hp.data_fraction)))]
    opt = make_optimizer(hp)
    history = []
    for step in range(hp.iterations):
        idx = subset[rng.integers(0, subset.size, size=min(hp.batch_size, subset.size))]
        logits, cache = nn.vit_forward(model, patches[idx], luts,
                                       quantized=quantized, collect=True)
        loss, dlogits = softmax_xent(logits, labels[idx])
        if not np.isfinite(loss):
            raise RuntimeError(f"training diverged: non-finite loss at step {step}")
        history.append(float(loss))
        if hp.learning_rate == 0:
            continue
        grads = vit_backward(model, cache, dlogits, quantized=quantized)
        opt.step(model.params, grads)
        if quantized:  # weights drift during training; activation scales stay fixed
            nn.refresh_weight_scales(model)
    if recalibrate:
        nn.calibrate(model, patches)
    return history


def finetune(model: nn.VitModel, assignment, patches, labels,
             hp: TrainHyperparams, catalog, recalibrate=False):
    """Approximation-aware finetuning: LUT forward, STE backward.

    Updates the model in place and returns the per-step loss history.
    """
    if not model.calibrated:
        raise RuntimeError("model is not calibrated; run calibration first")
    nn.check_assignment(model, assignment)
    luts = nn.resolve_luts(assignment, catalog)
    return _train_loop(model, patches, labels, hp, luts, quantized=True,
                       recalibrate=recalibrate)


def train_float(model: nn.VitModel, patches, labels, hp: TrainHyperparams):
    """Plain real-arithmetic training, used to produce baseline weights."""
    return _train_loop(model, patches, labels, hp, luts=None, quantized=False)


# ---------------------------------------------------------------------------
# Single-layer attention convergence experiment
# ---------------------------------------------------------------------------

@dataclass
class ToyAttentionResult:
    losses: np.ndarray
    outputs: np.ndarray
    targets: np.ndarray


def _toy_attention_forward(x, w, qps, lut):
    """One attention layer without output projection; qps None runs it in
    real arithmetic. Returns the output and the attention_backward cache."""
    qps = qps or {}
    q, k, v = (nn.linear_forward(x, w["w" + r], 0.0, qps.get("attn_in"), qps.get("w" + r), lut)
               for r in "qkv")
    out, att = nn.attention_forward(q, k, v, x.shape[-1], qps, lut, collect=True)
    return out, {"q": q, "k": k, "v": v, "attn": att}


def toy_attention_experiment(mult: AxMultiplier, iterations: int = 500,
                             seed: int = 0, tokens: int = 8, dim: int = 8,
                             batch_size: int = 32, learning_rate: float = 0.3,
                             bitwidth: int = 8) -> ToyAttentionResult:
    """Train one approximate attention layer with SGD to match a frozen
    real-arithmetic reference attention on standard-normal inputs."""
    lut = build_lut(mult)
    rng = np.random.default_rng(seed)
    ref = {n: rng.normal(0, 1 / np.sqrt(dim), (dim, dim)) for n in ("wq", "wk", "wv")}
    w = {n: rng.normal(0, 1 / np.sqrt(dim), (dim, dim)) for n in ("wq", "wk", "wv")}

    # one-shot calibration on an initial probe batch
    xc = rng.normal(0, 1, (256, tokens, dim))
    _, calib = _toy_attention_forward(xc, w, None, None)
    qps = {role: max_scale(calib[role], bitwidth) for role in "qkv"}
    qps.update(attn_in=max_scale(xc, bitwidth), attn=nn.attn_weight_qparams(bitwidth))

    losses = np.empty(iterations)
    out = target = None
    for it in range(iterations):
        x = rng.normal(0, 1, (batch_size, tokens, dim))
        target, _ = _toy_attention_forward(x, ref, None, None)
        for n in ("wq", "wk", "wv"):
            qps[n] = max_scale(w[n], bitwidth)
        out, cache = _toy_attention_forward(x, w, qps, lut)
        diff = out - target
        losses[it] = float((diff**2).mean())
        dqkv = attention_backward(2.0 * diff / diff.size, cache, qps, dim)
        for r, dt in zip("qkv", dqkv):
            _, gw, _ = linear_backward(dt, x, w["w" + r], qps["attn_in"], qps["w" + r])
            w["w" + r] -= learning_rate * gw
    return ToyAttentionResult(losses=losses, outputs=out, targets=target)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

@dataclass
class SteCheckResult:
    max_rel_deviation: float
    analytic: np.ndarray
    finite_diff: np.ndarray
    inside_clip: np.ndarray


def ste_gradient_check(probe, epsilon: float = 1e-4, kind: str = "linear",
                       clip: float | None = None, seed: int = 0,
                       bitwidth: int = 8) -> SteCheckResult:
    """Compare the STE backward of an exact-LUT fake-quant layer against
    central finite differences of the real-arithmetic layer.

    The deviation is taken over probe components inside the clip range;
    clipped components carry an analytic gradient of exactly zero.
    """
    if kind not in ("linear", "gelu"):
        raise ValueError(f"unknown layer kind {kind!r}")
    x = np.asarray(probe, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("probe must be a 1-D vector")
    if clip is None:
        clip = 1.5 * float(np.abs(x).max())
    qp = QuantParams(scale=clip / ((1 << (bitwidth - 1)) - 1), bitwidth=bitwidth)

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
        return (nn.gelu(h) if kind == "gelu" else h) @ r

    h = x @ w + b
    g_h = r * (nn.gelu_grad(h) if kind == "gelu" else 1.0)
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
