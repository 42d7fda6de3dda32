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


def _mm_grads(x, w, dy, qp_x, qp_w):
    """STE gradients of y = fq(x) @ fq(w), treated as x @ w."""
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    dw = (x2.T @ dy2) * _mask(w, qp_w)
    dx = (dy @ w.T) * _mask(x, qp_x)
    return dx, dw


def vit_backward(model: nn.VitModel, cache, dlogits, quantized=True):
    """Gradients for every parameter given dL/dlogits and a forward cache."""
    cfg = model.cfg
    p = model.params
    grads = {}
    get = (lambda i, role: model.qparams(f"block{i}.{role}")) if quantized \
        else (lambda i, role: None)

    pooled = cache["pooled"]
    grads["head.w"] = pooled.T @ dlogits
    grads["head.b"] = dlogits.sum(axis=0)
    dpooled = dlogits @ p["head.w"].T
    dx = np.broadcast_to(dpooled[:, None, :] / cfg.num_patches,
                         cache["x_final"].shape).copy()

    for i in reversed(range(cfg.num_layers)):
        bc = cache["blocks"][i]
        pre = f"block{i}."
        # x_out = x_mid + ffn(LN2(x_mid))
        dout = dx
        da = (dout @ p[pre + "w2"].T) * _mask(bc["ffn_a"], get(i, "ffn_mid"))
        a2 = bc["ffn_a"].reshape(-1, cfg.ffn_dim)
        grads[pre + "w2"] = (a2.T @ dout.reshape(-1, cfg.embed_dim)) * _mask(p[pre + "w2"], get(i, "w2"))
        grads[pre + "b2"] = dout.sum(axis=(0, 1))
        dh = da * nn.gelu_grad(bc["ffn_h"])
        dh2, grads[pre + "w1"] = _mm_grads(bc["h2"], p[pre + "w1"], dh,
                                           get(i, "ffn_in"), get(i, "w1"))
        grads[pre + "b1"] = dh.sum(axis=(0, 1))
        if model.layer_norm_enabled:
            dx_mid_ln, grads[pre + "ln2.g"], grads[pre + "ln2.b"] = \
                _layer_norm_backward(dh2, bc["ln2"], p[pre + "ln2.g"])
        else:
            dx_mid_ln = dh2
        dx_mid = dx + dx_mid_ln

        # x_mid = x_in + mha(LN1(x_in))
        dattn_out = dx_mid
        dctx, grads[pre + "wo"] = _mm_grads(bc["ctx"], p[pre + "wo"], dattn_out,
                                            get(i, "attn_out"), get(i, "wo"))
        grads[pre + "bo"] = dattn_out.sum(axis=(0, 1))
        dctx_h = nn._split_heads(dctx, cfg.num_heads)
        att, vh, qh, kh = bc["att"], bc["vh"], bc["qh"], bc["kh"]
        attn_qp = nn.attn_weight_qparams(model.bitwidth) if quantized else None
        dvh = np.matmul(np.swapaxes(att, -1, -2), dctx_h) * _mask(vh, get(i, "v"))
        datt = np.matmul(dctx_h, np.swapaxes(vh, -1, -2)) * _mask(att, attn_qp)
        dscores = att * (datt - (datt * att).sum(axis=-1, keepdims=True))
        inv_sqrt = 1.0 / np.sqrt(cfg.head_dim)
        dqh = np.matmul(dscores, kh) * inv_sqrt * _mask(qh, get(i, "q"))
        dkh = np.matmul(np.swapaxes(dscores, -1, -2), qh) * inv_sqrt * _mask(kh, get(i, "k"))
        dq, dk, dv = (nn._merge_heads(t) for t in (dqh, dkh, dvh))

        h2d = bc["h"].reshape(-1, cfg.embed_dim)
        dh_total = np.zeros_like(bc["h"])
        for name, dt in (("wq", dq), ("wk", dk), ("wv", dv)):
            grads[pre + name] = (h2d.T @ dt.reshape(-1, cfg.embed_dim)) \
                * _mask(p[pre + name], get(i, name))
            grads[pre + "b" + name[1]] = dt.sum(axis=(0, 1))
            dh_total += dt @ p[pre + name].T
        dh_total *= _mask(bc["h"], get(i, "attn_in"))
        if model.layer_norm_enabled:
            dx_in_ln, grads[pre + "ln1.g"], grads[pre + "ln1.b"] = \
                _layer_norm_backward(dh_total, bc["ln1"], p[pre + "ln1.g"])
        else:
            dx_in_ln = dh_total
        dx = dx_mid + dx_in_ln

    patches2d = cache["patches"].reshape(-1, cfg.patch_dim)
    grads["embed.w"] = patches2d.T @ dx.reshape(-1, cfg.embed_dim)
    grads["embed.b"] = dx.sum(axis=(0, 1))
    return grads


def _refresh_weight_scales(model: nn.VitModel) -> None:
    # Weight distributions drift during training; activation scales stay fixed.
    for i in range(model.cfg.num_layers):
        for role in nn.WEIGHT_ROLES:
            key = f"block{i}.{role}"
            model.scales[key] = max_scale(model.params[key], model.bitwidth).scale


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
        if quantized:
            _refresh_weight_scales(model)
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


def _toy_attention_forward(x, wq, wk, wv, qps, lut):
    q = nn.linear_forward(x, wq, 0.0, qps and qps["x"], qps and qps["wq"], lut, qps is not None)
    k = nn.linear_forward(x, wk, 0.0, qps and qps["x"], qps and qps["wk"], lut, qps is not None)
    v = nn.linear_forward(x, wv, 0.0, qps and qps["x"], qps and qps["wv"], lut, qps is not None)
    out, att = nn.attention_forward(q, k, v, x.shape[-1],
                                    qps and {"q": qps["q"], "k": qps["k"],
                                             "v": qps["v"], "attn": qps["attn"]},
                                    lut, quantized=qps is not None, collect=True)
    return out, (q, k, v, att)


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
    out_c, (qc, kc, vc, _) = _toy_attention_forward(xc, w["wq"], w["wk"], w["wv"], None, None)
    def act_scale(t):
        return QuantParams(float(np.abs(t).max()) / ((1 << (bitwidth - 1)) - 1), bitwidth)
    qps = {"x": act_scale(xc), "q": act_scale(qc), "k": act_scale(kc),
           "v": act_scale(vc), "attn": nn.attn_weight_qparams(bitwidth)}

    losses = np.empty(iterations)
    out = target = None
    inv_sqrt = 1.0 / np.sqrt(dim)
    for it in range(iterations):
        x = rng.normal(0, 1, (batch_size, tokens, dim))
        target, _ = _toy_attention_forward(x, ref["wq"], ref["wk"], ref["wv"], None, None)
        for n in ("wq", "wk", "wv"):
            qps[n] = max_scale(w[n], bitwidth)
        out, (q, k, v, att) = _toy_attention_forward(x, w["wq"], w["wk"], w["wv"], qps, lut)
        diff = out - target
        losses[it] = float((diff**2).mean())
        dout = 2.0 * diff / diff.size
        # backward through att @ v and softmax(q k^T / sqrt(d))
        dv = np.matmul(np.swapaxes(att, -1, -2), dout) * _mask(v, qps["v"])
        datt = np.matmul(dout, np.swapaxes(v, -1, -2)) * _mask(att, qps["attn"])
        dscores = att * (datt - (datt * att).sum(axis=-1, keepdims=True))
        dq = np.matmul(dscores, k) * inv_sqrt * _mask(q, qps["q"])
        dk = np.matmul(np.swapaxes(dscores, -1, -2), q) * inv_sqrt * _mask(k, qps["k"])
        x2 = x.reshape(-1, dim)
        for n, dt in (("wq", dq), ("wk", dk), ("wv", dv)):
            gw = (x2.T @ dt.reshape(-1, dim)) * _mask(w[n], qps[n])
            w[n] -= learning_rate * gw
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
    analytic = (w @ g_h) * inside

    fd = np.empty(n)
    for j in range(n):
        xp, xm = x.copy(), x.copy()
        xp[j] += epsilon
        xm[j] -= epsilon
        fd[j] = (real_layer(xp) - real_layer(xm)) / (2 * epsilon)

    denom = max(float(np.abs(fd[inside]).max()) if inside.any() else 0.0, 1e-12)
    dev = float(np.abs(analytic[inside] - fd[inside]).max() / denom) if inside.any() else 0.0
    return SteCheckResult(dev, analytic, fd, inside)
