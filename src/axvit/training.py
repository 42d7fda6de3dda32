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
from .quant import fake_quant_ste_grad as ste, max_scale


@dataclass
class TrainHyperparams:
    # only "adam"; the field stays because callers pass optimizer="adam" by name
    optimizer: str = "adam"
    learning_rate: float = 5e-5
    iterations: int = 100
    batch_size: int = 32
    data_fraction: float = 0.025
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not 0 < self.data_fraction <= 1:
            raise ValueError("data_fraction must be in (0, 1]")
        if self.optimizer != "adam":
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    def __init__(self, lr):
        self.lr = lr
        self.m, self.v = {}, {}
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        b1, b2 = _ADAM_BETA1, _ADAM_BETA2
        corr1 = 1 - b1**self.t
        corr2 = 1 - b2**self.t
        for k, g in grads.items():
            if k not in self.m:  # the moments start at zero on a parameter's first step
                self.m[k], self.v[k] = np.zeros_like(g), np.zeros_like(g)
            m, v = self.m[k], self.v[k]
            m += (1 - b1) * (g - m)
            v += (1 - b2) * (g * g - v)
            params[k] -= self.lr * (m / corr1) / (np.sqrt(v / corr2) + _ADAM_EPS)


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
    dx = inv * (dxhat - nn._row_mean(dxhat) - xhat * nn._row_mean(dxhat * xhat))
    return dx, dg, db


def linear_backward(dy, x, w, qp_x, qp_w):
    """STE gradients (dx, dw, db) of y = fq(x) @ fq(w) + b, treated as
    x @ w + b; a None scale masks nothing."""
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    dw = ste(x2.T @ dy2, w, qp_w)
    dx = ste(dy @ w.T, x, qp_x)
    return dx, dw, dy.sum(axis=tuple(range(dy.ndim - 1)))


def attention_backward(dout, cache, qps):
    """STE gradients (dq, dk, dv) of attention_forward through att @ v and
    softmax(q k^T / sqrt(q.shape[-1])). cache holds q, k, v and the softmax
    weights under attn; qps masks by the same roles (None masks nothing)."""
    qps = qps or {}
    att, q, k, v = cache["attn"], cache["q"], cache["k"], cache["v"]
    dv = ste(np.matmul(np.swapaxes(att, -1, -2), dout), v, qps.get("v"))
    datt = ste(np.matmul(dout, np.swapaxes(v, -1, -2)), att, qps.get("attn"))
    dscores = att * (datt - (datt * att).sum(axis=-1, keepdims=True))
    inv_sqrt = 1.0 / np.sqrt(q.shape[-1])
    dq = ste(np.matmul(dscores, k) * inv_sqrt, q, qps.get("q"))
    dk = ste(np.matmul(np.swapaxes(dscores, -1, -2), q) * inv_sqrt, k, qps.get("k"))
    return dq, dk, dv


def vit_backward(model: nn.VitModel, cache, dlogits):
    """Gradients for every parameter given dL/dlogits and a forward cache.
    The STE masks read the scales that the forward pass used, from the
    cache's "qps"; a block run in real arithmetic masks nothing."""
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
        qps = cache["qps"][i] or {}

        def linear(dy, role_x, role_w):
            dx_in, grads[pre + role_w], grads[pre + "b" + role_w[1:]] = linear_backward(
                dy, bc[role_x], p[pre + role_w], qps.get(role_x), qps.get(role_w))
            return dx_in

        def norm(dy, name):
            dx_in, grads[pre + name + ".g"], grads[pre + name + ".b"] = \
                _layer_norm_backward(dy, bc[name], p[pre + name + ".g"])
            return dx_in

        # x_mid = x_in + mha(LN1(x_in)); x_out = x_mid + ffn(LN2(x_mid))
        dh = linear(dx, "ffn_mid", "w2") * nn.gelu_grad(bc["ffn_h"], bc["ffn_t"])
        dx = dx + norm(linear(dh, "ffn_in", "w1"), "ln2")
        dctx = linear(dx, "attn_out", "wo")
        dq, dk, dv = attention_backward(nn._split_heads(dctx, cfg.num_heads), bc, qps)
        dh = sum(linear(nn._merge_heads(dt), "attn_in", "w" + r)
                 for r, dt in zip("qkv", (dq, dk, dv)))
        dx = dx + norm(dh, "ln1")

    patches2d = cache["patches"].reshape(-1, cfg.patch_dim)
    grads["embed.w"] = patches2d.T @ dx.reshape(-1, cfg.embed_dim)
    grads["embed.b"] = dx.sum(axis=(0, 1))
    return grads


def _train_loop(model, patches, labels, hp: TrainHyperparams, luts):
    """Trains on luts' quantized forward, or in real arithmetic when luts is
    None, and returns the per-step losses."""
    nn.check_labels(model, patches, labels)
    n = patches.shape[0]
    if n == 0:
        raise ValueError("the training set has no samples")
    rng = np.random.default_rng(hp.seed)
    subset = rng.permutation(n)[:max(1, int(round(n * hp.data_fraction)))]
    opt = Adam(hp.learning_rate)
    history = []
    # finite but huge weights (a rate like 1e308) overflow in the next
    # forward pass, before any loss exists to check; an overflow or invalid
    # operation anywhere in a step is divergence
    try:
        with np.errstate(over="raise", invalid="raise"):
            for step in range(hp.iterations):
                idx = subset[rng.integers(0, subset.size, size=min(hp.batch_size, subset.size))]
                logits, cache = nn.vit_forward(model, patches[idx], luts,
                                               quantized=luts is not None, collect=True)
                loss, dlogits = softmax_xent(logits, labels[idx])
                if not np.isfinite(loss):
                    raise RuntimeError(f"training diverged: non-finite loss at step {step}")
                history.append(float(loss))
                if hp.learning_rate == 0:
                    continue
                grads = vit_backward(model, cache, dlogits)
                opt.step(model.params, grads)
                # weights drift during training; activation scales stay fixed
                if model.scales is not None:
                    nn.refresh_weight_scales(model)
    except FloatingPointError as exc:
        raise RuntimeError(f"training diverged: {exc} at step {step}") from None
    return history


def finetune(model: nn.VitModel, assignment, patches, labels,
             hp: TrainHyperparams, catalog):
    """Approximation-aware finetuning: LUT forward, STE backward.

    Updates the model in place and returns the per-step loss history.
    """
    luts = [catalog.lut(name) for name in assignment]
    return _train_loop(model, patches, labels, hp, luts)


def train_float(model: nn.VitModel, patches, labels, hp: TrainHyperparams):
    """Plain real-arithmetic training, used to produce baseline weights."""
    return _train_loop(model, patches, labels, hp, luts=None)


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
    q, k, v = (nn._matmul(x, w["w" + r], qps.get("attn_in"), qps.get("w" + r), lut)
               for r in "qkv")
    out, att = nn.attention_forward(q, k, v, qps, lut)
    return out, {"q": q, "k": k, "v": v, "attn": att}


def toy_attention_experiment(mult: AxMultiplier, iterations: int = 500,
                             seed: int = 0) -> ToyAttentionResult:
    """Train one approximate attention layer with SGD to match a frozen
    real-arithmetic reference attention on standard-normal inputs."""
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    tokens, dim, batch_size, learning_rate, bitwidth = 8, 8, 32, 0.3, mult.bitwidth
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
        dqkv = attention_backward(2.0 * diff / diff.size, cache, qps)
        for r, dt in zip("qkv", dqkv):
            _, gw, _ = linear_backward(dt, x, w["w" + r], qps["attn_in"], qps["w" + r])
            w["w" + r] -= learning_rate * gw
    return ToyAttentionResult(losses=losses, outputs=out, targets=target)

