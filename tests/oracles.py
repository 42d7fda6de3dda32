"""Independent reference implementations used to check the library.
Everything here is deliberately written at the bit level with plain loops or
the most direct numpy expression, sharing no code with the package under
test."""

import math

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
