"""Symmetric affine quantization with histogram-percentile calibration.

Real values map to signed integers through ``real = scale * q`` (zero point
fixed at 0). The scale comes from a percentile of the histogram of absolute
values collected during calibration, and training support is provided through
a straight-through-estimator gradient that passes inside the clip range.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

DEFAULT_NUM_BINS = 2048
DEFAULT_PERCENTILE = 99.9
_SIGN_BIT = np.int64(-1 << 63)  # the float64 sign bit in an int64 view
# how near an integer, per bin, a bin estimate in _bin_counts gets numpy's edge
# corrections: 2**11 times the rounding bound 4 * 2**-53
_EDGE_MARGIN = 2.0 ** -40
_TINY = np.finfo(np.float64).tiny  # the least normal float64


def signed_range(bitwidth: int) -> tuple[int, int]:
    """Smallest and largest two's-complement integer of ``bitwidth`` bits."""
    half = 1 << (bitwidth - 1)
    return -half, half - 1


@dataclass(frozen=True)
class QuantParams:
    """Affine quantization parameters (symmetric, zero point 0)."""

    scale: float
    bitwidth: int

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"scale must be > 0, got {self.scale}")

    @classmethod
    def from_clip(cls, clip: float, bitwidth: int) -> "QuantParams":
        """The scale that maps ``clip`` onto the largest quantized value."""
        return cls(scale=clip / signed_range(bitwidth)[1], bitwidth=bitwidth)

    @property
    def qmax(self) -> int:
        return signed_range(self.bitwidth)[1]

    @property
    def clip(self) -> float:
        return self.scale * self.qmax


class HistogramCalibrator:
    """Collects |value| histograms and derives a percentile clip threshold."""

    def __init__(self, num_bins: int = DEFAULT_NUM_BINS,
                 percentile: float = DEFAULT_PERCENTILE):
        if isinstance(num_bins, bool) or not isinstance(num_bins, (int, np.integer)) or num_bins < 1:
            raise ValueError(f"num_bins must be an integer >= 1, got {num_bins!r}")
        if not 0 < percentile <= 100:
            raise ValueError("percentile must be in (0, 100]")
        self.num_bins = int(num_bins)
        self.percentile = percentile
        self.observed_max = 0.0
        self.counts = np.zeros(num_bins, dtype=np.float64)
        self.total = 0
        self._edges = None  # _bin_edges(observed_max, num_bins) for a subnormal step

    def observe(self, values) -> "HistogramCalibrator":
        """Accumulate absolute values; grows the range by rebinning if needed.

        The absolute values go straight into one new C-ordered array (a
        strided head view is copied once, not twice), and ``_bin_counts``
        bins them on [0, observed_max]: the counts ``np.histogram`` gives.
        Only a subnormal step ``observed_max / num_bins`` needs bin edges (a
        normal step's rise strictly), built when the maximum rises and before
        any state changes, so a rejected batch leaves the calibrator as it was."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return self
        absv = np.abs(values, out=np.empty(values.shape)).ravel()
        new_max = float(absv.max())
        if not np.isfinite(new_max):  # NaN and ±inf carry through abs and max
            raise ValueError("calibration data contains NaN or Inf")
        if new_max > self.observed_max:
            edges = None if new_max / self.num_bins >= _TINY else _bin_edges(new_max, self.num_bins)
            if self.observed_max > 0.0:  # zeros seen so far stay in bin 0
                self.counts = _rebin(self.counts, self.observed_max, new_max)
            self.observed_max, self._edges = new_max, edges
        if self.observed_max == 0.0:
            self.counts[0] += absv.size  # only zeros seen so far
        else:
            self.counts += _bin_counts(absv, self.observed_max, self.num_bins, self._edges)
        self.total += absv.size
        return self

    def clip_value(self) -> float:
        """Smallest bin upper edge whose cumulative fraction reaches the percentile."""
        if self.total == 0:
            raise RuntimeError("calibrator has no observations")
        if self.observed_max == 0.0:
            raise RuntimeError("all observed values are zero; cannot derive a scale")
        if self.percentile == 100.0:
            return self.observed_max  # exact max tracking
        cum = np.cumsum(self.counts) / self.total
        # tolerance so an exact-fraction boundary (e.g. 999/1000 at the
        # default percentile) is not missed to one ulp of float rounding
        idx = int(np.argmax(cum >= self.percentile / 100.0 - 1e-9))
        return (idx + 1) * self.observed_max / self.num_bins

    def compute_scale(self, bitwidth: int) -> QuantParams:
        return QuantParams.from_clip(self.clip_value(), bitwidth)


def _bin_edges(top: float, num_bins: int) -> np.ndarray:
    """``np.histogram``'s bin edges on [0, top], ``np.linspace(0.0, top,
    num_bins + 1)`` with the last one +inf, so that the last bin takes top;
    raises numpy's error where they do not rise strictly (a tiny top)."""
    edges = np.linspace(0.0, top, num_bins + 1)
    if np.any(edges[:-1] >= edges[1:]):  # numpy's check
        raise ValueError(f"Too many bins for data range. Cannot create {num_bins} "
                         "finite-sized bins.")
    edges[-1] = np.inf
    return edges


def _bin_counts(absv: np.ndarray, top: float, num_bins: int,
                edges: np.ndarray | None = None) -> np.ndarray:
    """``np.histogram(absv, num_bins, (0.0, top))[0]`` for finite
    ``0 <= absv <= top``, minus the steps that range makes unnecessary (the
    range mask, subtracting the 0.0 edge); ``edges = _bin_edges(top,
    num_bins)`` is given where the step ``top / num_bins`` is subnormal.

    The estimate ``est = absv * (num_bins / top)`` lies within about ``2 *
    2**-53 * num_bins`` of the exact quotient, as numpy's ``absv / top *
    num_bins`` does (a subnormal ``num_bins / top``, for a top near the
    largest float, keeps 50 bits), and in units of the step each linspace
    edge ``fl(i * fl(top / num_bins))`` within as much of ``i``. So an
    estimate farther than ``_EDGE_MARGIN * num_bins`` (a wide factor over
    twice that) from every integer names the value's bin. Any other
    (``top``'s among them) is at most one bin off: capped at the last bin,
    it moves one down if the value lies below the bin's lower edge and one
    up if it reaches the upper edge (+inf for the last bin), numpy's steps;
    the edges rise strictly, so no value moves both ways. A subnormal step
    has no relative bound: every value takes numpy's estimate and steps."""
    if edges is None:
        est = absv * (num_bins / top)
        off = np.rint(est)
        off -= est
        near = np.flatnonzero(np.abs(off, out=off) < _EDGE_MARGIN * num_bins)
        del off
    else:
        est, near = absv / top * num_bins, slice(None)
    idx = est.astype(np.intp)
    del est
    v, i = absv[near], np.minimum(idx[near], num_bins - 1)
    if edges is None:  # linspace's edges of the flagged bins
        step = top / num_bins
        lo = i * step
        hi = np.multiply(i + 1, step, out=np.full(i.shape, np.inf), where=i < num_bins - 1)
    else:
        lo, hi = edges[i], edges[1:][i]
    idx[near] = i + (v >= hi) - (v < lo)
    return np.bincount(idx, minlength=num_bins)


def _rebin(counts: np.ndarray, old_max: float, new_max: float) -> np.ndarray:
    """Redistribute counts proportionally onto bins covering [0, new_max].

    Old bin j spans [j, j + 1) * old_max / num_bins and new bins
    [first_j, last_j) overlap it. All (j, new bin) pairs are listed at once,
    and ``np.add.at`` adds each pair's share in ascending j, so every new bin
    sums the same float64 terms in the same order as a loop over j would."""
    num_bins = counts.size
    new = np.zeros_like(counts)
    w_old = old_max / num_bins
    w_new = new_max / num_bins
    j = np.nonzero(counts)[0]
    lo, hi = j * w_old, (j + 1) * w_old
    first = (lo / w_new).astype(np.int64)
    last = np.minimum(np.ceil(hi / w_new).astype(np.int64), num_bins)
    spans = last - first  # first <= j < num_bins, so never negative
    pair = np.repeat(np.arange(j.size), spans)  # index into j of each pair
    nb = first[pair] + np.arange(pair.size) - np.repeat(np.cumsum(spans) - spans, spans)
    lo, hi = lo[pair], hi[pair]
    overlap = np.minimum(hi, (nb + 1) * w_new) - np.maximum(lo, nb * w_new)
    keep = overlap > 0
    np.add.at(new, nb[keep], (counts[j[pair]] * overlap / (hi - lo))[keep])
    return new


def max_scale(values, bitwidth: int) -> QuantParams:
    """Max-calibrated scale, used for weight tensors whose values are known."""
    amax = float(np.abs(np.asarray(values)).max())
    if amax == 0.0:
        amax = 1e-8  # degenerate all-zero tensor; any scale represents it
    return QuantParams.from_clip(amax, bitwidth)


def saturate(x, qp: QuantParams) -> np.ndarray:
    """quantize's steps before the truncation toward zero, in one new
    C-ordered float64 array of x's shape: truncating it gives the quantized
    integers.

    The quotient ``q = x / scale`` loses its sign bit, gets 0.5 added and a
    cap at qmax, and takes the sign bit back, by integer operations on an
    int64 view of q: ``|q| + 0.5``, capped and signed, then truncated, rounds
    half away from zero and saturates."""
    x = np.asarray(x, dtype=np.float64)
    # IEEE division and addition are sign-symmetric, so this equals
    # clip(trunc(x / scale + copysign(0.5, x)), -qmax, qmax) bit for bit.
    # Division by a positive scale keeps x's sign bit, NaN and -0.0 included,
    # so the bits equal abs and copysign's. The division writes a new
    # C-ordered array whatever x's strides (a head-split view or a swapaxes),
    # every later step works in place (out=, so that 0-d input gives an
    # array, not a scalar), and x is only read. The saved sign is one int64
    # temporary, freed on return.
    q = np.divide(x, qp.scale, out=np.empty(x.shape))
    bits = q.view(np.int64)
    sign = bits & _SIGN_BIT
    bits ^= sign
    q += 0.5
    np.minimum(q, qp.qmax, out=q)
    bits |= sign
    return q


def quantize(x, qp: QuantParams) -> np.ndarray:
    """Saturating quantization with half-away-from-zero rounding; the int32
    cast truncates ``saturate``'s values toward zero."""
    return saturate(x, qp).astype(np.int32)


def dequantize(q, qp: QuantParams) -> np.ndarray:
    return np.asarray(q, dtype=np.float64) * qp.scale


def fake_quant_ste_grad(upstream_grad, x, qp: QuantParams | None) -> np.ndarray:
    """STE backward of fake quantization: pass inside the clip, zero outside;
    with no scale (an unquantized operand) everything passes."""
    upstream_grad = np.asarray(upstream_grad)
    x = np.asarray(x)
    if upstream_grad.shape != x.shape:
        raise ValueError("gradient and input shapes must match")
    return upstream_grad if qp is None else upstream_grad * (np.abs(x) <= qp.clip)


def save_scale_map(scales: dict[str, float], path: str) -> None:
    with open(path, "w") as f:
        json.dump(dict(sorted(scales.items())), f, indent=2)
        f.write("\n")
