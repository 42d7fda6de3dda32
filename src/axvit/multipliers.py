"""Approximate signed integer multipliers, product LUTs and error metrics.

A multiplier is described behaviorally (exact, LSB truncation, partial-product
perforation, or an externally supplied LUT) together with its hardware cost
(power/area/delay). Its bitwidth is at most MAX_LUT_BITWIDTH (12), so its
full product table can always be enumerated into a dense LUT, which replaces
the multiply operator during emulation.
"""

from __future__ import annotations

import hashlib
import json
import re
import struct
from dataclasses import dataclass

import numpy as np

from .quant import signed_range

LUT_MAGIC = b"AXLUT\x00"
LUT_VERSION = 1
MAX_LUT_BITWIDTH = 12

# The one parameter each kind takes; a parameter a kind does not take must
# keep its field default.
KIND_PARAM = {"exact": None, "truncate_lsb": "k", "perforate_pp": "r", "external": "lut_path"}


@dataclass(frozen=True)
class AxMultiplier:
    """A named approximate multiplier for signed two's-complement operands."""

    name: str
    bitwidth: int
    kind: str = "exact"
    k: int = 0                  # truncate_lsb: LSBs masked per operand
    r: int = 0                  # perforate_pp: lowest partial-product rows dropped
    lut_path: str | None = None  # external: path to an AXLUT file
    power_mw: float = 0.0
    area_um2: float = 0.0
    delay_ns: float = 0.0

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"name must be a non-empty string, got {self.name!r}")
        if self.kind not in KIND_PARAM:
            raise ValueError(f"unknown multiplier kind {self.kind!r}")
        for attr in ("bitwidth", "k", "r"):
            if type(getattr(self, attr)) is not int:
                raise ValueError(f"{attr} must be an integer, got {getattr(self, attr)!r}")
        # the table cap: every multiplier runs as a ProductLut
        if not 2 <= self.bitwidth <= MAX_LUT_BITWIDTH:
            raise ValueError(f"bitwidth must be in [2, {MAX_LUT_BITWIDTH}], got {self.bitwidth}")
        for param in filter(None, KIND_PARAM.values()):
            value = getattr(self, param)
            if param != KIND_PARAM[self.kind] and value != getattr(AxMultiplier, param):
                raise ValueError(f"{self.kind} multiplier takes no {param}, got {value!r}")
        for param in ("k", "r"):
            if not 0 <= getattr(self, param) < self.bitwidth:
                raise ValueError(f"{param} must satisfy 0 <= {param} < bitwidth, "
                                 f"got {param}={getattr(self, param)}")
        if self.kind == "external" and not self.lut_path:
            raise ValueError("external multiplier requires lut_path")
        for attr in ("power_mw", "area_um2", "delay_ns"):
            if not 0 <= getattr(self, attr) < np.inf:
                raise ValueError(f"{attr} must be finite and >= 0, got {getattr(self, attr)!r}")


@dataclass(frozen=True)
class ErrorMetrics:
    """Error of an approximate multiplier vs exact, over all operand pairs."""

    mae_pct: float
    wce_pct: float
    mre_pct: float


class ProductLut:
    """Dense table of approximate products for every signed operand pair.

    Row/column indices use the offset encoding ``x + 2**(b-1)``, so index 0
    corresponds to the most negative operand. Entries are immutable int32.

    A table built by ``from_truncations`` (as ``build_lut`` builds every
    behavioral multiplier's) keeps ``truncations = (kx, ky)``: its entry for
    (x, y) is ``trunc(x, kx) * trunc(y, ky)``. A table given by its entries,
    such as a loaded AXLUT file, has ``truncations = None``, even when it
    happens to be such a product.
    """

    def __init__(self, bitwidth: int, entries: np.ndarray):
        n = 1 << bitwidth
        entries = np.asarray(entries)
        if entries.shape != (n, n):
            raise ValueError(f"expected {n}x{n} entries for bitwidth {bitwidth}")
        # check before the cast: casting to int32 wraps what does not fit
        lo, hi = int(entries.min()), int(entries.max())
        if lo < signed_range(32)[0] or hi > signed_range(32)[1]:
            raise ValueError(f"LUT entries span [{lo}, {hi}], outside the int32 range")
        entries = entries.astype(np.int32)
        entries.setflags(write=False)
        self.bitwidth = bitwidth
        self.entries = entries
        self.max_abs = max(hi, -lo)
        self.truncations = None

    @classmethod
    def from_truncations(cls, bitwidth: int, kx: int, ky: int) -> "ProductLut":
        """The table of ``trunc(x, kx) * trunc(y, ky)``."""
        ops = _operands(bitwidth)
        lut = cls(bitwidth, np.outer(_truncate(ops, kx), _truncate(ops, ky)))
        lut.truncations = (kx, ky)
        return lut

    def encode(self, x):
        """Table indices of the operands; raises if one is not an integer or
        is outside the table's signed range."""
        _check_range(self.bitwidth, x, "operand")
        # add in intp: the offset does not fit a narrow operand dtype
        return np.add(x, -signed_range(self.bitwidth)[0], dtype=np.intp)


def _check_range(bitwidth: int, x, what: str):
    lo, hi = signed_range(bitwidth)
    arr = np.asarray(x)
    # by dtype, not by value: a float operand would be cast toward zero
    if arr.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got {arr.dtype}")
    if arr.size and (arr.min() < lo or arr.max() > hi):
        raise ValueError(f"{what} out of range [{lo}, {hi}] for {bitwidth}-bit multiplier")


def _truncate(v, k: int):
    """trunc(v, k): v with its k LSBs masked (rounding toward -inf), shifted
    in int32 so that a narrow operand dtype cannot wrap; v itself at k = 0."""
    if k:
        v = np.right_shift(v, k, dtype=np.int32)
        v <<= k
    return v


def _truncations(m: AxMultiplier) -> tuple[int, int]:
    """LSBs masked in (x, y): a behavioral product is
    ``trunc(x, kx) * trunc(y, ky)``. Dropping the r lowest partial-product
    rows of x * y leaves the rows of y's bits r and up, which sum to
    ``x * trunc(y, r)``."""
    return {"exact": (0, 0), "truncate_lsb": (m.k, m.k), "perforate_pp": (0, m.r)}[m.kind]


def _external_lut(m: AxMultiplier) -> ProductLut:
    lut = load_lut(m.lut_path)
    if lut.bitwidth != m.bitwidth:
        raise ValueError(
            f"external LUT bitwidth {lut.bitwidth} != multiplier bitwidth {m.bitwidth}")
    return lut


def _product_array(m: AxMultiplier, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized approximate product; operands already range-checked."""
    if m.kind == "external":
        lut = _external_lut(m)
        return lut.entries[lut.encode(x), lut.encode(y)].astype(np.int64)
    kx, ky = _truncations(m)
    return np.multiply(_truncate(x.astype(np.int64), kx), _truncate(y.astype(np.int64), ky),
                       dtype=np.int64)


def _operands(bitwidth: int) -> np.ndarray:
    """Every signed operand of ``bitwidth`` bits, ascending (table order)."""
    lo, hi = signed_range(bitwidth)
    return np.arange(lo, hi + 1, dtype=np.int64)


def approx_product(m: AxMultiplier, x: int, y: int) -> int:
    """Approximate product of two signed integers (``approx_products``)."""
    return int(approx_products(m, x, y))


def approx_products(m: AxMultiplier, x, y) -> np.ndarray:
    """Broadcasting array version of approx_product. A behavioral
    multiplier's products depend only on (x, y). An external multiplier's
    are read from its AXLUT file, which each call loads and parses again:
    a file rewritten between two calls changes their products, and a call
    costs the whole load. ``Catalog.lut`` loads a table once and keeps it."""
    x = np.asarray(x)
    y = np.asarray(y)
    _check_range(m.bitwidth, x, "operand x")
    _check_range(m.bitwidth, y, "operand y")
    return _product_array(m, x, y)


def build_lut(m: AxMultiplier) -> ProductLut:
    """The product LUT over all 2**(2b) operand pairs: a behavioral
    multiplier's is the outer product of its truncated operands, an external
    multiplier's is the table it loads."""
    if m.kind == "external":
        return _external_lut(m)
    return ProductLut.from_truncations(m.bitwidth, *_truncations(m))


def lut_lookup(lut: ProductLut, x, y):
    """Product lookup; total for in-range operands."""
    out = lut.entries[lut.encode(x), lut.encode(y)]
    return int(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def error_metrics(m: AxMultiplier) -> ErrorMetrics:
    """Exhaustive MAE/WCE/MRE percentages vs exact multiplication.

    Absolute errors are normalized by 2**(2b-2), the maximum exact product
    magnitude; MRE skips pairs whose exact product is zero.
    """
    approx = build_lut(m).entries
    ops = _operands(m.bitwidth)
    exact = ops[:, None] * ops[None, :]
    diff = np.abs(approx - exact).astype(np.float64)
    norm = float(1 << (2 * m.bitwidth - 2))
    mae = diff.mean() / norm * 100.0
    wce = diff.max() / norm * 100.0
    nz = exact != 0
    mre = (diff[nz] / np.abs(exact[nz])).mean() * 100.0 if nz.any() else 0.0
    return ErrorMetrics(mae_pct=float(mae), wce_pct=float(wce), mre_pct=float(mre))


# ---------------------------------------------------------------------------
# LUT binary format: magic "AXLUT\0", version byte, bitwidth byte, signedness
# byte (1 = signed), then 2**(2b) little-endian int32 products in row-major
# encode(x)-then-encode(y) order.
# ---------------------------------------------------------------------------

def save_lut(lut: ProductLut, path: str) -> None:
    payload = lut.entries.astype("<i4").tobytes(order="C")
    with open(path, "wb") as f:
        f.write(LUT_MAGIC)
        f.write(struct.pack("<BBB", LUT_VERSION, lut.bitwidth, 1))
        f.write(payload)


def load_lut(path: str) -> ProductLut:
    with open(path, "rb") as f:
        header = f.read(len(LUT_MAGIC) + 3)
        if header[:len(LUT_MAGIC)] != LUT_MAGIC:
            raise ValueError(f"{path}: not an AXLUT file (bad magic)")
        if len(header) != len(LUT_MAGIC) + 3:
            raise ValueError(f"{path}: truncated AXLUT header")
        version, bitwidth, signedness = header[len(LUT_MAGIC):]
        if version != LUT_VERSION:
            raise ValueError(f"{path}: unsupported AXLUT version {version}")
        if signedness != 1:
            raise ValueError(f"{path}: only signed LUTs are supported")
        if not 2 <= bitwidth <= MAX_LUT_BITWIDTH:
            raise ValueError(f"{path}: AXLUT bitwidth {bitwidth} outside "
                             f"[2, {MAX_LUT_BITWIDTH}]")
        n = 1 << bitwidth
        payload = f.read(4 * n * n)
        if len(payload) != 4 * n * n:
            raise ValueError(f"{path}: truncated AXLUT payload")
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after AXLUT payload")
    return ProductLut(bitwidth, np.frombuffer(payload, dtype="<i4").reshape(n, n))


def lut_checksum(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

class Catalog:
    """Named multiplier collection with cached product LUTs."""

    def __init__(self, multipliers=()):
        self._mults: dict[str, AxMultiplier] = {}
        self._luts: dict[str, ProductLut] = {}
        for m in multipliers:
            self.add(m)

    def add(self, m: AxMultiplier) -> None:
        if m.name in self._mults:
            raise ValueError(f"duplicate multiplier name {m.name!r}")
        self._mults[m.name] = m

    def get(self, name: str) -> AxMultiplier:
        try:
            return self._mults[name]
        except KeyError:
            raise KeyError(f"unknown multiplier {name!r}; "
                           f"catalog has {sorted(self._mults)}") from None

    def lut(self, name: str) -> ProductLut:
        if name not in self._luts:
            self._luts[name] = build_lut(self.get(name))
        return self._luts[name]

    def names(self) -> list[str]:
        return list(self._mults)

    def __contains__(self, name):
        return name in self._mults

    def __iter__(self):
        return iter(self._mults.values())


# Built-in presets. Power/area/delay follow published 45nm figures for the
# EvoApprox mul8s family; the behavioral kinds are stand-ins with comparable
# error ordering (the cost model only depends on the hardware numbers).
EXACT_BASELINE_NAME = "mul8s_1KV6"

_PRESETS = (
    AxMultiplier("mul8s_1KV6", 8, "exact", power_mw=0.425, area_um2=729.8, delay_ns=1.48),
    AxMultiplier("mul8s_1KV9", 8, "truncate_lsb", k=1, power_mw=0.410, area_um2=685.2, delay_ns=1.47),
    AxMultiplier("mul8s_1L2H", 8, "truncate_lsb", k=2, power_mw=0.301, area_um2=558.8, delay_ns=1.36),
    AxMultiplier("mul8s_1L2L", 8, "truncate_lsb", k=3, power_mw=0.200, area_um2=411.6, delay_ns=1.14),
)


def builtin_catalog() -> Catalog:
    return Catalog(_PRESETS)


_SPEC_RE = re.compile(r"^(exact|trunc|perf)(\d+)(?:([kr])(\d+))?$")
_SPEC_KINDS = {"exact": "exact", "trunc": "truncate_lsb", "perf": "perforate_pp"}


def parse_multiplier_spec(spec: str, **hw) -> AxMultiplier:
    """Parse compact specs like ``exact8``, ``trunc8k2`` or ``perf8r1``."""
    match = _SPEC_RE.match(spec)
    if not match:
        raise ValueError(f"cannot parse multiplier spec {spec!r} "
                         "(expected exact<b>, trunc<b>k<k> or perf<b>r<r>)")
    base, b, pk, pv = match.groups()
    kind = _SPEC_KINDS[base]
    param = KIND_PARAM[kind]
    if pk != param:
        raise ValueError(f"{spec!r}: kind {kind} takes "
                         + (f"parameter {param}" if param else "no parameter"))
    return AxMultiplier(spec, int(b), kind, **({pk: int(pv)} if pk else {}), **hw)


def load_catalog(path: str) -> Catalog:
    with open(path) as f:
        try:
            rows = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{exc.lineno}: {exc.msg}") from None
    if not isinstance(rows, list):
        raise ValueError(f"{path}: expected a JSON list of multipliers, "
                         f"got {type(rows).__name__}")
    catalog = Catalog()
    for i, row in enumerate(rows):
        try:
            catalog.add(AxMultiplier(**row))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: entry {i}: {exc}") from None
    return catalog
