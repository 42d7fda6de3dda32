"""Approximate signed integer multipliers, product LUTs and error metrics.

A multiplier is described behaviorally (exact, LSB truncation, partial-product
perforation, or an externally supplied LUT) together with its hardware cost
(power/area/delay). For bitwidths up to 12 the full product table can be
enumerated into a dense LUT that replaces the multiply operator during
emulation.
"""

from __future__ import annotations

import hashlib
import json
import re
import struct
from dataclasses import dataclass

import numpy as np

LUT_MAGIC = b"AXLUT\x00"
LUT_VERSION = 1
MAX_LUT_BITWIDTH = 12

KINDS = ("exact", "truncate_lsb", "perforate_pp", "external")


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
        if self.kind not in KINDS:
            raise ValueError(f"unknown multiplier kind {self.kind!r}")
        if not 2 <= self.bitwidth <= 16:
            raise ValueError(f"bitwidth must be in [2, 16], got {self.bitwidth}")
        if not 0 <= self.k < self.bitwidth:
            raise ValueError(f"k must satisfy 0 <= k < bitwidth, got k={self.k}")
        if not 0 <= self.r < self.bitwidth:
            raise ValueError(f"r must satisfy 0 <= r < bitwidth, got r={self.r}")
        if self.kind == "external" and not self.lut_path:
            raise ValueError("external multiplier requires lut_path")
        for attr in ("power_mw", "area_um2", "delay_ns"):
            if getattr(self, attr) < 0:
                raise ValueError(f"{attr} must be >= 0")

    @property
    def operand_min(self) -> int:
        return -(1 << (self.bitwidth - 1))

    @property
    def operand_max(self) -> int:
        return (1 << (self.bitwidth - 1)) - 1


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

    When the table is an outer product of two integer vectors,
    ``entries == outer(f, g)``, ``factors`` holds ``(f, g)`` as read-only
    float64 arrays (otherwise None). Every exact, truncating and perforating
    multiplier has such a table.
    """

    def __init__(self, bitwidth: int, entries: np.ndarray):
        n = 1 << bitwidth
        entries = np.asarray(entries, dtype=np.int32)
        if entries.shape != (n, n):
            raise ValueError(f"expected {n}x{n} entries for bitwidth {bitwidth}")
        entries = entries.copy()
        entries.setflags(write=False)
        self.bitwidth = bitwidth
        self.entries = entries
        self.max_abs = max(int(entries.max()), -int(entries.min()))
        self.factors = _rank1_factors(entries)
        self._offset = 1 << (bitwidth - 1)

    def encode(self, x):
        # add in intp: the offset does not fit a narrow operand dtype
        return np.add(x, self._offset, dtype=np.intp)

    def __eq__(self, other):
        return (isinstance(other, ProductLut)
                and self.bitwidth == other.bitwidth
                and np.array_equal(self.entries, other.entries))


def _rank1_factors(entries: np.ndarray):
    """Integer (f, g) with ``outer(f, g) == entries`` exactly, or None.

    g is the first nonzero row divided by the gcd of its entries; f is the
    column at g's first nonzero entry divided by that entry. Any integer
    rank-1 table factors this way with integer f and g.
    """
    table = entries.astype(np.int64)
    rows = np.flatnonzero(table.any(axis=1))
    if rows.size == 0:
        f = g = np.zeros(table.shape[0], dtype=np.int64)
    else:
        row = table[rows[0]]
        g = row // np.gcd.reduce(row)
        j0 = int(np.flatnonzero(g)[0])
        f = table[:, j0] // g[j0]
        if not np.array_equal(np.outer(f, g), table):
            return None
    factors = (f.astype(np.float64), g.astype(np.float64))
    for t in factors:
        t.setflags(write=False)
    return factors


def _check_range(m_or_b, x, name: str):
    b = m_or_b.bitwidth if isinstance(m_or_b, (AxMultiplier, ProductLut)) else m_or_b
    lo, hi = -(1 << (b - 1)), (1 << (b - 1)) - 1
    arr = np.asarray(x)
    if arr.size and (arr.min() < lo or arr.max() > hi):
        raise ValueError(
            f"operand {name} out of range [{lo}, {hi}] for {b}-bit multiplier")


def _truncate(v, k):
    # Masking k LSBs of the two's complement encoding rounds toward -inf.
    return (v >> k) << k


_external_cache: dict[str, "ProductLut"] = {}


def _external_lut(m: AxMultiplier) -> ProductLut:
    lut = _external_cache.get(m.lut_path)
    if lut is None:
        lut = load_lut(m.lut_path)
        _external_cache[m.lut_path] = lut
    if lut.bitwidth != m.bitwidth:
        raise ValueError(
            f"external LUT bitwidth {lut.bitwidth} != multiplier bitwidth {m.bitwidth}")
    return lut


def _product_array(m: AxMultiplier, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized approximate product; operands already range-checked."""
    x = x.astype(np.int64)
    y = y.astype(np.int64)
    if m.kind == "exact":
        return x * y
    if m.kind == "truncate_lsb":
        return _truncate(x, m.k) * _truncate(y, m.k)
    if m.kind == "perforate_pp":
        b = m.bitwidth
        ybits = y & ((1 << b) - 1)  # two's complement bit pattern
        acc = np.zeros(np.broadcast(x, y).shape, dtype=np.int64)
        for j in range(m.r, b):
            bit = (ybits >> j) & 1
            row = (x << j) * bit
            acc += -row if j == b - 1 else row
        return acc
    lut = _external_lut(m)
    return lut.entries[lut.encode(x), lut.encode(y)].astype(np.int64)


def approx_product(m: AxMultiplier, x: int, y: int) -> int:
    """Approximate product of two signed integers (functional mode).

    Deterministic: the result depends only on (x, y).
    """
    _check_range(m, x, "x")
    _check_range(m, y, "y")
    return int(_product_array(m, np.asarray(x), np.asarray(y)))


def approx_products(m: AxMultiplier, x, y) -> np.ndarray:
    """Broadcasting array version of approx_product."""
    x = np.asarray(x)
    y = np.asarray(y)
    _check_range(m, x, "x")
    _check_range(m, y, "y")
    return _product_array(m, x, y)


def build_lut(m: AxMultiplier) -> ProductLut:
    """Enumerate all 2**(2b) operand pairs into a product LUT."""
    if m.bitwidth > MAX_LUT_BITWIDTH:
        raise ValueError(
            f"bitwidth {m.bitwidth} exceeds LUT cap of {MAX_LUT_BITWIDTH} bits; "
            "use functional mode (approx_product) instead")
    ops = np.arange(m.operand_min, m.operand_max + 1, dtype=np.int64)
    table = _product_array(m, ops[:, None], ops[None, :])
    return ProductLut(m.bitwidth, table)


def lut_lookup(lut: ProductLut, x, y):
    """Product lookup; total for in-range operands."""
    _check_range(lut, x, "x")
    _check_range(lut, y, "y")
    out = lut.entries[lut.encode(x), lut.encode(y)]
    return int(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def error_metrics(m: AxMultiplier) -> ErrorMetrics:
    """Exhaustive MAE/WCE/MRE percentages vs exact multiplication.

    Absolute errors are normalized by 2**(2b-2), the maximum exact product
    magnitude; MRE skips pairs whose exact product is zero.
    """
    if m.bitwidth > MAX_LUT_BITWIDTH:
        raise ValueError("error metrics require exhaustive enumeration (bitwidth <= 12)")
    ops = np.arange(m.operand_min, m.operand_max + 1, dtype=np.int64)
    approx = _product_array(m, ops[:, None], ops[None, :])
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
        data = np.frombuffer(f.read(4 * n * n), dtype="<i4")
        if data.size != n * n:
            raise ValueError(f"{path}: truncated AXLUT payload")
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after AXLUT payload")
    return ProductLut(bitwidth, data.reshape(n, n))


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

    def __len__(self):
        return len(self._mults)

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


def parse_multiplier_spec(spec: str, **hw) -> AxMultiplier:
    """Parse compact specs like ``exact8``, ``trunc8k2`` or ``perf8r1``."""
    match = _SPEC_RE.match(spec)
    if not match:
        raise ValueError(f"cannot parse multiplier spec {spec!r} "
                         "(expected exact<b>, trunc<b>k<k> or perf<b>r<r>)")
    base, b, pk, pv = match.groups()
    b = int(b)
    if base == "exact":
        if pk is not None:
            raise ValueError(f"exact multiplier takes no parameter: {spec!r}")
        return AxMultiplier(spec, b, "exact", **hw)
    if pk is None:
        raise ValueError(f"{spec!r} is missing its parameter")
    if base == "trunc":
        if pk != "k":
            raise ValueError(f"truncation parameter must be k: {spec!r}")
        return AxMultiplier(spec, b, "truncate_lsb", k=int(pv), **hw)
    if pk != "r":
        raise ValueError(f"perforation parameter must be r: {spec!r}")
    return AxMultiplier(spec, b, "perforate_pp", r=int(pv), **hw)


def save_catalog(catalog: Catalog, path: str) -> None:
    rows = []
    for m in catalog:
        row = {"name": m.name, "bitwidth": m.bitwidth, "kind": m.kind,
               "power_mw": m.power_mw, "area_um2": m.area_um2, "delay_ns": m.delay_ns}
        if m.kind == "truncate_lsb":
            row["k"] = m.k
        elif m.kind == "perforate_pp":
            row["r"] = m.r
        elif m.kind == "external":
            row["lut_path"] = m.lut_path
        rows.append(row)
    with open(path, "w") as f:
        json.dump(rows, f, indent=2)
        f.write("\n")


def load_catalog(path: str) -> Catalog:
    with open(path) as f:
        try:
            rows = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{exc.lineno}: {exc.msg}") from None
    catalog = Catalog()
    for i, row in enumerate(rows):
        try:
            catalog.add(AxMultiplier(**row))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: entry {i}: {exc}") from None
    return catalog
