"""Property tests of the LUT matmul kernels against the one-shot gather oracle
and the bit-level product oracles, and of the quantizer against its original
sign/floor formula."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from axvit.model import (PreparedOperand, _prepares, axx_matmul, evaluate_accuracy,
                         prepare_operand, vit_forward)
from axvit.multipliers import (MAX_LUT_BITWIDTH, AxMultiplier, Catalog, ProductLut,
                               _truncate, approx_product, approx_products, build_lut,
                               builtin_catalog, load_lut, lut_lookup,
                               parse_multiplier_spec, save_lut)
from axvit.quant import QuantParams, quantize, saturate
from oracles import (copysign_saturate, gather_matmul, perforated_product,
                     sign_floor_quantize, truncate_operand, truncated_product)

SPECS = ("exact8", "trunc8k1", "trunc8k2", "trunc8k3", "perf8r1", "perf8r2", "perf8r3")
SPEC_LUTS = {spec: build_lut(parse_multiplier_spec(spec)) for spec in SPECS}


def noisy_exact_lut(seed, bitwidth=8):
    """Exact products plus seeded errors in [-8, 8] on a quarter of the
    entries, like the external table of the benchmark."""
    ops = np.arange(-(1 << (bitwidth - 1)), 1 << (bitwidth - 1), dtype=np.int64)
    table = ops[:, None] * ops[None, :]
    rng = np.random.default_rng(seed)
    errors = rng.integers(-8, 9, size=table.shape) * (rng.random(table.shape) < 0.25)
    return ProductLut(bitwidth, table + errors)


@st.composite
def rank1_luts(draw):
    """Random integer outer-product tables with int32 entries, given by their
    entries, so they run the gather."""
    bitwidth = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bound = draw(st.sampled_from((2, 200, 10000)))  # sums of six stay in int32
    n = 1 << bitwidth
    f = rng.integers(-bound, bound + 1, size=n)
    g = rng.integers(-bound, bound + 1, size=n)
    return ProductLut(bitwidth, np.outer(f, g))


@st.composite
def general_luts(draw):
    """Random tables, almost never rank 1."""
    bitwidth = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 1 << bitwidth
    return ProductLut(bitwidth, rng.integers(-(1 << 24), 1 << 24, size=(n, n)))


any_lut = st.one_of(st.sampled_from(list(SPEC_LUTS.values())), rank1_luts(),
                    general_luts(),
                    st.integers(0, 2**32 - 1).map(noisy_exact_lut))


@settings(max_examples=150, deadline=None)
@given(lut=any_lut, data=st.data())
def test_axx_matmul_equals_gather_oracle(lut, data):
    shapes = data.draw(hnp.mutually_broadcastable_shapes(
        signature="(m,k),(k,n)->(m,n)", max_dims=2, min_side=0, max_side=6))
    # every table here is at most 8 bits wide, so its operands fit int8
    dtype = data.draw(st.sampled_from((np.int32, np.int8, np.int16, np.uint8)))
    lo, hi = -(1 << (lut.bitwidth - 1)), (1 << (lut.bitwidth - 1)) - 1
    lo = max(lo, np.iinfo(dtype).min)
    a_shape, b_shape = shapes.input_shapes
    a = data.draw(hnp.arrays(dtype, a_shape, elements=st.integers(lo, hi)))
    b = data.draw(hnp.arrays(dtype, b_shape, elements=st.integers(lo, hi)))
    got = axx_matmul(a, b, lut)
    assert got.dtype == np.int32
    assert got.shape == shapes.result_shape
    assert np.array_equal(got, gather_matmul(a, b, lut.entries))


@st.composite
def row_counts_and_shapes(draw, bitwidth):
    """The shape of ``a`` with 2**b - 1, 2**b or more rows in all, split
    over an optional leading dim; zero rows and zero depth included."""
    n = 1 << bitwidth
    rows = draw(st.one_of(st.sampled_from((0, n - 1, n)), st.integers(n + 1, 3 * n)))
    depth = draw(st.integers(0, 6))
    if draw(st.booleans()):
        # zero rows split as (lead, 0)
        divisors = [d for d in range(1, rows + 1) if rows % d == 0] or [1, 2, 3]
        lead = draw(st.sampled_from(divisors))
        return (lead, rows // lead, depth)
    return (rows, depth)


@settings(max_examples=150, deadline=None)
@given(lut=general_luts(), data=st.data())
def test_row_gather_equals_gather_oracle(lut, data):
    # one 2-D b shared by around 2**b rows of a: the row gather runs from
    # 2**b rows on, the step gather below
    a_shape = data.draw(row_counts_and_shapes(lut.bitwidth))
    b_shape = (a_shape[-1], data.draw(st.integers(0, 6)))
    dtype = data.draw(st.sampled_from((np.int32, np.int8, np.int16, np.uint8)))
    lo, hi = -(1 << (lut.bitwidth - 1)), (1 << (lut.bitwidth - 1)) - 1
    lo = max(lo, np.iinfo(dtype).min)
    a = data.draw(hnp.arrays(dtype, a_shape, elements=st.integers(lo, hi)))
    b = data.draw(hnp.arrays(dtype, b_shape, elements=st.integers(lo, hi)))
    got = axx_matmul(a, b, lut)
    assert got.dtype == np.int32
    assert got.shape == a_shape[:-1] + b_shape[-1:]
    assert np.array_equal(got, gather_matmul(a, b, lut.entries))


@pytest.mark.parametrize("a_shape, n", [((16, 0), 3), ((2, 8, 0), 3), ((0, 4), 3),
                                        ((3, 0, 4), 3), ((16, 4), 0)],
                         ids=["depth0", "lead-depth0", "rows0", "lead-rows0", "cols0"])
def test_row_gather_empty_operands(a_shape, n):
    lut = noisy_exact_lut(seed=2, bitwidth=2)
    a = np.ones(a_shape, dtype=np.int8)
    b = np.ones(a_shape[-1:] + (n,), dtype=np.int8)
    got = axx_matmul(a, b, lut)
    assert got.dtype == np.int32 and got.shape == a_shape[:-1] + (n,)
    assert np.array_equal(got, gather_matmul(a, b, lut.entries))


# (a, b) shapes of the weight matmuls in the benchmark's search model (probe
# batch 16, L=6, d=16, ffn 32) and finetune model (batch 32, d=32, ffn 64)
SEARCH_SHAPES = [((16, 16, 16), (16, 16)), ((16, 16, 16), (16, 32)),
                 ((16, 16, 32), (32, 16))]
FINETUNE_SHAPES = [((32, 16, 32), (32, 32)), ((32, 16, 32), (32, 64)),
                   ((32, 16, 64), (64, 32))]
WEIGHT_SHAPE_IDS = [f"{w}-{math.prod(a[:-1])}x{a[-1]}x{b[-1]}"
                    for w, shapes in (("search", SEARCH_SHAPES), ("finetune", FINETUNE_SHAPES))
                    for a, b in shapes]


@pytest.mark.parametrize("a_shape, b_shape", SEARCH_SHAPES + FINETUNE_SHAPES,
                         ids=WEIGHT_SHAPE_IDS)
def test_row_gather_at_benchmark_shapes(a_shape, b_shape):
    lut = noisy_exact_lut(seed=5)
    rng = np.random.default_rng(6)
    a = rng.integers(-128, 128, size=a_shape, dtype=np.int32)
    b = rng.integers(-128, 128, size=b_shape, dtype=np.int32)
    assert np.array_equal(axx_matmul(a, b, lut), gather_matmul(a, b, lut.entries))


# (a, b) shapes of the attention matmuls, q @ k^T and attn @ v per head
ATTENTION_SHAPES = [((32, 2, 16, 16), (32, 2, 16, 16)),  # finetune: both
                    ((16, 2, 16, 8), (16, 2, 8, 16)),    # search: q @ k^T
                    ((16, 2, 16, 16), (16, 2, 16, 8))]   # search: attn @ v


@pytest.mark.parametrize("a_shape, b_shape", ATTENTION_SHAPES + [
    ((512, 32), (1, 32, 64)),  # one weight given with a leading dim
], ids=["finetune-attention", "search-scores", "search-attn-v", "b-leading-1"])
def test_batched_b_runs_the_step_gather(a_shape, b_shape):
    lut = noisy_exact_lut(seed=7)
    rng = np.random.default_rng(8)
    a = rng.integers(-128, 128, size=a_shape, dtype=np.int32)
    b = rng.integers(-128, 128, size=b_shape, dtype=np.int32)
    assert np.array_equal(axx_matmul(a, b, lut), gather_matmul(a, b, lut.entries))


class _TakeLog(np.ndarray):
    """An array that logs the axis and the row count of every ``take`` made
    from it or from the arrays it begets (views, row slices, flattenings,
    take results)."""

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)

    def take(self, indices, axis=None, **kwargs):
        self.log.append((axis, self.shape[0]))
        return super().take(indices, axis=axis, **kwargs)


@pytest.mark.parametrize("a_shape, b_shape, row_slab", [
    (a, b, True) for a, b in SEARCH_SHAPES + FINETUNE_SHAPES] + [
    (a, b, False) for a, b in ATTENTION_SHAPES],
    ids=WEIGHT_SHAPE_IDS + ["finetune-attention", "search-scores", "search-attn-v"])
def test_benchmark_shapes_reach_their_gather(a_shape, b_shape, row_slab):
    # the weight matmuls take, per inner index t, a column slice (axis 1) of
    # the table rows that a's column t reaches, hi_t - lo_t + 1 of them; the
    # attention matmuls look products up in the flat table (no axis), one
    # M x N slab per inner index. Each column of a spans its own band, so a
    # slice of all 2**b rows would show
    lut = noisy_exact_lut(seed=11)
    table = lut.entries.view(_TakeLog)
    table.log = []
    lut.entries = table
    rng = np.random.default_rng(12)
    width = rng.integers(0, 128, size=a_shape[-1])
    a = rng.integers(-width - 1, width + 1, size=a_shape).astype(np.int32)
    b = rng.integers(-128, 128, size=b_shape, dtype=np.int32)
    got = axx_matmul(a, b, lut)
    depth = a_shape[-1]
    axes = [axis for axis, _ in table.log]
    if row_slab:
        cols = a.reshape(-1, depth)
        spans = (cols.max(axis=0) - cols.min(axis=0) + 1).tolist()
        assert [rows for axis, rows in table.log if axis == 1] == spans
        assert max(spans) < 1 << lut.bitwidth and None not in axes
    else:
        assert axes == [None] * depth
    assert np.array_equal(got, gather_matmul(a, b, np.asarray(lut.entries)))


@st.composite
def banded_operands(draw, bitwidth):
    """a for the row slab, at least 2**b rows in all, maybe stacked or
    F-ordered: each of its columns spans one value, a narrow band away from
    both ends of the table, or the whole signed range."""
    n = 1 << bitwidth
    lo, hi = -(n >> 1), (n >> 1) - 1
    rows, depth = draw(st.integers(n, 2 * n)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = np.empty((rows, depth), dtype=np.int32)
    for t in range(depth):
        kind = draw(st.sampled_from(("one", "band", "full")))
        if kind == "one":
            a[:, t] = draw(st.integers(lo, hi))
        elif kind == "band":
            first = draw(st.integers(lo + 1, hi - 1))
            last = draw(st.integers(first, min(first + 3, hi - 1)))
            a[:, t] = rng.integers(first, last + 1, size=rows)
        else:
            a[:, t] = rng.integers(lo, hi + 1, size=rows)
            a[rng.choice(rows, 2, replace=False), t] = lo, hi
    lead = draw(st.sampled_from([d for d in (1, 2, 3, 4) if rows % d == 0]))
    if lead > 1:
        a = a.reshape(lead, rows // lead, depth)
    return np.asfortranarray(a) if draw(st.booleans()) else a


@settings(max_examples=150, deadline=None)
@given(bitwidth=st.integers(2, 8), wide=st.booleans(), data=st.data())
def test_sliced_row_slab_equals_gather_oracle(bitwidth, wide, data):
    # a wide table has one entry of 2**30, so any depth past 1 is past the
    # static int32 bound: its accumulator is int64 and scanned, and a sum
    # outside int32 raises where the oracle's int64 sum leaves it
    seed = data.draw(st.integers(0, 2**32 - 1))
    lut = noisy_exact_lut(seed, bitwidth)
    if wide:
        entries = np.array(lut.entries, dtype=np.int64)
        entries[0, 0] = 1 << 30
        lut = ProductLut(bitwidth, entries)
    a = data.draw(banded_operands(bitwidth))
    n = 1 << bitwidth
    b = np.random.default_rng(seed).integers(-(n >> 1), n >> 1,
                                             size=(a.shape[-1], data.draw(st.integers(1, 5))))
    want = gather_matmul(a, b, lut.entries)
    if want.min() < -2**31 or want.max() > 2**31 - 1:
        with pytest.raises(OverflowError, match="accumulator overflow in axx_matmul"):
            axx_matmul(a, b, lut)
        return
    got = axx_matmul(a, b, lut)
    assert got.dtype == np.int32 and np.array_equal(got, want)


def _peak_bytes(call):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak - base


def test_gather_peak_memory_is_far_below_the_weight_product_table():
    # no 2**b * K * N table of weight products (2 MiB of int32 at 8 bits,
    # K=32, N=64) is built: the row slab's temporaries are the encoded
    # operands, the int32 accumulator and one 2**b x N slice, the flat
    # lookup's the encoded operands, the accumulator and one M x N index
    lut = noisy_exact_lut(seed=9)
    rng = np.random.default_rng(10)
    a = rng.integers(-128, 128, size=(512, 32), dtype=np.int32)
    b = rng.integers(-128, 128, size=(32, 64), dtype=np.int32)
    table = (1 << lut.bitwidth) * 32 * 64 * np.dtype(np.int32).itemsize
    _peak_bytes(lambda: axx_matmul(a, b, lut))  # anything set up lazily
    rows, rows_peak = _peak_bytes(lambda: axx_matmul(a, b, lut))
    flat, flat_peak = _peak_bytes(lambda: axx_matmul(a, b[None], lut))
    assert np.array_equal(rows, flat[0])
    assert rows_peak <= table / 4
    assert flat_peak < table / 2


def test_out_of_range_uint8_operand_raises():
    lut = SPEC_LUTS["exact8"]
    ones = np.ones((2, 2), dtype=np.uint8)
    with pytest.raises(ValueError, match="out of range"):
        axx_matmul(np.full((2, 2), 200, dtype=np.uint8), ones, lut)
    with pytest.raises(ValueError, match="out of range"):
        axx_matmul(ones, np.full((2, 2), 128, dtype=np.uint8), lut)
    with pytest.raises(ValueError, match="out of range"):
        lut_lookup(lut, np.uint8(128), np.uint8(1))


EXACT8 = parse_multiplier_spec("exact8")


@pytest.mark.parametrize("call, message", [
    (lambda: approx_products(EXACT8, [0.9, -1.7], 3), "operand x must be integers, got float64"),
    (lambda: approx_products(EXACT8, 3, np.float32([0.5])),
     "operand y must be integers, got float32"),
    (lambda: approx_product(EXACT8, 1.5, 2), "operand x must be integers, got float64"),
    (lambda: lut_lookup(SPEC_LUTS["exact8"], 1.5, 2), "operand must be integers, got float64"),
    (lambda: lut_lookup(SPEC_LUTS["exact8"], 2, True), "operand must be integers, got bool"),
    (lambda: axx_matmul([[1.5]], [[2]], SPEC_LUTS["exact8"]),
     "operand must be integers, got float64"),
    (lambda: axx_matmul([[2]], [[1.5]], noisy_exact_lut(seed=1)),
     "operand must be integers, got float64"),
], ids=["products-x", "products-y", "product", "lookup", "lookup-bool",
        "behavioral-table", "gather"])
def test_non_integer_operands_raise(call, message):
    """Functional mode, lookup and the gather, on a behavioral table as on
    any other, reject a float operand by its dtype, instead of casting it
    toward zero or failing inside numpy."""
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.uint8])
def test_lut_lookup_narrow_operands(dtype):
    lut = SPEC_LUTS["exact8"]
    x = np.array([0, 5, 127], dtype=dtype)
    assert lut_lookup(lut, x, dtype(3)).tolist() == [0, 15, 381]
    if dtype != np.uint8:
        assert lut_lookup(lut, dtype(-128), dtype(-1)) == 128


@pytest.mark.parametrize("entries", [np.outer(np.arange(-4, 4), np.arange(8) - 2),
                                     np.zeros((8, 8), dtype=int)], ids=["rank1", "zeros"])
def test_table_without_factors_has_none(entries):
    # rank 1 or not, a table given by its entries, not by the truncations
    # that factor it, has none and runs the gather
    assert ProductLut(3, entries).truncations is None


def test_noisy_external_table_has_no_factors():
    lut = noisy_exact_lut(seed=3)
    assert lut.truncations is None
    rng = np.random.default_rng(0)
    a = rng.integers(-128, 128, size=(4, 16, 32))
    b = rng.integers(-128, 128, size=(32, 24))
    assert np.array_equal(axx_matmul(a, b, lut), gather_matmul(a, b, lut.entries))


def test_saved_behavioral_lut_runs_as_external_multiplier(tmp_path, small_calibrated_model,
                                                         toy_data):
    spec = parse_multiplier_spec("trunc8k2")
    path = str(tmp_path / "trunc8k2.axlut")
    save_lut(build_lut(spec), path)
    catalog = Catalog([spec, AxMultiplier("ext", 8, "external", lut_path=path)])
    ext, lut = catalog.lut("ext"), catalog.lut(spec.name)
    assert ext.truncations is None and lut.truncations == (2, 2)
    assert ext.bitwidth == lut.bitwidth and np.array_equal(ext.entries, lut.entries)
    patches, labels = toy_data[0][:128], toy_data[1][:128]
    model = small_calibrated_model
    assert np.array_equal(vit_forward(model, patches, [ext] * 2),
                          vit_forward(model, patches, [lut] * 2))
    assert (evaluate_accuracy(model, patches, labels, ["ext"] * 2, catalog)
            == evaluate_accuracy(model, patches, labels, [spec.name] * 2, catalog))


def _oracle_operand(v, bitwidth, k):
    """Integers v with their k LSBs masked by the bit-level oracle, as the
    closed form's prepared operand."""
    values = np.frompyfunc(lambda x: truncate_operand(int(x), bitwidth, k), 1, 1)(v)
    return PreparedOperand(np.asarray(values, dtype=np.float64), bitwidth, k)


def test_prepares_below_the_float64_bound_only():
    # |T| reaches 2**31, so an inner dimension of 2**22 makes
    # K * max|T| = 2**53, past what float64 sums exactly
    entries = np.zeros((4, 4), dtype=np.int64)
    entries[0, 0] = -(1 << 31)
    lut = ProductLut(2, entries)
    lut.truncations = (0, 0)
    assert _prepares(lut, 2, 2**22 - 1)
    assert not _prepares(lut, 2, 2**22)


@pytest.mark.parametrize("lut", [SPEC_LUTS["exact8"], noisy_exact_lut(seed=4)],
                         ids=["behavioral", "entries"])
def test_accumulator_overflow_past_the_static_bound(lut):
    # depth * max|T| passes 2**31 - 1, so the accumulator is scanned: all
    # -128 sums past int32, mixed signs sum within it and stay exact. A
    # behavioral table takes prepared operands (its closed form), a table
    # given by its entries integer ones (the gather)
    def operands(a, b):
        if lut.truncations is None:
            return a, b
        return _oracle_operand(a, 8, 0), _oracle_operand(b, 8, 0)

    depth = 200_000
    a = np.full((1, depth), -128, dtype=np.int8)
    with pytest.raises(OverflowError, match="accumulator overflow in axx_matmul"):
        axx_matmul(*operands(a, np.full((depth, 1), -128, dtype=np.int8)), lut)
    b = np.where(np.arange(depth) % 2, 127, -128).astype(np.int8).reshape(depth, 1)
    want = gather_matmul(a, b, lut.entries)
    assert abs(int(want[0, 0])) < 2**31 and depth * lut.max_abs > 2**31
    assert axx_matmul(*operands(a, b), lut).tolist() == want.tolist()


@pytest.mark.parametrize("b_lead", [(), (1,)], ids=["row-gather", "step-gather"])
def test_int64_accumulator_past_the_static_bound(b_lead):
    # |T| = 2**31 at (-2, -2), so any depth is past the static int32 bound.
    # a has at least 2**2 rows, so a 2-D b runs the row gather and b[None]
    # the step gather. Two products of -2**31 sum past int32 (an int32
    # accumulator would wrap them to 0); mixed signs pass int32 partway
    # through the sum and end inside it
    entries = np.zeros((4, 4), dtype=np.int64)
    entries[0, 0], entries[3, 3] = -(1 << 31), (1 << 31) - 1
    entries[1, 2], entries[2, 1] = 5, -3
    lut = ProductLut(2, entries)
    a = np.full((4, 2), -2, dtype=np.int8)
    with pytest.raises(OverflowError, match="accumulator overflow in axx_matmul"):
        axx_matmul(a, np.full(b_lead + (2, 3), -2, dtype=np.int8), lut)
    a = np.array([[1, 1, -2, -2, 0, 1], [-2, 1, -2, 1, 0, 0],
                  [1, 1, 1, -2, -2, -2], [0, 0, 0, 0, 0, 0],
                  [-1, 0, -1, 0, -1, 0]], dtype=np.int8)
    b = np.stack([a[0], a[1], -np.ones(6, dtype=np.int8), a[3]], axis=1)
    partial = np.cumsum(lut.entries[a[:, :, None] + 2, b[None] + 2], axis=1, dtype=np.int64)
    assert np.abs(partial).max() > 2**31 and np.abs(partial[:, -1]).max() < 2**31
    b = b.reshape(b_lead + b.shape)
    assert np.array_equal(axx_matmul(a, b, lut), gather_matmul(a, b, lut.entries))


@pytest.mark.parametrize("b_lead", [(), (1,)], ids=["row-gather", "step-gather"])
def test_int32_accumulator_at_the_static_bound(b_lead):
    # K * max|T| = 2**31 - 1 (a prime, so K = 1): the accumulator is int32
    # and is not scanned, and sums of ±(2**31 - 1) come out exact. a has
    # 2**2 rows, so a 2-D b runs the row gather and b[None] the step gather
    entries = np.zeros((4, 4), dtype=np.int64)
    entries[3, 3], entries[1, 3] = 2**31 - 1, -(2**31 - 1)
    lut = ProductLut(2, entries)
    a = np.array([[1], [-1], [0], [1]], dtype=np.int8)
    b = np.ones(b_lead + (1, 1), dtype=np.int8)
    got = axx_matmul(a, b, lut)
    assert got.reshape(-1).tolist() == [2**31 - 1, -(2**31 - 1), 0, 2**31 - 1]


@pytest.mark.parametrize("b_lead", [(), (1,)], ids=["row-gather", "step-gather"])
def test_overflow_just_past_the_static_bound(b_lead):
    # K * max|T| = 2 * 2**30 = 2**31: the accumulator is int64 and scanned,
    # so a sum of exactly 2**31 raises instead of wrapping to -2**31
    entries = np.zeros((4, 4), dtype=np.int64)
    entries[3, 3] = 1 << 30
    lut = ProductLut(2, entries)
    a = np.ones((4, 2), dtype=np.int8)
    b = np.ones(b_lead + (2, 1), dtype=np.int8)
    with pytest.raises(OverflowError, match="accumulator overflow in axx_matmul"):
        axx_matmul(a, b, lut)
    a[:, 1] = 0  # sums of 2**30 pass the scan
    assert axx_matmul(a, b, lut).reshape(-1).tolist() == [2**30] * 4


INT32_EDGES = [(-2**31, True), (2**31 - 1, True), (-2**31 - 1, False), (2**31, False)]


@pytest.mark.parametrize("total, fits", INT32_EDGES)
def test_closed_form_scan_at_the_int32_edges(total, fits):
    # 2**18 products of -128 * ±64 sum to ∓2**31 and one of a0 * 1 (a0 is 0
    # or -1) ends the sum at total; K * max|T| = (2**18 + 1) * 2**14 is past
    # the static int32 bound, so the float64 accumulator is scanned
    s = 1 if total < 0 else -1
    a = np.full((1, 2**18 + 1), -128.0)
    b = np.full((2**18 + 1, 1), 64.0 * s)
    a[0, 0], b[0, 0] = total + s * 2**31, 1
    a, b = PreparedOperand(a, 8, 0), PreparedOperand(b, 8, 0)
    if fits:
        assert axx_matmul(a, b, SPEC_LUTS["exact8"]).tolist() == [[total]]
    else:
        with pytest.raises(OverflowError, match="accumulator overflow in axx_matmul"):
            axx_matmul(a, b, SPEC_LUTS["exact8"])


@pytest.mark.parametrize("b_lead", [(), (1,)], ids=["row-gather", "step-gather"])
@pytest.mark.parametrize("total, fits", INT32_EDGES)
def test_gather_scan_at_the_int32_edges(b_lead, total, fits):
    # T(x, 1) for x = -2..1 is -2**30, 2**30 - 1, -(2**30 + 1), 2**30, so
    # K * max|T| = 2 * (2**30 + 1) is past the static bound: the int64
    # accumulator is scanned. a has 2**2 equal rows, so a 2-D b runs the
    # row gather and b[None] the step gather
    entries = np.zeros((4, 4), dtype=np.int64)
    entries[:, 3] = [-2**30, 2**30 - 1, -(2**30 + 1), 2**30]
    lut = ProductLut(2, entries)
    row = {-2**31: [-2, -2], 2**31 - 1: [1, -1], -2**31 - 1: [-2, 0], 2**31: [1, 1]}[total]
    a = np.tile(np.array(row, dtype=np.int8), (4, 1))
    b = np.ones(b_lead + (2, 1), dtype=np.int8)
    if fits:
        assert axx_matmul(a, b, lut).reshape(-1).tolist() == [total] * 4
    else:
        with pytest.raises(OverflowError, match="accumulator overflow in axx_matmul"):
            axx_matmul(a, b, lut)


BEHAVIORAL_SPECS = tuple(
    spec for b in range(2, MAX_LUT_BITWIDTH + 1)
    for spec in ([f"exact{b}", f"trunc{b}k{b - 1}", f"perf{b}r{b // 2}"] if b > 10 else
                 [f"exact{b}"] + [f"trunc{b}k{k}" for k in sorted({1, b // 2, b - 1})]
                 + [f"perf{b}r{r}" for r in sorted({1, b // 2, b - 1})]))


@pytest.fixture(scope="module")
def behavioral_lut():
    """Each spec's table, built once for the module: a 12-bit one holds
    2**24 entries."""
    return functools.cache(lambda spec: build_lut(parse_multiplier_spec(spec)))


def _bit_level_matmul(a, b, m):
    """sum_k p(a[..., i, k], b[..., k, j]) with p the bit-level product oracle
    of m, in Python integers."""
    if m.kind == "perforate_pp":
        product = functools.partial(perforated_product, b=m.bitwidth, r=m.r)
    else:
        product = functools.partial(truncated_product, b=m.bitwidth, k=m.k)
    pairs = np.broadcast_arrays(a[..., :, :, None].astype(object),
                                b[..., None, :, :].astype(object))
    terms = np.frompyfunc(lambda x, y: product(int(x), int(y)), 2, 1)(*pairs)
    return np.add.reduce(terms, axis=-2, initial=0).astype(np.int64)


def test_every_builtin_and_spec_lut_has_truncations(behavioral_lut):
    catalog = builtin_catalog()
    assert ([catalog.lut(name).truncations for name in catalog.names()]
            == [(0, 0), (1, 1), (2, 2), (3, 3)])
    for b in range(2, MAX_LUT_BITWIDTH + 1):
        assert behavioral_lut(f"exact{b}").truncations == (0, 0)
    for k in range(8):
        assert build_lut(parse_multiplier_spec(f"trunc8k{k}")).truncations == (k, k)
        assert build_lut(parse_multiplier_spec(f"perf8r{k}")).truncations == (0, k)


@settings(max_examples=200, deadline=None)
@given(spec=st.sampled_from(BEHAVIORAL_SPECS), data=st.data())
def test_closed_form_equals_gather_and_bit_level_oracles(behavioral_lut, spec, data):
    # the closed form's operands are the oracle's truncations of the integers
    m = parse_multiplier_spec(spec)
    lut = behavioral_lut(spec)
    shapes = data.draw(hnp.mutually_broadcastable_shapes(
        signature="(m,k),(k,n)->(m,n)", max_dims=2, min_side=0, max_side=5))
    lo, hi = -(1 << (m.bitwidth - 1)), (1 << (m.bitwidth - 1)) - 1
    # truncation keeps -2**(b-1) whole; ±qmax lose the most to it
    elements = st.one_of(st.sampled_from([lo, -hi, hi, 0]), st.integers(lo, hi))
    a_shape, b_shape = shapes.input_shapes
    a = data.draw(hnp.arrays(np.int32, a_shape, elements=elements))
    b = data.draw(hnp.arrays(np.int32, b_shape, elements=elements))
    kx, ky = lut.truncations
    got = axx_matmul(_oracle_operand(a, m.bitwidth, kx), _oracle_operand(b, m.bitwidth, ky),
                     lut)
    assert got.dtype == np.float64
    assert got.shape == shapes.result_shape
    assert np.array_equal(got, gather_matmul(a, b, lut.entries))
    assert np.array_equal(got, _bit_level_matmul(a, b, m))


@pytest.mark.parametrize("spec", ["trunc9k8", "trunc12k11", "perf12r9"])
@pytest.mark.parametrize("dtype", [np.int8, np.uint8])
def test_narrow_operands_on_wide_tables(behavioral_lut, spec, dtype):
    # trunc(-1, 11) = -2048 does not fit the operand dtype
    info = np.iinfo(dtype)
    a = np.arange(info.min, info.max + 1).astype(dtype).reshape(16, 16)
    lut = behavioral_lut(spec)
    for x, y in ((a, a.T), (a.T, a), (a[:, :1], a[:1])):
        assert np.array_equal(axx_matmul(x, y, lut), gather_matmul(x, y, lut.entries))


def test_loaded_table_has_no_truncations(tmp_path):
    path = str(tmp_path / "trunc6k2.axlut")
    save_lut(build_lut(parse_multiplier_spec("trunc6k2")), path)
    assert load_lut(path).truncations is None


@st.composite
def head_views(draw, elements):
    """An operand as the attention quantizes it: one column block of a fused
    ``[q|k|v]``-like product split into heads, ``(batch, heads, tokens,
    head_dim)``, or that view's swapaxes (how kᵀ is formed). Both are strided
    views of the wider array, C-contiguous only where dimensions are 1."""
    b, n, h, dh = (draw(st.integers(1, 3)) for _ in range(4))
    parts = draw(st.integers(1, 3))
    j = draw(st.integers(0, parts - 1))
    fused = draw(hnp.arrays(np.float64, (b, n, parts * h * dh), elements=elements))
    heads = fused[..., j * h * dh:(j + 1) * h * dh].reshape(b, n, h, dh).transpose(0, 2, 1, 3)
    return np.swapaxes(heads, -1, -2) if draw(st.booleans()) else heads


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_quantize_matches_sign_floor_formula(data):
    bitwidth = data.draw(st.integers(2, 12))
    scale = data.draw(st.one_of(st.floats(1e-6, 1e3),
                                st.integers(-20, 10).map(lambda e: 2.0**e)))
    qp = QuantParams(scale=scale, bitwidth=bitwidth)
    qmax = qp.qmax
    halves = st.integers(-2 * qmax, 2 * qmax).map(lambda k: (k + 0.5) * scale)
    special = st.sampled_from([0.0, -0.0, qp.clip, -qp.clip, 2 * qp.clip,
                               -2 * qp.clip, np.inf, -np.inf])
    values = st.one_of(special, halves, st.floats(-2 * qp.clip, 2 * qp.clip),
                       st.floats(allow_nan=False))
    x = data.draw(st.one_of(hnp.arrays(np.float64, st.integers(0, 32), elements=values),
                            head_views(values)))
    with np.errstate(over="ignore"):  # huge |x| / scale saturates via inf
        got = quantize(x, qp)
        want = sign_floor_quantize(x, qp)
    assert got.dtype == np.int32 and got.shape == x.shape and got.flags.c_contiguous
    assert np.array_equal(got, want)


@pytest.mark.parametrize("x, want", [(-0.0, 0), (0.5, 1), (-0.5, -1), (1.5, 2),
                                     (-2.5, -3), (127.0, 127), (-200.0, -127)])
def test_quantize_rounds_half_away_from_zero(x, want):
    assert quantize(np.array([x]), QuantParams(scale=1.0, bitwidth=8))[0] == want


# quiet and signalling NaNs of both signs, with and without a payload
NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                 0xFFF80000DEADBEEF, 0x7FF4000000000000, 0xFFF0000000000001],
                dtype=np.uint64).view(np.float64).tolist()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_saturate_matches_copysign_bit_for_bit(data):
    """saturate gives back the sign by integer bit operations; the abs and
    copysign formulation gives the same bits for every value, NaNs (both
    signs, with payloads) and -0.0 included: exact ties (k + 0.5)·scale,
    quotients one ulp below 2^e - 0.5 (e = 0 is the one where |q| + 0.5
    rounds up), infinities, in contiguous, strided head-view, swapaxes and
    0-d input."""
    bitwidth = data.draw(st.integers(2, 16))
    scale = data.draw(st.one_of(st.floats(1e-6, 1e3),
                                st.integers(-20, 10).map(lambda e: 2.0**e)))
    qp = QuantParams(scale=scale, bitwidth=bitwidth)
    qmax = qp.qmax
    halves = st.integers(-2 * qmax, 2 * qmax).map(lambda k: (k + 0.5) * scale)
    below = st.tuples(st.integers(0, bitwidth), st.sampled_from([1.0, -1.0])).map(
        lambda es: es[1] * float(np.nextafter(2.0**es[0] - 0.5, 0.0)) * scale)
    special = st.sampled_from([0.0, -0.0, qp.clip, -qp.clip, 2 * qp.clip, -2 * qp.clip,
                               np.inf, -np.inf, *NANS])
    values = st.one_of(special, halves, below, st.floats(-2 * qp.clip, 2 * qp.clip),
                       st.floats())
    x = data.draw(st.one_of(
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, max_side=6),
                   elements=values),
        head_views(values)))
    with np.errstate(over="ignore", invalid="ignore"):  # huge |x|, signalling NaNs
        got = saturate(x, qp)
        want = copysign_saturate(x, qp)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert got.shape == x.shape and got.flags.c_contiguous
    assert got.view(np.int64).tolist() == np.asarray(want).view(np.int64).tolist()


@pytest.mark.parametrize("x", [0.0, -0.0, -0.2, np.nextafter(-0.5, 0.0), -np.inf, *NANS])
def test_saturate_0d_keeps_the_sign_bits(x):
    qp = QuantParams(scale=1.0, bitwidth=8)
    with np.errstate(invalid="ignore"):  # signalling NaNs
        got, want = saturate(np.array(x), qp), copysign_saturate(np.array(x), qp)
    assert got.shape == () and got.view(np.int64) == np.asarray(want).view(np.int64)


@pytest.mark.parametrize("kind", ["contiguous", "swapaxes", "0-d", "python float"])
def test_quantize_leaves_its_input_alone(kind):
    rng = np.random.default_rng(5)
    x = {"contiguous": rng.normal(0, 40, size=(3, 4, 5)),
         "swapaxes": np.swapaxes(rng.normal(0, 40, size=(2, 3, 6, 4)), -1, -2),
         "0-d": np.array(-2.5),
         "python float": 127.5}[kind]
    before = np.array(x).tobytes()
    qp = QuantParams(scale=0.5, bitwidth=8)
    got = quantize(x, qp)
    assert np.array(x).tobytes() == before
    assert isinstance(got, np.ndarray) and got.dtype == np.int32
    assert not np.shares_memory(got, x)
    assert np.array_equal(got, sign_floor_quantize(x, qp))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_prepared_operand_equals_truncated_quantize(data):
    """prepare_operand builds in float64 the integers that the sign/floor
    formula and _truncate build in int32, over bitwidths 2-16 and every k,
    with ties, saturation and signed zeros among the inputs, and in one
    C-ordered array of the input's shape, strided head views included."""
    bitwidth = data.draw(st.integers(2, 16))
    k = data.draw(st.integers(0, bitwidth - 1))
    scale = data.draw(st.one_of(st.floats(1e-6, 1e3),
                                st.integers(-20, 10).map(lambda e: 2.0**e)))
    qp = QuantParams(scale=scale, bitwidth=bitwidth)
    qmax = qp.qmax
    halves = st.integers(-2 * qmax, 2 * qmax).map(lambda i: (i + 0.5) * scale)
    special = st.sampled_from([0.0, -0.0, qp.clip, -qp.clip, 2 * qp.clip,
                               -2 * qp.clip, np.inf, -np.inf])
    values = st.one_of(special, halves, st.floats(-2 * qp.clip, 2 * qp.clip),
                       st.floats(allow_nan=False))
    x = data.draw(st.one_of(
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, max_side=6),
                   elements=values),
        head_views(values)))
    with np.errstate(over="ignore"):  # huge |x| / scale saturates via inf
        got = prepare_operand(x, qp, k)
        want = np.asarray(_truncate(sign_floor_quantize(x, qp), k), dtype=np.float64)
    assert isinstance(got, PreparedOperand) and (got.bitwidth, got.k) == (bitwidth, k)
    assert got.values.dtype == np.float64 and got.shape == x.shape
    assert got.values.flags.c_contiguous
    # bit for bit once the sign of a zero is dropped: no sum of products shows it
    assert (got.values + 0.0).view(np.int64).tolist() == want.view(np.int64).tolist()


PREPARED_QP = QuantParams(scale=0.1, bitwidth=8)
PREPARED_X = np.random.default_rng(11).normal(0, 8, size=(2, 3, 4))
PREPARED_Y = np.random.default_rng(12).normal(0, 8, size=(4, 5))


def test_prepared_operands_give_the_float_accumulator():
    lut, qp = SPEC_LUTS["trunc8k2"], PREPARED_QP
    got = axx_matmul(prepare_operand(PREPARED_X, qp, 2), prepare_operand(PREPARED_Y, qp, 2), lut)
    assert got.dtype == np.float64
    assert got.tolist() == axx_matmul(quantize(PREPARED_X, qp), quantize(PREPARED_Y, qp),
                                      lut).tolist()


def _mismatched_operands(case):
    lut, qp, wide = SPEC_LUTS["trunc8k2"], PREPARED_QP, QuantParams(scale=0.1, bitwidth=10)
    a, b = prepare_operand(PREPARED_X, qp, 2), prepare_operand(PREPARED_Y, qp, 2)
    if case == "past the float64 bound":
        deep = ProductLut(2, np.full((4, 4), -(1 << 31)))
        deep.truncations = (0, 0)  # K * max|T| = 2**53 at K = 2**22
        return (PreparedOperand(np.broadcast_to(0.0, (1, 1 << 22)), 2, 0),
                PreparedOperand(np.broadcast_to(0.0, (1 << 22, 1)), 2, 0), deep)
    return {"ndarray a": (quantize(PREPARED_X, qp), b, lut),
            "ndarray b": (a, quantize(PREPARED_Y, qp), lut),
            "other truncations": (a, b, SPEC_LUTS["trunc8k1"]),
            "gathered table": (a, b, noisy_exact_lut(seed=2)),
            "wider than the table": (prepare_operand(PREPARED_X, wide, 2),
                                     prepare_operand(PREPARED_Y, wide, 2), lut)}[case]


@pytest.mark.parametrize("case", ["ndarray a", "ndarray b", "other truncations",
                                  "gathered table", "wider than the table",
                                  "past the float64 bound"])
def test_prepared_operands_only_in_pairs_for_their_table(case):
    """axx_matmul takes prepared operands only as a pair made for the
    table's truncations and range, below the float64 bound."""
    with pytest.raises(ValueError, match="prepared operands do not match the product table"):
        axx_matmul(*_mismatched_operands(case))


def test_float_array_of_integers_is_no_prepared_operand():
    a = prepare_operand(PREPARED_X, PREPARED_QP, 2)
    b = prepare_operand(PREPARED_Y, PREPARED_QP, 2)
    with pytest.raises(ValueError, match="operand must be integers, got float64"):
        axx_matmul(a.values, b.values, SPEC_LUTS["trunc8k2"])
