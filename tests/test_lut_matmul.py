"""Property tests of the LUT matmul kernels against the one-shot gather oracle,
and of the quantizer against its original sign/floor formula."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from axvit.model import axx_matmul, evaluate_accuracy, vit_forward
from axvit.multipliers import (AxMultiplier, Catalog, ProductLut, build_lut,
                               builtin_catalog, lut_lookup, parse_multiplier_spec,
                               save_lut)
from axvit.quant import QuantParams, quantize
from oracles import gather_matmul

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
    """Random integer outer-product tables with int32 entries."""
    bitwidth = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bound = draw(st.sampled_from((2, 200, 10000)))  # sums of six stay in int32
    n = 1 << bitwidth
    f = rng.integers(-bound, bound + 1, size=n)
    g = rng.integers(-bound, bound + 1, size=n)
    return ProductLut.from_factors(bitwidth, f, g)


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


def test_out_of_range_uint8_operand_raises():
    lut = SPEC_LUTS["exact8"]
    ones = np.ones((2, 2), dtype=np.uint8)
    with pytest.raises(ValueError, match="out of range"):
        axx_matmul(np.full((2, 2), 200, dtype=np.uint8), ones, lut)
    with pytest.raises(ValueError, match="out of range"):
        axx_matmul(ones, np.full((2, 2), 128, dtype=np.uint8), lut)
    with pytest.raises(ValueError, match="out of range"):
        lut_lookup(lut, np.uint8(128), np.uint8(1))


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.uint8])
def test_lut_lookup_narrow_operands(dtype):
    lut = SPEC_LUTS["exact8"]
    x = np.array([0, 5, 127], dtype=dtype)
    assert lut_lookup(lut, x, dtype(3)).tolist() == [0, 15, 381]
    if dtype != np.uint8:
        assert lut_lookup(lut, dtype(-128), dtype(-1)) == 128


def test_every_builtin_and_spec_lut_has_factors():
    luts = [builtin_catalog().lut(name) for name in builtin_catalog().names()]
    specs = [f"exact{b}" for b in (2, 4, 8)]
    specs += [f"trunc8k{k}" for k in range(8)] + [f"perf8r{r}" for r in range(8)]
    specs += ["trunc4k1", "trunc6k3", "perf4r1", "perf6r5"]
    luts += [build_lut(parse_multiplier_spec(s)) for s in specs]
    for lut in luts:
        assert lut.factors is not None
        f, g = lut.factors
        assert f.dtype == g.dtype == np.float64
        assert not f.flags.writeable and not g.flags.writeable
        assert np.array_equal(np.outer(f, g), lut.entries)


@given(lut=rank1_luts())
@settings(deadline=None)
def test_from_factors_keeps_read_only_float64_factors(lut):
    f, g = lut.factors
    assert f.dtype == g.dtype == np.float64
    assert not f.flags.writeable and not g.flags.writeable
    assert np.array_equal(np.outer(f, g), lut.entries)


@pytest.mark.parametrize("entries", [np.outer(np.arange(-4, 4), np.arange(8) - 2),
                                     np.zeros((8, 8), dtype=int)], ids=["rank1", "zeros"])
def test_table_without_factors_has_none(entries):
    # rank 1 or not, a table given by its entries runs the gather
    assert ProductLut(3, entries).factors is None


def test_noisy_external_table_has_no_factors():
    lut = noisy_exact_lut(seed=3)
    assert lut.factors is None
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
    assert ext.factors is None and lut.factors is not None and ext == lut
    patches, labels = toy_data[0][:128], toy_data[1][:128]
    model = small_calibrated_model
    assert np.array_equal(vit_forward(model, patches, [ext] * 2),
                          vit_forward(model, patches, [lut] * 2))
    assert (evaluate_accuracy(model, patches, labels, ["ext"] * 2, catalog)
            == evaluate_accuracy(model, patches, labels, [spec.name] * 2, catalog))


def test_exactness_bound_selects_gather():
    # T[x, y] = x * g[y] reaches |T| = 2**31 at x = -2, so an inner dimension
    # of 2**22 makes K * max|T| = 2**53, past what float64 sums exactly
    g = np.array([0, 0, 0, 1 << 30])
    lut = ProductLut.from_factors(2, np.arange(-2, 2), g)
    assert lut.max_abs == 2**31 and lut.factors is not None
    f, gf = lut.factors
    lut.factors = (f, -gf)  # the factor kernel now returns negated sums
    for depth, want in ((2**22 - 1, -(1 << 30)), (2**22, 1 << 30)):
        a = np.zeros((1, depth), dtype=np.int8)
        a[0, depth // 2] = 1
        b = np.ones((depth, 1), dtype=np.int8)
        assert axx_matmul(a, b, lut)[0, 0] == want


def _sign_floor_quantize(x, qp):
    q = np.sign(x) * np.floor(np.abs(x) / qp.scale + 0.5)
    return np.clip(q, -qp.qmax, qp.qmax).astype(np.int32)


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
    x = data.draw(hnp.arrays(np.float64, st.integers(0, 32), elements=values))
    with np.errstate(over="ignore"):  # huge |x| / scale saturates via inf
        assert np.array_equal(quantize(x, qp), _sign_floor_quantize(x, qp))


@pytest.mark.parametrize("x, want", [(-0.0, 0), (0.5, 1), (-0.5, -1), (1.5, 2),
                                     (-2.5, -3), (127.0, 127), (-200.0, -127)])
def test_quantize_rounds_half_away_from_zero(x, want):
    assert quantize(np.array([x]), QuantParams(scale=1.0, bitwidth=8))[0] == want
