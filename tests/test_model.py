import json
import math
import os
import re
import struct
import tempfile
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import axvit as ax
from axvit import data as dt
from axvit.model import (
    ACTIVATION_ROLES,
    BATCH,
    WEIGHT_ROLES,
    PreparedOperand,
    VitModel,
    _column_sums,
    _gelu_tanh,
    _matmul,
    attention_forward,
    attn_weight_qparams,
    axx_matmul,
    block_forward,
    block_plan,
    block_weights,
    embed,
    embedded_chunks,
    exact_int_matmul,
    gelu,
    gelu_grad,
    layer_norm,
    param_shapes,
    prepare_operand,
    refresh_weight_scales,
    run_blocks,
    softmax,
)
from axvit.multipliers import MAX_LUT_BITWIDTH, AxMultiplier, ProductLut, build_lut
from axvit.quant import HistogramCalibrator, QuantParams, quantize
from oracles import (block_out_of_place, gelu_grad_pow, gelu_out_of_place, gelu_pow,
                     layer_norm_var, softmax_out_of_place, truncated_product)
from test_lut_matmul import noisy_exact_lut

EXACT_LUT = build_lut(AxMultiplier("exact8", 8, "exact"))
TRUNC2_LUT = build_lut(AxMultiplier("trunc8k2", 8, "truncate_lsb", k=2))


class TestAxxMatmul:
    def test_exact_lut_equals_int_reference(self):
        rng = np.random.default_rng(0)
        a = rng.integers(-128, 128, size=(7, 5))
        b = rng.integers(-128, 128, size=(5, 9))
        assert np.array_equal(axx_matmul(a, b, EXACT_LUT), exact_int_matmul(a, b))

    def test_zero_left_operand(self):
        a = np.zeros((3, 4), dtype=int)
        b = np.arange(-6, 6).reshape(4, 3)
        assert not axx_matmul(a, b, TRUNC2_LUT).any()

    def test_2x2_against_scalar_oracle(self):
        a = np.array([[5, 9], [1, 0]])
        b = np.array([[3, 7], [2, 6]])
        got = axx_matmul(a, b, TRUNC2_LUT)
        for i in range(2):
            for j in range(2):
                want = sum(truncated_product(int(a[i, t]), int(b[t, j]), 8, 2)
                           for t in range(2))
                assert got[i, j] == want

    def test_broadcast_batched(self):
        rng = np.random.default_rng(1)
        a = rng.integers(-100, 100, size=(4, 3, 6, 5))
        b = rng.integers(-100, 100, size=(5, 2))
        got = axx_matmul(a, b, EXACT_LUT)
        assert got.shape == (4, 3, 6, 2)
        assert np.array_equal(got, np.matmul(a, b))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            axx_matmul(np.zeros((2, 3), int), np.zeros((4, 2), int), EXACT_LUT)

    @pytest.mark.parametrize("a_shape, b_shape", [((2, 3), (4, 2)), ((2, 3, 4), (3, 4, 5)),
                                                  ((4,), (4, 2))],
                             ids=["inner", "stacks", "1-D"])
    def test_prepared_shape_mismatch(self, a_shape, b_shape):
        """A prepared pair whose inner dimensions differ, whose stacks do not
        broadcast, or that is 1-D (which np.matmul itself would take) fails
        with the integer operands' message."""
        qp = QuantParams(scale=1.0, bitwidth=8)
        a, b = (prepare_operand(np.ones(s), qp, k)
                for s, k in zip((a_shape, b_shape), TRUNC2_LUT.truncations))
        want = f"shape mismatch for matmul: {a_shape} x {b_shape}"
        with pytest.raises(ValueError, match=re.escape(want)):
            axx_matmul(a, b, TRUNC2_LUT)

    def test_operand_range_check(self):
        with pytest.raises(ValueError, match="out of range"):
            axx_matmul(np.full((2, 2), 200), np.zeros((2, 2), int), EXACT_LUT)

    def test_accumulator_overflow_guard(self):
        a = np.full((1, 200000), 127)
        b = np.full((200000, 1), 127)
        with pytest.raises(OverflowError):
            exact_int_matmul(a, b)


@st.composite
def int_matmul_operands(draw):
    """Integer operands of 2-16 bits: one matrix pair, a stack against a 2-D
    b, or two stacks whose leading dims broadcast. A model's operands stop
    at MAX_LUT_BITWIDTH bits, whose sums fit int32 here; the wider ones
    (external tables with large entries, wide configs) reach sums outside
    it, which the scan must catch."""
    bits = draw(st.integers(2, 16))
    dtype = draw(st.sampled_from([np.int16, np.int32, np.int64]))
    m, k, n = (draw(st.integers(1, 6)) for _ in range(3))
    shape = draw(st.sampled_from(["matrix", "stack-by-matrix", "stack-by-stack"]))
    lead_a = lead_b = ()
    if shape != "matrix":
        lead_a = draw(array_shapes(min_dims=1, max_dims=2, max_side=3))
    if shape == "stack-by-stack":
        lead_b = tuple(draw(st.sampled_from((1, d))) for d in lead_a)
    values = st.integers(-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
    a = draw(arrays(dtype, lead_a + (m, k), elements=values))
    b = draw(arrays(dtype, lead_b + (k, n), elements=values))
    return a, b


class TestExactIntMatmul:
    """exact_int_matmul is one float64 BLAS matmul while depth * max|a| *
    max|b| < 2**53 and raises ValueError past that bound; it raises
    OverflowError on any sum outside int32."""

    @settings(max_examples=200, deadline=None)
    @given(int_matmul_operands())
    def test_equals_int64_matmul(self, operands):
        a, b = operands
        want = np.matmul(a.astype(np.int64), b.astype(np.int64))
        if want.size and (want.min() < -2**31 or want.max() > 2**31 - 1):
            with pytest.raises(OverflowError, match="overflow in exact_int_matmul"):
                exact_int_matmul(a, b)
        else:
            got = exact_int_matmul(a, b)
            assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("pad", [0, 2**27], ids=["float64", "int64"])
    @pytest.mark.parametrize("total, fits", [(-2**31, True), (2**31 - 1, True),
                                             (-2**31 - 1, False), (2**31, False)])
    def test_int32_edges(self, pad, total, fits):
        # products of ±2**54 cancel around total and put the padded ("int64")
        # case past the float64 bound, where the reference raises whatever
        # the sum; without them the sum is one product
        a, b = [[pad, total, -pad]], [[pad], [1], [pad]]
        if pad:
            with pytest.raises(ValueError, match="past the float64 bound"):
                exact_int_matmul(a, b)
        elif fits:
            assert exact_int_matmul(a, b).tolist() == [[total]]
        else:
            with pytest.raises(OverflowError, match="overflow in exact_int_matmul"):
                exact_int_matmul(a, b)

    def test_sum_of_int32_min(self):
        assert exact_int_matmul([[-32768, -32768]], [[32768], [32768]]).tolist() == [[-2**31]]

    def test_partial_sum_past_float64_bound_raises(self):
        # 2**54 + 1 is no float64, so an unguarded float64 product gives 0
        a, b = [[2**27, 1, 2**27]], [[2**27], [1], [-2**27]]
        assert np.matmul(np.array(a, float), np.array(b, float)).tolist() == [[0.0]]
        with pytest.raises(ValueError, match="past the float64 bound"):
            exact_int_matmul(a, b)

    @pytest.mark.parametrize("a, b", [
        (np.full((1, 4), -2**31, np.int32), np.full((4, 1), -2**31, np.int32)),
        ([[2**32]], [[2**32]]),
    ], ids=["int32-min", "2**32"])
    def test_sums_that_wrap_int64_raise(self, a, b):
        """Sums of 2**64, which an int64 matmul wraps to 0, raise instead of
        returning a wrong sum."""
        with pytest.raises(ValueError, match="past the float64 bound"):
            exact_int_matmul(a, b)

    def test_non_integer_operands_raise(self):
        with pytest.raises(ValueError, match="must be integers"):
            exact_int_matmul(np.full((2, 2), 1.5), np.ones((2, 2), dtype=np.int32))


@st.composite
def seeded_normal_rows(draw, decades):
    """Seeded normal values in rows of 1 to 300 entries (numpy's pairwise
    sum adds one by one below 8, in 8 partial sums to 128 and halves past
    that) under up to two leading dims, each entry's magnitude spread over
    four decades whose top is drawn from ``decades``, and some entries
    signed zeros. No two entries repeat, so the rounding of a sum shows any
    change of its order, where ``arrays(..., elements=st.floats())`` fills
    most entries with one repeated value."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(array_shapes(min_dims=0, max_dims=2, max_side=4)) + (draw(
        st.integers(1, 7) | st.integers(8, 128) | st.integers(129, 300)),)
    x = rng.normal(size=shape) * 10.0 ** (draw(decades) - rng.uniform(0.0, 4.0, shape))
    zeros = rng.random(shape) < draw(st.sampled_from([0.0, 0.05, 0.3]))
    x[zeros] = np.copysign(0.0, rng.normal(size=shape))[zeros]
    return x


@st.composite
def sum_columns(draw):
    """Columns of 1 to 300 entries (numpy's pairwise sum adds one by one below
    8, in 8 partial sums to 128 and halves past that), with signed zeros,
    infinities and NaNs of any payload and sign. A column holds at most one
    NaN value, in one or more entries, and then infinities of one sign only:
    where two different NaNs meet, which one an addition returns depends on
    the SIMD loop numpy dispatches to, and +inf plus -inf makes a NaN of its
    own. softmax's sums see at most one NaN value per row."""
    n = draw(st.one_of(st.integers(1, 7), st.integers(8, 128), st.integers(129, 300)))
    # seeded normal values, whose rounding shows any change of order, then
    # any floats in a few places
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = rng.normal(0.0, 10.0 ** draw(st.integers(-8, 8)), (n, draw(st.integers(1, 4))))
    entries = st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, np.inf, -np.inf])
    for _ in range(draw(st.integers(0, 6))):
        t[draw(st.integers(0, n - 1)), draw(st.integers(0, t.shape[1] - 1))] = draw(entries)
    if draw(st.booleans()):
        t[:] = draw(st.sampled_from([0.0, -0.0]))
    for col in t.T:
        if draw(st.booleans()):
            bits = draw(st.integers(0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF))
            nan = np.array([bits | draw(st.sampled_from([0, 1 << 63]))],
                           dtype=np.uint64).view(np.float64)[0]
            col[np.isinf(col)] = np.inf  # infinities of one sign next to the NaN
            col[draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))] = nan
    return t


class TestBlocks:
    QP = QuantParams(scale=0.05, bitwidth=8)

    def test_linear_zero_weight_broadcasts_bias(self):
        x = np.random.default_rng(2).normal(size=(4, 6))
        bias = np.arange(3.0)
        out = _matmul(x, np.zeros((6, 3)), self.QP, self.QP, EXACT_LUT) + bias
        assert np.allclose(out, np.broadcast_to(bias, (4, 3)))

    def test_linear_exact_lut_equals_int_reference_path(self):
        x = np.random.default_rng(3).normal(size=(4, 6))
        w = np.random.default_rng(4).normal(size=(6, 3))
        via_lut = _matmul(x, w, self.QP, self.QP, EXACT_LUT)
        via_ref = _matmul(x, w, self.QP, self.QP, None)
        assert np.array_equal(via_lut, via_ref)

    def test_linear_requires_scales(self):
        """A LUT forward pass needs the scales of every quantized operand."""
        model = ax.init_model(ax.ModelConfig(num_layers=1, embed_dim=16, num_heads=2,
                                             ffn_dim=32))
        with pytest.raises(RuntimeError, match="calibration"):
            ax.vit_forward(model, np.zeros((2, 16, 16)), [EXACT_LUT])

    def test_attention_single_token(self):
        one = np.array([[1.0]])
        qps = {"q": self.QP, "k": self.QP, "v": self.QP,
               "attn": attn_weight_qparams(8)}
        out = float(attention_forward(one, one, one, qps, EXACT_LUT)[0][0, 0])
        # a single score softmaxes to weight 1; output is V through one
        # quantize-dequantize round trip
        assert abs(out - 1.0) <= self.QP.scale
        assert out == pytest.approx(round(1.0 / self.QP.scale) * self.QP.scale)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        q = rng.normal(size=(2, 5, 4))
        k = rng.normal(size=(2, 5, 4))
        v = rng.normal(size=(2, 5, 4))
        qps = {"q": self.QP, "k": self.QP, "v": self.QP,
               "attn": attn_weight_qparams(8)}
        _, att = attention_forward(q, k, v, qps, TRUNC2_LUT)
        assert np.allclose(att.sum(axis=-1), 1.0, atol=1e-6)

    def test_attention_close_to_real_reference(self):
        rng = np.random.default_rng(6)
        q, k, v = (rng.normal(size=(2, 4)) for _ in range(3))
        qps = {"q": self.QP, "k": self.QP, "v": self.QP,
               "attn": attn_weight_qparams(8)}
        approx, _ = attention_forward(q, k, v, qps, EXACT_LUT)
        real = softmax((q @ k.T) / 2.0) @ v
        assert np.abs(approx - real).max() < 0.1

    def one_block(self, seed):
        """One-block model (d=4, two heads) with every scale at QP."""
        cfg = ax.ModelConfig(num_layers=1, embed_dim=4, num_heads=2, ffn_dim=3)
        model = ax.init_model(cfg, seed=seed)
        model.scales = {f"block0.{r}": self.QP.scale
                        for r in ax.model.ACTIVATION_ROLES + ax.model.WEIGHT_ROLES}
        return model

    def test_multi_head_shapes_and_reference(self):
        rng = np.random.default_rng(7)
        model = self.one_block(7)
        p = model.params
        for name in ("w1", "b1", "w2", "b2"):  # the block is x + MHA(LN1(x))
            p["block0." + name][...] = 0.0
        x = rng.normal(size=(3, 5, 4), scale=0.3)
        out, bc = block_forward(model, 0, x, block_plan(model, 0, EXACT_LUT), collect=True)
        assert out.shape == x.shape
        assert bc["q"].shape == (3, 2, 5, 2) and bc["attn"].shape == (3, 2, 5, 5)
        real = block_forward(model, 0, x, block_plan(model, 0, None, quantized=False))
        assert np.abs(out - real).max() < 0.2
        # the real path against per-head attention written out
        h, _ = layer_norm(x, p["block0.ln1.g"], p["block0.ln1.b"])
        q, k, v = (h @ p[f"block0.w{r}"] + p[f"block0.b{r}"] for r in "qkv")
        heads = [softmax(q[..., s] @ np.swapaxes(k[..., s], -1, -2) / np.sqrt(2)) @ v[..., s]
                 for s in (slice(0, 2), slice(2, 4))]
        want = x + np.concatenate(heads, axis=-1) @ p["block0.wo"] + p["block0.bo"]
        assert np.allclose(real, want)

    def test_ffn_zero_weights_yield_b2(self):
        model = self.one_block(8)
        for name, t in model.params.items():
            if name.startswith("block0.") and not name.endswith(".g"):
                t[...] = 0.0
        b2 = model.params["block0.b2"]
        b2[:] = [1.0, -2.0, 0.5, 0.0]
        x = np.random.default_rng(8).normal(size=(2, 5, 4))
        out, bc = block_forward(model, 0, x, block_plan(model, 0, EXACT_LUT), collect=True)
        assert np.allclose(out, x + b2)
        assert not bc["ffn_h"].any() and not bc["attn_out"].any()

    def test_gelu_zero(self):
        assert gelu(0.0) == 0.0

    def test_block_caches_the_gelu_tanh_it_used(self, small_calibrated_model, toy_data):
        """The cached tanh is the GELU input's, bit for bit, so the backward's
        derivative from it is the derivative at that input."""
        model = small_calibrated_model
        x = ax.model.embed(model, toy_data[0][:6])
        _, bc = block_forward(model, 0, x, block_plan(model, 0, TRUNC2_LUT), collect=True)
        h, t = bc["ffn_h"], bc["ffn_t"]
        assert t.tobytes() == _gelu_tanh(h).tobytes()
        assert bc["ffn_mid"].tobytes() == gelu(h).tobytes()

    def test_layer_norm_normalizes(self):
        x = np.random.default_rng(9).normal(size=(3, 8), loc=4.0, scale=2.0)
        out, _ = layer_norm(x, np.ones(8), np.zeros(8))
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-9)
        assert np.allclose(out.var(axis=-1), 1.0, atol=1e-3)

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.integers(1, 64), elements=st.floats()))
    @example(np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 5.7e102, 1e154, 1.5e154,
                       -1e308, np.finfo(np.float64).max, 5e-324]))
    def test_gelu_cube_by_products_within_rounding_of_pow(self, x):
        """The cube as x * x * x moves GELU and its derivative by rounding
        only: same finiteness and NaN-ness, and a few ulps where finite."""
        with np.errstate(all="ignore"):
            pairs = [(gelu(x), gelu_pow(x)), (gelu_grad(x, _gelu_tanh(x)), gelu_grad_pow(x))]
        bound = 8 * np.finfo(np.float64).eps * np.maximum(1.0, np.abs(x))
        for new, old in pairs:
            assert np.array_equal(np.isnan(new), np.isnan(old))
            assert np.array_equal(np.isfinite(new), np.isfinite(old))
            finite = np.isfinite(old)
            assert np.all(np.abs(new[finite] - old[finite]) <= bound[finite])
            assert np.array_equal(new[~finite], old[~finite], equal_nan=True)

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.tuples(array_shapes(min_dims=0, max_dims=3, max_side=5),
                                        st.integers(1, 20) | st.integers(121, 300))
                  .map(lambda s: s[0] + (s[1],)), elements=st.floats())
           | seeded_normal_rows(st.integers(-2, 3)))
    @example(np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 5.7e102, 1e154, 1.5e154,
                       -1e308, np.finfo(np.float64).max, 5e-324, -5e-324]))
    @example(np.random.default_rng(2).normal(0, 4, (3, 2, 4, 16)))
    @example(np.random.default_rng(3).normal(0, 4, (2, 3, 300)))  # rounding shows the order
    def test_in_place_softmax_and_gelu_bit_identical_to_out_of_place(self, x):
        """Steps done in place on the functions' own new arrays, softmax's on
        its rows as columns, give the bits of the out-of-place expressions,
        non-finite values included: rows of 1 to 300 entries, numpy's
        pairwise sums halving past 128, in 1-D to 4-D inputs, any floats or
        seeded normal ones; the result is C-ordered and x is left as it
        was."""
        before = x.tobytes()
        with np.errstate(all="ignore"):
            pairs = [(softmax(x), softmax_out_of_place(x)), (gelu(x), gelu_out_of_place(x)),
                     (gelu(x, _gelu_tanh(x)), gelu_out_of_place(x))]
        assert x.tobytes() == before and pairs[0][0].flags.c_contiguous
        for got, want in pairs:
            assert got.shape == want.shape
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    @settings(max_examples=300, deadline=None)
    @given(sum_columns())
    def test_column_sums_bit_identical_to_row_reduction(self, t):
        """Each column's sum is numpy's pairwise sum of it as a row, bit for
        bit: below 8 entries, 8 to 128 with remainders, and halving past
        128, with signed zeros, infinities and NaN payloads."""
        with np.errstate(all="ignore"):
            got = _column_sums(t)
            want = np.add.reduce(np.ascontiguousarray(t.T), axis=-1)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_column_sums_of_negative_zeros_are_positive(self):
        """numpy sums a row of -0.0 to +0.0 at every length, because its
        reduction starts from +0.0; so do the column sums."""
        for n in range(1, 301):
            t = np.full((n, 3), -0.0)
            assert (_column_sums(t).tobytes() == np.add.reduce(t.T, axis=-1).tobytes()
                    == np.zeros(3).tobytes()), n

    @settings(max_examples=200, deadline=None)
    @given(x=arrays(np.float64, array_shapes(min_dims=1, max_dims=3, max_side=40),
                    elements=st.floats(-1e6, 1e6)) | seeded_normal_rows(st.integers(-3, 6)),
           scale=st.sampled_from([1e-150, 1e-6, 1.0, 1e3, 1e150]), data=st.data())
    def test_layer_norm_bit_identical_to_np_var(self, x, scale, data):
        """Centring once gives np.var's exact steps, so every output is
        bit-identical to the np.var form, for bounded floats and for seeded
        normal rows of up to 300 entries."""
        x = x * scale
        d = x.shape[-1]
        g, b = (data.draw(arrays(np.float64, d, elements=st.floats(-4, 4))) for _ in "gb")
        with np.errstate(all="ignore"):  # the extreme scales over- and underflow
            y, (xhat, inv) = layer_norm(x, g, b)
            wants = layer_norm_var(x, g, b)
        for got, want in zip((y, xhat, inv), wants):
            assert got.shape == want.shape
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


# each kernel a block can run: closed form, gather, integer reference, float
@pytest.fixture(scope="module")
def calibrated_12_bit_model(toy_data):
    model = ax.init_model(ax.ModelConfig(num_layers=2, embed_dim=16, num_heads=2, ffn_dim=32),
                          seed=3, bitwidth=MAX_LUT_BITWIDTH)
    ax.calibrate(model, toy_data[0][:128])
    return model


BLOCK_LUTS = {
    "exact": EXACT_LUT,
    "truncating": TRUNC2_LUT,
    "perforated": build_lut(AxMultiplier("perf8r2", 8, "perforate_pp", r=2)),
    "external": ProductLut(8, TRUNC2_LUT.entries),  # given by entries: gathered
    "int-reference": None,
    "float": None,
}


class TestLeanBlock:
    """block_forward keeps its intermediates only when collect is set; the
    output does not depend on it."""

    @pytest.mark.parametrize("path", BLOCK_LUTS)
    @settings(max_examples=8, deadline=None)
    @given(batch=st.integers(1, 2 * BATCH + 3), start=st.integers(0, 1000))
    def test_lean_equals_collected_and_out_of_place(self, small_calibrated_model, toy_data,
                                                     path, batch, start):
        model = small_calibrated_model
        x = ax.model.embed(model, toy_data[0][start:start + batch])
        plan = block_plan(model, 1, BLOCK_LUTS[path], quantized=path != "float")
        lean = block_forward(model, 1, x, plan)
        full, cache = block_forward(model, 1, x, plan, collect=True)
        qps, lut, _ = plan
        want = block_out_of_place(model, 1, x, qps, lut)
        assert lean.tobytes() == full.tobytes() == want.tobytes()
        assert set(cache) == set(ACTIVATION_ROLES) | {"attn", "ffn_h", "ffn_t", "ln1", "ln2"}

    @settings(max_examples=8, deadline=None)
    @given(batch=st.integers(1, 2 * BATCH + 3), start=st.integers(0, 1000))
    def test_12_bit_int_reference_equals_out_of_place(self, calibrated_12_bit_model, toy_data,
                                                      batch, start):
        """The int-reference case on a model at the table cap, whose products
        reach 2**22, so that every sum of this config fits int32. Block 1
        runs on the float output of block 0, the input it was calibrated on;
        the lean and collected block equal the int64 oracle bit for bit."""
        model = calibrated_12_bit_model
        x = block_forward(model, 0, ax.model.embed(model, toy_data[0][start:start + batch]),
                          block_plan(model, 0, None, quantized=False))
        plan = block_plan(model, 1, None)
        want = block_out_of_place(model, 1, x, model.block_qps(1), None).tobytes()
        assert block_forward(model, 1, x, plan).tobytes() == want
        assert block_forward(model, 1, x, plan, collect=True)[0].tobytes() == want

    @pytest.mark.parametrize("path", BLOCK_LUTS)
    def test_read_only_input_is_left_unchanged(self, small_calibrated_model, toy_data, path):
        model = small_calibrated_model
        x = ax.model.embed(model, toy_data[0][:5])
        before = x.tobytes()
        x.flags.writeable = False
        plan = block_plan(model, 0, BLOCK_LUTS[path], quantized=path != "float")
        lean = block_forward(model, 0, x, plan)
        full, _ = block_forward(model, 0, x, plan, collect=True)
        assert x.tobytes() == before
        assert lean.tobytes() == full.tobytes()
        assert lean.flags.writeable and not np.shares_memory(lean, x)

    def test_lean_block_peak_is_at_most_half_the_collected(self, toy_data):
        """On the default config at a batch of BATCH, the lean block's traced
        peak is at most half the collecting one's, and once it returns it
        holds only its output (buffer plus a small array header)."""
        model = ax.init_model(ax.ModelConfig(), seed=0)
        ax.calibrate(model, toy_data[0][:BATCH])
        x = ax.model.embed(model, toy_data[0][:BATCH])
        plan = block_plan(model, 0, EXACT_LUT)

        def traced(collect):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = block_forward(model, 0, x, plan, collect=collect)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return out, held - base, peak - base

        traced(False)  # anything set up lazily on a first call
        lean, lean_held, lean_peak = traced(False)
        (_, cache), full_held, full_peak = traced(True)
        assert lean_peak <= full_peak / 2
        assert lean.nbytes <= lean_held <= lean.nbytes + 1024
        assert full_held > lean.nbytes + sum(a.nbytes for a in (cache["ffn_h"], cache["ffn_t"]))

    @pytest.mark.parametrize("path, cap", [("behavioral", 1_837_112), ("int-reference", 2_099_400)])
    def test_lean_block_peak_is_capped(self, toy_data, path, cap):
        """On the default config at a batch of BATCH, the lean block's traced
        peak stays at or below the bytes measured for the closed form and
        the integer reference: a new full-size temporary there passes the
        ratio test above but not this one. The plan is built before the
        traced call, so the peak is the block's own."""
        model = ax.init_model(ax.ModelConfig(), seed=0)
        ax.calibrate(model, toy_data[0][:BATCH])
        x = ax.model.embed(model, toy_data[0][:BATCH])
        plan = block_plan(model, 0, EXACT_LUT if path == "behavioral" else None)
        block_forward(model, 0, x, plan)  # anything set up lazily
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            block_forward(model, 0, x, plan)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= cap


class TestVitForward:
    def test_all_exact_bit_identical_to_int_reference(self, small_calibrated_model,
                                                      toy_data, catalog):
        patches, _ = toy_data
        model = small_calibrated_model
        luts = [catalog.lut("mul8s_1KV6")] * model.cfg.num_layers
        assert np.array_equal(ax.vit_forward(model, patches[:32], luts),
                              ax.vit_forward(model, patches[:32], None))

    def test_same_multiplier_everywhere_is_permutation_invariant(
            self, small_calibrated_model, toy_data, catalog):
        patches, _ = toy_data
        model = small_calibrated_model
        lut = catalog.lut("mul8s_1L2H")
        logits = ax.vit_forward(model, patches[:16], [lut, lut])
        assert np.array_equal(logits, ax.vit_forward(model, patches[:16], [lut, lut]))

    def test_approximate_layer_changes_logits(self, small_calibrated_model,
                                              toy_data, catalog):
        patches, _ = toy_data
        model = small_calibrated_model
        exact = ax.vit_forward(model, patches[:16], None)
        mixed = ax.vit_forward(model, patches[:16],
                               [catalog.lut("mul8s_1L2L"), catalog.lut("mul8s_1KV6")])
        assert not np.array_equal(exact, mixed)

    @pytest.mark.parametrize("bitwidth", [1, 13, 16])
    def test_bitwidth_stops_at_the_table_cap(self, bitwidth):
        # every model has an exact table: a 13-16-bit one could run only on
        # the integer reference, whose 32-bit sums it overflows
        with pytest.raises(ValueError, match=r"bitwidth must be an integer in \[2, 12\]"):
            ax.init_model(ax.ModelConfig(), seed=3, bitwidth=bitwidth)

    def test_uncalibrated_model_raises(self):
        model = ax.init_model(ax.ModelConfig(num_layers=1, embed_dim=16,
                                             num_heads=2, ffn_dim=32))
        patches = np.zeros((2, 16, 16))
        with pytest.raises(RuntimeError, match="calibrat"):
            ax.vit_forward(model, patches)

    def test_wrong_lut_count_raises(self, small_calibrated_model, catalog):
        with pytest.raises(ValueError, match="one LUT per"):
            ax.vit_forward(small_calibrated_model, np.zeros((1, 16, 16)),
                           [catalog.lut("mul8s_1KV6")])

    def test_residual_identity_with_zero_weights(self):
        cfg = ax.ModelConfig(num_layers=1, embed_dim=16, num_heads=2, ffn_dim=32)
        model = ax.init_model(cfg, seed=0)
        for name, t in model.params.items():
            if name.startswith("block"):
                model.params[name] = np.zeros_like(t)
        patches = np.random.default_rng(10).normal(size=(2, 16, 16))
        logits = ax.vit_forward(model, patches, quantized=False)
        x = patches @ model.params["embed.w"] + model.params["embed.b"]
        expected = x.mean(axis=1) @ model.params["head.w"] + model.params["head.b"]
        assert np.allclose(logits, expected)

    def test_real_outputs_finite(self, small_calibrated_model, toy_data, catalog):
        patches, _ = toy_data
        luts = [catalog.lut("mul8s_1L2L")] * 2
        _, cache = ax.vit_forward(small_calibrated_model, patches[:8], luts,
                                  collect=True)
        for bc in cache["blocks"]:
            for key, t in bc.items():
                parts = t if isinstance(t, tuple) else (t,)
                for part in parts:
                    assert np.isfinite(np.asarray(part)).all(), key


class TestEvaluateAccuracy:
    def test_single_correct_sample(self, small_calibrated_model, toy_data, catalog):
        patches, _ = toy_data
        model = small_calibrated_model
        logits = ax.vit_forward(model, patches[:1], None)
        label = np.array([int(logits.argmax())])
        acc = ax.evaluate_accuracy(model, patches[:1], label,
                                   ["mul8s_1KV6"] * 2, catalog)
        assert acc == 1.0

    def test_empty_dataset_raises(self, small_calibrated_model):
        with pytest.raises(ValueError, match="^empty dataset$"):
            ax.evaluate_accuracy(small_calibrated_model,
                                 np.zeros((0, 16, 16)), np.zeros(0, int))

    def test_label_count_mismatch(self, small_calibrated_model, toy_data, catalog):
        patches, labels = toy_data
        with pytest.raises(ValueError, match=r"labels of shape \(200,\) for 64 samples"):
            ax.evaluate_accuracy(small_calibrated_model, patches[:64], labels[:200],
                                 ["mul8s_1KV6"] * 2, catalog)

    @pytest.mark.parametrize("bad, message", [
        (-1, r"labels span \[-1, 9\], outside the model's 10 classes \[0, 9\]"),
        (10, r"labels span \[0, 10\], outside the model's 10 classes \[0, 9\]"),
        (None, "labels must be integers, got float64")], ids=["negative", "past", "float"])
    def test_labels_outside_the_classes(self, small_calibrated_model, toy_data, catalog,
                                        bad, message):
        """A label that is no class of the model raises, from evaluate_accuracy
        and predict_accuracy alike: -1 would otherwise index the last logit,
        and any label past the classes would count as a wrong prediction."""
        from axvit import search as se

        patches, labels = toy_data[0][:64], toy_data[1][:64].copy()
        if bad is None:
            labels = labels.astype(np.float64)
        else:
            labels[5] = bad
        names = ["mul8s_1KV6"] * 2
        with pytest.raises(ValueError, match=message):
            ax.evaluate_accuracy(small_calibrated_model, patches, labels, names, catalog)
        with pytest.raises(ValueError, match=message):
            se.predict_accuracy(small_calibrated_model, names, catalog, patches, labels)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_raises(self, small_calibrated_model, toy_data, catalog,
                                         batch_size):
        # -1 used to step backwards over no batch and return 0.0; 0 ended
        # inside range()
        patches, labels = toy_data
        with pytest.raises(ValueError, match=rf"^batch_size must be >= 1, got {batch_size}$"):
            ax.evaluate_accuracy(small_calibrated_model, patches[:64], labels[:64],
                                 ["mul8s_1KV6"] * 2, catalog, batch_size=batch_size)

    def test_non_finite_logits_raise(self, small_calibrated_model, toy_data, catalog):
        """A bias of 1e308 overflows the next LayerNorm, so every logit is
        NaN and argmax would pick an arbitrary class: both accuracy paths
        raise instead."""
        from axvit import search as se

        model = small_calibrated_model.copy()
        model.params["block0.b2"][...] = 1e308
        patches, labels = toy_data[0][:8], toy_data[1][:8]
        names = ["mul8s_1L2H"] * 2
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="non-finite logits"):
                ax.evaluate_accuracy(model, patches, labels, names, catalog)
            with pytest.raises(ValueError, match="non-finite logits"):
                se.predict_accuracy(model, names, catalog, patches, labels)

    def test_bad_assignment_length(self, small_calibrated_model, toy_data, catalog):
        patches, labels = toy_data
        with pytest.raises(ValueError, match="length"):
            ax.evaluate_accuracy(small_calibrated_model, patches[:8], labels[:8],
                                 ["mul8s_1KV6"], catalog)


class TestPreparedOperands:
    """The closed form runs on prepared operands only where the table's range
    holds the model's; the weight operands are built per call."""

    @staticmethod
    def model(bitwidth, patches):
        model = ax.init_model(ax.ModelConfig(num_layers=2, embed_dim=16, num_heads=2,
                                             ffn_dim=32), seed=4, bitwidth=bitwidth)
        ax.calibrate(model, patches[:64])
        return model

    def test_table_narrower_than_the_model_raises(self, toy_data, catalog):
        patches, labels = toy_data
        model = self.model(10, patches)
        names = ["mul8s_1L2H"] * 2
        with pytest.raises(ValueError, match="out of range"):
            ax.vit_forward(model, patches[:8], [catalog.lut(n) for n in names])
        with pytest.raises(ValueError, match="out of range"):
            ax.evaluate_accuracy(model, patches[:8], labels[:8], names, catalog)

    def test_table_wider_than_the_model_equals_its_entries(self, toy_data):
        patches, labels = toy_data
        model = self.model(4, patches)
        specs = [ax.parse_multiplier_spec("trunc8k2"), ax.parse_multiplier_spec("perf8r1")]
        luts = [build_lut(m) for m in specs]
        by_entries = [ProductLut(8, lut.entries) for lut in luts]
        got = ax.vit_forward(model, patches[:70], luts)
        assert got.tobytes() == ax.vit_forward(model, patches[:70], by_entries).tobytes()
        assert not np.array_equal(got, ax.vit_forward(model, patches[:70], None))

    def test_weight_update_reaches_the_next_call(self, small_calibrated_model, toy_data,
                                                 catalog):
        """After an in-place weight update and refresh_weight_scales,
        evaluate_accuracy and predict_accuracy equal those of a fresh copy:
        no weight operand built before the update is used after it. The
        labels are the updated model's own predictions, so any stale operand
        would show."""
        from axvit import search as se

        model = small_calibrated_model.copy()
        names = ["mul8s_1L2H", "mul8s_1KV6"]
        luts = [catalog.lut(n) for n in names]
        patches = toy_data[0][:128]
        rng = np.random.default_rng(5)
        update = {k: rng.normal(0, 0.5, t.shape) for k, t in model.params.items()
                  if k.startswith("block") and k.split(".")[1] in ax.model.WEIGHT_ROLES}
        updated = model.copy()
        for key, delta in update.items():
            updated.params[key] += delta
        refresh_weight_scales(updated)
        labels = ax.vit_forward(updated, patches, luts).argmax(axis=1)
        before = (ax.evaluate_accuracy(model, patches, labels, names, catalog),
                  se.predict_accuracy(model, names, catalog, patches, labels))
        assert max(before) < 1.0
        for key, delta in update.items():
            model.params[key] += delta  # in place, as an optimizer step updates them
        refresh_weight_scales(model)
        fresh = model.copy()
        assert (ax.evaluate_accuracy(model, patches, labels, names, catalog)
                == ax.evaluate_accuracy(fresh, patches, labels, names, catalog) == 1.0)
        assert (se.predict_accuracy(model, names, catalog, patches, labels)
                == se.predict_accuracy(fresh, names, catalog, patches, labels) == 1.0)


# the arithmetics block_weights builds operands for: real, exact integer
# reference, closed form on prepared operands, gather on int32 operands
WEIGHT_PATHS = {"float": None, "int-reference": None, "behavioral": TRUNC2_LUT,
                "entries": ProductLut(8, TRUNC2_LUT.entries)}


class TestBlockWeights:
    """block_weights has one entry per activation role in every arithmetic:
    the concatenated weights that read it, their dequantization scale (a
    float for a role one weight reads, per column for ``[wq|wk|wv]``) and
    their biases."""

    @pytest.mark.parametrize("path", WEIGHT_PATHS)
    def test_one_read_only_entry_per_role(self, small_calibrated_model, path):
        model, lut, pre = small_calibrated_model, WEIGHT_PATHS[path], "block1."
        qps = None if path == "float" else model.block_qps(1)
        weights = block_weights(model, 1, qps, lut)
        roles = {"attn_in": "qkv", "attn_out": "o", "ffn_in": "1", "ffn_mid": "2"}
        assert list(weights) == list(roles)
        for role, names in roles.items():
            w, scale, bias = weights[role]
            ws = [model.params[pre + "w" + n] for n in names]
            assert bias.tolist() == np.concatenate([model.params[pre + "b" + n]
                                                    for n in names]).tolist()
            if qps is None:
                assert scale is None
                assert isinstance(w, np.ndarray) and not w.flags.writeable
                assert w.tobytes() == np.concatenate(ws, axis=1).tobytes()
                continue
            if len(names) == 1:
                assert type(scale) is float
                assert scale == qps[role].scale * qps["w" + names].scale
            else:
                assert isinstance(scale, np.ndarray) and scale.dtype == np.float64
                assert scale.tolist() == [qps[role].scale * qps["w" + n].scale
                                          for n, t in zip(names, ws) for _ in range(t.shape[1])]
            if path == "behavioral":
                assert isinstance(w, PreparedOperand) and not w.values.flags.writeable
                want = [prepare_operand(t, qps["w" + n], lut.truncations[1]).values
                        for n, t in zip(names, ws)]
                w = w.values
            else:
                assert w.dtype == np.int32 and not w.flags.writeable
                want = [quantize(t, qps["w" + n]) for n, t in zip(names, ws)]
            assert w.tobytes() == np.concatenate(want, axis=1).tobytes()


# every table run_blocks runs: the built-in catalog's, a non-rank-1
# external table (the gather) and the exact integer reference (None)
RUN_LUTS = {**{n: ax.builtin_catalog().lut(n) for n in ax.builtin_catalog().names()},
            "external": noisy_exact_lut(seed=5), "int-reference": None}


class TestRunBlocks:
    """run_blocks is the one block loop of every forward pass, and
    block_plan builds each block's scales, table and weights once per call."""

    @pytest.mark.parametrize("path", [*RUN_LUTS, "float"])
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 150), size=st.sampled_from([1, 7, BATCH]) | st.integers(1, 150),
           start=st.integers(0, 1000))
    def test_chunking_leaves_the_output_unchanged(self, small_calibrated_model, toy_data,
                                                  path, n, size, start):
        """The outputs of ``size``-sample chunks, concatenated, equal one
        chunk's output bit for bit: every row of a block depends only on
        its own sample."""
        model = small_calibrated_model
        patches = toy_data[0][start:start + n]
        plan = [block_plan(model, i, RUN_LUTS.get(path), quantized=path != "float")
                for i in range(model.cfg.num_layers)]
        (whole,) = run_blocks(model, plan, [embed(model, patches)])
        chunks = list(run_blocks(model, plan, embedded_chunks(model, patches, size)))
        assert [len(x) for x in chunks] == [len(patches[s:s + size]) for s in range(0, n, size)]
        assert np.concatenate(chunks).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("path", RUN_LUTS)
    def test_accuracy_does_not_depend_on_the_batch_size(self, small_calibrated_model,
                                                        toy_data, path):
        """Labeled by one whole-batch forward pass, every sample is right
        at every batch size, one sample per batch included."""
        model, patches = small_calibrated_model, toy_data[0][:150]
        layers = model.cfg.num_layers
        luts = None if RUN_LUTS[path] is None else [RUN_LUTS[path]] * layers
        labels = ax.vit_forward(model, patches, luts).argmax(axis=1)
        assignment = None if luts is None else [path] * layers
        catalog = SimpleNamespace(lut=RUN_LUTS.__getitem__)
        for batch_size in (1, 7, BATCH, len(patches)):
            assert ax.evaluate_accuracy(model, patches, labels, assignment, catalog,
                                        batch_size) == 1.0

    @pytest.mark.parametrize("call", ["evaluate_accuracy", "int-reference", "vit_forward",
                                      "float", "calibrate"])
    def test_weights_are_built_once_per_block(self, small_calibrated_model, toy_data,
                                              catalog, monkeypatch, call):
        """Each call builds block i's weights once, however many chunks of
        BATCH samples it runs (three here)."""
        model = small_calibrated_model.copy()  # calibrate stores its scales
        patches, labels = toy_data[0][:2 * BATCH + 22], toy_data[1][:2 * BATCH + 22]
        built, real = [], ax.model.block_weights
        monkeypatch.setattr(ax.model, "block_weights",
                            lambda m, i, qps, lut: built.append(i) or real(m, i, qps, lut))
        names = ["mul8s_1L2H"] * model.cfg.num_layers
        {"evaluate_accuracy": lambda: ax.evaluate_accuracy(model, patches, labels, names,
                                                           catalog),
         "int-reference": lambda: ax.evaluate_accuracy(model, patches, labels),
         "vit_forward": lambda: ax.vit_forward(model, patches,
                                               [catalog.lut(n) for n in names]),
         "float": lambda: ax.vit_forward(model, patches, quantized=False, collect=True),
         "calibrate": lambda: ax.calibrate(model, patches)}[call]()
        assert built == list(range(model.cfg.num_layers))


# finite weights, with the edge values a checkpoint must keep bit for bit
CHECKPOINT_VALUES = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310,
                                      1e300, -1e300, np.finfo(np.float64).max])
                     | st.floats(allow_nan=False, allow_infinity=False))


class TestCalibrateAndCheckpoint:
    def test_calibrate_deterministic_and_positive(self, toy_data):
        patches, _ = toy_data
        cfg = ax.ModelConfig(num_layers=1, embed_dim=16, num_heads=2, ffn_dim=32)
        s1 = ax.calibrate(ax.init_model(cfg, seed=5), patches[:64])
        s2 = ax.calibrate(ax.init_model(cfg, seed=5), patches[:64])
        assert s1 == s2
        assert all(v > 0 for v in s1.values())

    def test_percentile_monotone(self, toy_data):
        patches, _ = toy_data
        cfg = ax.ModelConfig(num_layers=1, embed_dim=16, num_heads=2, ffn_dim=32)
        lo = ax.calibrate(ax.init_model(cfg, seed=5), patches[:64], percentile=99.9)
        hi = ax.calibrate(ax.init_model(cfg, seed=5), patches[:64], percentile=100.0)
        for key in lo:
            assert hi[key] >= lo[key] - 1e-12

    def test_calibrate_equals_observing_whole_forward_caches(self, toy_data):
        """Observing each block as it runs gives the scales of observing the
        caches of a whole collected forward pass, batch by batch."""
        patches, _ = toy_data
        model = ax.init_model(ax.ModelConfig(num_layers=3, embed_dim=16, num_heads=2,
                                             ffn_dim=32), seed=6)
        cals = {f"block{i}.{r}": HistogramCalibrator() for i in range(3)
                for r in ACTIVATION_ROLES}
        for start in range(0, 150, BATCH):
            _, cache = ax.vit_forward(model, patches[start:min(start + BATCH, 150)],
                                      quantized=False, collect=True)
            for i, bc in enumerate(cache["blocks"]):
                for r in ACTIVATION_ROLES:
                    cals[f"block{i}.{r}"].observe(bc[r])
        got = ax.calibrate(model, patches[:150])
        for key, cal in cals.items():
            assert got[key] == cal.compute_scale(8).scale, key

    def test_checkpoint_roundtrip(self, small_calibrated_model, tmp_path, toy_data):
        patches, _ = toy_data
        path = str(tmp_path / "m.ckpt")
        ax.save_checkpoint(small_calibrated_model, path)
        loaded = ax.load_checkpoint(path)
        assert loaded.cfg == small_calibrated_model.cfg
        assert loaded.scales == small_calibrated_model.scales
        assert loaded.params.keys() == small_calibrated_model.params.keys()
        for n, t in small_calibrated_model.params.items():
            assert loaded.params[n].dtype == np.float64
            assert loaded.params[n].tobytes() == t.tobytes(), n
        # the weight scales stay valid for the loaded weights
        refresh_weight_scales(loaded)
        assert loaded.scales == small_calibrated_model.scales
        for luts in (None, [ax.builtin_catalog().lut("mul8s_1L2H")] * 2):
            want = ax.vit_forward(small_calibrated_model, patches[:8], luts)
            got = ax.vit_forward(loaded, patches[:8], luts)
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_checkpoint_roundtrip_is_bit_exact(self, data):
        """Any model, calibrated or not, loads back equal bit for bit: config,
        bitwidth, every scale and every tensor's bytes, -0.0, subnormals and
        magnitudes near the float64 limit included."""
        heads = data.draw(st.integers(1, 3), label="heads")
        cfg = ax.ModelConfig(
            num_layers=data.draw(st.integers(1, 3), label="layers"),
            embed_dim=heads * data.draw(st.integers(1, 3), label="head_dim"),
            num_heads=heads, ffn_dim=data.draw(st.integers(1, 6), label="ffn_dim"),
            num_patches=data.draw(st.integers(1, 4), label="patches"),
            num_classes=data.draw(st.integers(1, 4), label="classes"),
            patch_dim=data.draw(st.integers(1, 4), label="patch_dim"))
        params = {name: data.draw(arrays(np.float64, shape, elements=CHECKPOINT_VALUES),
                                  label=name)
                  for name, shape in param_shapes(cfg).items()}
        scales = data.draw(st.none() | st.fixed_dictionaries(
            {f"block{i}.{role}": st.floats(min_value=5e-324, max_value=1e300)
             for i in range(cfg.num_layers) for role in ACTIVATION_ROLES + WEIGHT_ROLES}),
            label="scales")
        model = VitModel(cfg, params, scales,
                                  bitwidth=data.draw(st.integers(2, 12), label="bitwidth"))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.ckpt")
            ax.save_checkpoint(model, path)
            loaded = ax.load_checkpoint(path)
        assert loaded.cfg == cfg and loaded.bitwidth == model.bitwidth
        hexed = (lambda s: None if s is None else {k: v.hex() for k, v in s.items()})
        assert hexed(loaded.scales) == hexed(scales)
        assert loaded.params.keys() == params.keys()
        for name, t in params.items():
            assert loaded.params[name].dtype == np.float64
            assert loaded.params[name].shape == t.shape
            assert loaded.params[name].tobytes() == t.tobytes(), name

    def test_checkpoint_deterministic_bytes(self, small_calibrated_model, tmp_path):
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        ax.save_checkpoint(small_calibrated_model, p1)
        ax.save_checkpoint(small_calibrated_model, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_checkpoint_truncated_header(self, small_calibrated_model, tmp_path):
        full = str(tmp_path / "m.ckpt")
        ax.save_checkpoint(small_calibrated_model, full)
        blob = open(full, "rb").read()
        for size in (9, 20):  # inside the length prefix, inside the JSON header
            path = tmp_path / f"short{size}.ckpt"
            path.write_bytes(blob[:size])
            with pytest.raises(ValueError,
                               match=f"{re.escape(str(path))}: truncated checkpoint header"):
                ax.load_checkpoint(str(path))

    @pytest.mark.parametrize("defect", [
        "bad json", "no tensors", "no scales", "tensor shape", "missing tensor",
        "extra tensor", "scale key", "scale value", "zero dim", "bitwidth",
        "bitwidth range", "short data", "trailing bytes", "nan tensor", "-inf tensor",
        "infinite scale"])
    def test_checkpoint_malformed(self, small_calibrated_model, tmp_path, defect):
        full = str(tmp_path / "m.ckpt")
        ax.save_checkpoint(small_calibrated_model, full)
        blob = open(full, "rb").read()
        start = len(ax.model.CHECKPOINT_MAGIC) + 5
        (hlen,) = struct.unpack("<I", blob[start - 4:start])
        header, data = json.loads(blob[start:start + hlen]), blob[start + hlen:]
        tensors = header["tensors"]
        if defect == "no tensors":
            del header["tensors"]
        elif defect == "no scales":
            del header["scales"]
        elif defect == "tensor shape":
            w1 = next(t for t in tensors if t["name"] == "block0.w1")
            w1["shape"] = w1["shape"][::-1]
        elif defect == "missing tensor":
            data = data[:-8 * int(np.prod(tensors.pop()["shape"]))]
        elif defect == "extra tensor":
            tensors.append({"name": "zz.w", "shape": [1]})
            data += bytes(8)
        elif defect == "scale key":
            header["scales"].pop("block0.q")
        elif defect == "scale value":
            header["scales"]["block0.q"] = "0.1"
        elif defect == "zero dim":
            header["config"]["num_heads"] = 0
        elif defect == "bitwidth":
            header["bitwidth"] = "8"
        elif defect == "bitwidth range":
            header["bitwidth"] = 40
        elif defect == "short data":
            data = data[:-8]
        elif defect == "trailing bytes":
            data += b"\x00"
        elif defect in ("nan tensor", "-inf tensor"):
            # tensors are stored in header order; poison block0.w1[0, 0]
            names = [t["name"] for t in tensors]
            offset = 8 * sum(int(np.prod(t["shape"]))
                             for t in tensors[:names.index("block0.w1")])
            value = np.nan if defect == "nan tensor" else -np.inf
            data = data[:offset] + np.float64(value).astype("<f8").tobytes() + data[offset + 8:]
        elif defect == "infinite scale":
            header["scales"]["block0.q"] = math.inf  # JSON Infinity
        text = b"{not json" if defect == "bad json" else json.dumps(header).encode()
        path = tmp_path / "bad.ckpt"
        path.write_bytes(blob[:start - 4] + struct.pack("<I", len(text)) + text + data)
        message = {"nan tensor": "tensor block0.w1 holds non-finite values",
                   "-inf tensor": "tensor block0.w1 holds non-finite values",
                   "infinite scale": "scale map is not one positive scale per quantizer",
                   }.get(defect, "")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            ax.load_checkpoint(str(path))

    @settings(max_examples=200, deadline=None)
    @given(field=st.sampled_from(["config", "config/num_heads", "config/embed_dim", "bitwidth",
                                  "tensors", "tensors/0", "tensors/0/name", "tensors/0/shape",
                                  "scales", "scales/block0.q"]),
           value=st.recursive(st.none() | st.booleans() | st.integers(-2, 64)
                              | st.floats(allow_nan=False) | st.text(max_size=3),
                              lambda inner: st.lists(inner, max_size=3)
                              | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                              max_leaves=6))
    def test_fuzzed_header_loads_or_raises_value_error(self, small_calibrated_model,
                                                       tmp_path_factory, field, value):
        path = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
        ax.save_checkpoint(small_calibrated_model, str(path))
        blob = path.read_bytes()
        start = len(ax.model.CHECKPOINT_MAGIC) + 5
        (hlen,) = struct.unpack("<I", blob[start - 4:start])
        header = json.loads(blob[start:start + hlen])
        *parents, last = field.split("/")
        node = header
        for key in parents:
            node = node[int(key)] if isinstance(node, list) else node[key]
        node[int(last) if isinstance(node, list) else last] = value
        text = json.dumps(header).encode()
        path.write_bytes(blob[:start - 4] + struct.pack("<I", len(text)) + text
                         + blob[start + hlen:])
        try:
            ax.load_checkpoint(str(path))
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")

    @settings(max_examples=200, deadline=None)
    @given(magic=st.none() | st.binary(max_size=8), version=st.none() | st.integers(0, 255),
           hlen=st.none() | st.integers(0, 2**32 - 1) | st.integers(0, 600),
           tail=st.none() | st.binary(max_size=64))
    # a header length of 4 GiB in a 12-byte file: the reader must not allocate it
    @example(magic=None, version=None, hlen=2**32 - 1, tail=b"")
    def test_fuzzed_framing_loads_or_raises_value_error(self, small_calibrated_model,
                                                        tmp_path_factory, magic, version,
                                                        hlen, tail):
        """Magic, version byte, header length and the bytes after them, each
        kept from a saved checkpoint (None) or arbitrary."""
        path = tmp_path_factory.getbasetemp() / "framing.ckpt"
        ax.save_checkpoint(small_calibrated_model, str(path))
        blob = path.read_bytes()
        start = len(ax.model.CHECKPOINT_MAGIC) + 5
        saved_version, saved_hlen = struct.unpack("<BI", blob[start - 5:start])
        path.write_bytes((blob[:start - 5] if magic is None else magic)
                         + struct.pack("<BI", saved_version if version is None else version,
                                       saved_hlen if hlen is None else hlen)
                         + (blob[start:] if tail is None else tail))
        try:
            ax.load_checkpoint(str(path))
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")

    @pytest.mark.parametrize("tensors, data", [
        ([], 0), ([{"name": "embed.b", "shape": [2]}], 16),
        ([{"name": "embed.w", "shape": [1 << 20, 1 << 20]}], 16)],
        ids=["no tensors", "one tensor", "huge tensor"])
    def test_claimed_layer_count_rejected_before_shapes_are_built(
            self, tmp_path, monkeypatch, tensors, data):
        """A small file that claims 20000 layers is rejected by counting the
        tensors its header lists, without building the 20000-layer shapes."""
        calls, real = [], ax.model.param_shapes
        monkeypatch.setattr(ax.model, "param_shapes", lambda cfg: calls.append(cfg) or real(cfg))
        text = json.dumps({"config": {"num_layers": 20000}, "bitwidth": 8,
                           "scales": None, "tensors": tensors}).encode()
        path = tmp_path / "many.ckpt"
        path.write_bytes(ax.model.CHECKPOINT_MAGIC
                         + struct.pack("<BI", ax.model.CHECKPOINT_VERSION, len(text))
                         + text + bytes(data))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "
                                             "tensor names or shapes do not match"):
            ax.load_checkpoint(str(path))
        assert calls == []

    def test_checkpoint_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"garbage data")
        with pytest.raises(ValueError, match="magic"):
            ax.load_checkpoint(str(path))


class TestData:
    def test_synthetic_shapes_and_balance(self):
        imgs, labels = dt.synthetic_dataset(200, seed=1)
        assert imgs.shape == (200, 16, 16) and imgs.dtype == np.uint8
        assert np.bincount(labels, minlength=10).tolist() == [20] * 10

    def test_synthetic_deterministic(self):
        a = dt.synthetic_dataset(50, seed=9)
        b = dt.synthetic_dataset(50, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_patches_shape_and_range(self):
        imgs, _ = dt.synthetic_dataset(10, seed=1)
        patches = dt.images_to_patches(imgs)
        assert patches.shape == (10, 16, 16)
        assert patches.min() >= 0.0 and patches.max() <= 1.0

    def test_idx_roundtrip(self, tmp_path):
        imgs, labels = dt.synthetic_dataset(30, seed=2)
        ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
        dt.save_idx_images(ip, imgs)
        dt.save_idx_labels(lp, labels)
        assert np.array_equal(dt.load_idx_images(ip), imgs)
        assert np.array_equal(dt.load_idx_labels(lp), labels)

    @pytest.mark.parametrize("size", [0, 3, 8, 15])
    def test_idx_truncated_header(self, tmp_path, size):
        imgs, labels = dt.synthetic_dataset(4, seed=2)
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        dt.save_idx_images(str(ip), imgs)
        dt.save_idx_labels(str(lp), labels)
        for path, load, header in ((ip, dt.load_idx_images, 16),
                                   (lp, dt.load_idx_labels, 8)):
            if size >= header:
                continue
            path.write_bytes(path.read_bytes()[:size])
            with pytest.raises(ValueError,
                               match=f"{re.escape(str(path))}: truncated IDX header"):
                load(str(path))

    @settings(max_examples=300, deadline=None)
    @given(images=st.booleans(), magic=st.none() | st.integers(0, 2**32 - 1),
           dims=st.lists(st.integers(0, 6) | st.integers(0, 2**32 - 1), min_size=3, max_size=3),
           tail=st.binary(max_size=120), cut=st.integers(0, 20))
    # no payload, but the shape's nonzero dimensions overflow numpy's index type
    @example(images=True, magic=None, dims=[0, 3036988439, 3037012561], tail=b"", cut=0)
    def test_fuzzed_idx_loads_or_raises_value_error(self, tmp_path_factory, images,
                                                   magic, dims, tail, cut):
        """Arbitrary bytes, often behind a valid magic (None) and plausible
        sizes: the reader returns the header's shape or names the path."""
        if magic is None:
            magic = dt.IDX_IMAGES_MAGIC if images else dt.IDX_LABELS_MAGIC
        fields = [magic] + dims[:3 if images else 1]
        blob = struct.pack(f">{len(fields)}I", *fields) + tail
        if cut:
            blob = blob[:-cut]
        path = tmp_path_factory.getbasetemp() / "fuzz.idx"
        path.write_bytes(blob)
        load = dt.load_idx_images if images else dt.load_idx_labels
        try:
            out = load(str(path))
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")
        else:
            assert out.shape == tuple(struct.unpack(f">{out.ndim}I", blob[4:4 + 4 * out.ndim]))

    def test_idx_bad_magic(self, tmp_path):
        path = tmp_path / "x.idx"
        path.write_bytes(b"\x00\x00\x00\x99" + b"\x00" * 12)
        with pytest.raises(ValueError, match="magic"):
            dt.load_idx_images(str(path))
