import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import axvit as ax
import axvit.quant as quant
from axvit import training as tr
from axvit.model import ACTIVATION_ROLES, BATCH, WEIGHT_ROLES
from axvit.quant import (
    HistogramCalibrator,
    QuantParams,
    _bin_counts,
    _bin_edges,
    _rebin,
    dequantize,
    fake_quant_ste_grad,
    max_scale,
    quantize,
    save_scale_map,
)
from oracles import NumpyHistogramCalibrator, rebin_loop


class TestQuantParams:
    def test_range_and_clip(self):
        qp = QuantParams(scale=0.5, bitwidth=8)
        assert qp.qmax == 127
        assert qp.clip == 63.5

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            QuantParams(scale=0.0, bitwidth=8)


class TestCalibrator:
    def test_all_zeros_mass_in_first_bin(self):
        cal = HistogramCalibrator(num_bins=16).observe(np.zeros(40))
        assert cal.counts[0] == 40
        assert cal.observed_max == 0.0

    def test_zeros_before_first_nonzero_keep_their_mass(self):
        split = HistogramCalibrator().observe(np.zeros(1000)).observe(np.ones(10))
        joint = HistogramCalibrator().observe(np.r_[np.zeros(1000), np.ones(10)])
        assert split.counts.tolist() == joint.counts.tolist()
        assert split.clip_value() == joint.clip_value() == 1.0

    def test_observed_max_uses_absolute_values(self):
        cal = HistogramCalibrator().observe(np.array([-1.0, 1.0]))
        assert cal.observed_max == 1.0

    def test_split_vs_concatenated_observation(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=5000), rng.normal(size=5000) * 2.0
        split = HistogramCalibrator().observe(a).observe(b)
        joint = HistogramCalibrator().observe(np.concatenate([a, b]))
        bin_width = joint.observed_max / joint.num_bins
        assert abs(split.clip_value() - joint.clip_value()) <= bin_width

    def test_scale_examples(self):
        cal = HistogramCalibrator(percentile=100.0).observe(np.array([2.54]))
        assert cal.compute_scale(8).scale == pytest.approx(0.02)
        full = HistogramCalibrator(percentile=100.0).observe(
            np.linspace(-127.0, 127.0, 1000))
        assert full.compute_scale(8).scale == pytest.approx(1.0)

    def test_percentile_ignores_rare_outlier(self):
        rng = np.random.default_rng(1)
        vals = rng.uniform(-1.0, 1.0, size=1000)
        vals[500] = 100.0
        cal = HistogramCalibrator(percentile=99.9).observe(vals)
        bin_width = cal.observed_max / cal.num_bins
        assert cal.clip_value() <= 1.0 + bin_width

    def test_percentile_100_is_exact_max(self):
        vals = np.array([0.3, -2.7, 1.1])
        cal = HistogramCalibrator(percentile=100.0).observe(vals)
        assert cal.clip_value() == 2.7

    def test_percentile_100_clip_ge_999(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(size=20000)
        c100 = HistogramCalibrator(percentile=100.0).observe(vals).clip_value()
        c999 = HistogramCalibrator(percentile=99.9).observe(vals).clip_value()
        assert c100 >= c999

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            HistogramCalibrator().observe(np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="NaN or Inf"):
            HistogramCalibrator().observe(np.array([np.inf]))
        with pytest.raises(ValueError, match="NaN or Inf"):
            HistogramCalibrator().observe(np.array([2.0, -np.inf]))
        buried = np.random.default_rng(5).normal(size=65536)
        buried[40000] = np.nan
        cal = HistogramCalibrator().observe(np.ones(3))
        with pytest.raises(ValueError, match="NaN or Inf"):
            cal.observe(buried)
        assert (cal.total, cal.observed_max) == (3, 1.0)  # nothing was added

    @pytest.mark.parametrize("zeros", [0, 5])
    def test_too_many_bins_leaves_the_calibrator_unchanged(self, zeros):
        # 1e-320 has fewer ulps than 2048 bins: the edges are checked before
        # the maximum, the counts or the total change
        cal = HistogramCalibrator()
        if zeros:
            cal.observe(np.zeros(zeros))
        with pytest.raises(ValueError, match="Too many bins"):
            cal.observe(np.array([1e-320, 0.0]))
        assert (cal.observed_max, cal.total, cal.counts.sum()) == (0.0, zeros, zeros)
        cal.observe(np.array([1.0, 0.0]))  # and goes on as a fresh one would
        want = HistogramCalibrator().observe(np.zeros(zeros)).observe(np.array([1.0, 0.0]))
        assert cal.counts.tolist() == want.counts.tolist() and cal.total == want.total

    def test_edges_are_built_only_when_the_maximum_rises(self, monkeypatch):
        """A subnormal step (top / 2048 < TINY) takes numpy's steps against
        an edge array, built and checked each time the maximum rises, before
        the maximum, the counts or the total change."""
        built = []
        monkeypatch.setattr(
            quant, "_bin_edges",
            lambda top, n: built.append((top, cal.observed_max, cal.total)) or _bin_edges(top, n))
        cal = HistogramCalibrator()
        for top in (0.0, 1e-312, 5e-313, 1e-312, 3e-312, 2e-312, 3e-312):
            cal.observe(np.array([top, top / 3]))
        assert built == [(1e-312, 0.0, 2), (3e-312, 1e-312, 8)]
        assert cal._edges.tolist() == _bin_edges(3e-312, cal.num_bins).tolist()

    def test_a_normal_step_builds_no_edges(self, monkeypatch):
        """Tops up to the largest float, down to a step of exactly TINY."""
        spied = []
        monkeypatch.setattr(quant, "_bin_edges", lambda *a: spied.append(a))
        monkeypatch.setattr(np, "linspace", lambda *a, **k: spied.append(a))
        cal = HistogramCalibrator()
        for top in (2048 * TINY, 1.0, 0.5, 3.0, 1e300, FLOAT_MAX):
            cal.observe(np.array([top, top / 3, 0.0]))
            assert cal._edges is None
        assert spied == []
        assert cal.counts.sum() == 18

    @pytest.mark.parametrize("num_bins", [2048.0, True, False, 1.5, "16", 0, -3])
    def test_rejects_a_non_integer_bin_count(self, num_bins):
        with pytest.raises(ValueError, match=re.escape(
                f"num_bins must be an integer >= 1, got {num_bins!r}")):
            HistogramCalibrator(num_bins)

    def test_calibrate_rejects_a_float_bin_count(self, toy_data):
        model = ax.init_model(ax.ModelConfig(num_layers=1, embed_dim=8, num_heads=2, ffn_dim=16))
        with pytest.raises(ValueError, match=re.escape("got 2048.0")):
            ax.calibrate(model, toy_data[0][:4], num_bins=2048.0)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint16])
    def test_accepts_numpy_integer_bin_counts(self, kind):
        cal = HistogramCalibrator(kind(7)).observe(np.array([0.0, 0.5, 1.0]))
        assert cal.counts.tolist() == [1, 0, 0, 1, 0, 0, 1] and type(cal.num_bins) is int

    def test_empty_calibrator_raises(self):
        with pytest.raises(RuntimeError):
            HistogramCalibrator().clip_value()

    def test_rebinning_preserves_total_mass(self):
        cal = HistogramCalibrator(num_bins=64)
        cal.observe(np.linspace(0.1, 1.0, 500))
        cal.observe(np.array([10.0]))
        assert cal.counts.sum() == pytest.approx(501)

    @settings(max_examples=200, deadline=None)
    @given(num_bins=st.sampled_from([1, 2, 2048]) | st.integers(1, 2048),
           density=st.sampled_from([0.002, 0.05, 0.5, 1.0]),
           fractional=st.booleans(),
           old_max=st.floats(1e-3, 1e3),
           ratio=st.none() | st.floats(1.0, 100.0, exclude_min=True),
           seed=st.integers(0, 2**32 - 1))
    @example(num_bins=1, density=1.0, fractional=False, old_max=1.0, ratio=None, seed=0)
    @example(num_bins=2, density=1.0, fractional=True, old_max=3.0, ratio=100.0, seed=1)
    @example(num_bins=2048, density=1.0, fractional=True, old_max=0.7, ratio=None, seed=2)
    @example(num_bins=2048, density=0.002, fractional=False, old_max=5.0, ratio=100.0, seed=3)
    def test_rebin_matches_loop_bit_for_bit(self, num_bins, density, fractional,
                                            old_max, ratio, seed):
        """Sparse or dense, integral or fractional counts (calibration counts
        turn fractional after the first rebin); ``ratio=None`` grows the
        maximum by one ulp."""
        rng = np.random.default_rng(seed)
        counts = (rng.integers(0, 1000, num_bins) * (rng.random(num_bins) < density)
                  ).astype(np.float64)
        if fractional:
            counts *= rng.random(num_bins)
        up = np.nextafter(old_max, np.inf)
        new_max = up if ratio is None else max(old_max * ratio, up)
        got, want = _rebin(counts, old_max, new_max), rebin_loop(counts, old_max, new_max)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_scale_monotone_in_clip(self):
        small = HistogramCalibrator(percentile=100.0).observe(np.array([1.0]))
        large = HistogramCalibrator(percentile=100.0).observe(np.array([4.0]))
        assert large.compute_scale(8).scale > small.compute_scale(8).scale


SMALLEST_SUBNORMAL = float(np.nextafter(0.0, 1.0))
TINY = float(np.finfo(float).tiny)  # the least normal float
FLOAT_MAX = float(np.finfo(float).max)


def edge_heavy_values(rng, size, top, num_bins):
    """``size`` values in [0, top], most of them on np.histogram's linspace
    edges, one ulp or 2-4 ulps either side, or on ``i * step`` or one ulp
    either side for i at the first, a middle and the last bin's edges; the
    rest 0.0, ``top`` or uniform."""
    # near the largest float, linspace's last product overflows before
    # linspace sets the end point to top, and the ulp above top is inf
    with np.errstate(over="ignore"):
        edges = np.linspace(0.0, top, num_bins + 1)
        on = edges[rng.integers(0, num_bins + 1, size)]
        above = np.nextafter(on, np.inf)
        at = np.array([0, 1, num_bins // 2, num_bins // 2 + 1, num_bins - 1, num_bins])
        on_step = at[rng.integers(0, at.size, size)] * (top / num_bins)
        step_above = np.nextafter(on_step, np.inf)
    # a non-negative float's bits count its ulps from 0.0
    bits, ulps = on.view(np.int64), rng.integers(2, 5, size)
    far_below = np.maximum(bits - ulps, 0).view(np.float64)
    far_above = np.minimum(bits + ulps, np.float64(top).view(np.int64)).view(np.float64)
    kind = rng.integers(0, 11, size)
    v = np.select([kind == k for k in range(1, 11)],
                  [np.nextafter(on, 0.0), above, 0.0, top, rng.random(size) * top,
                   far_below, far_above, on_step, np.nextafter(on_step, 0.0), step_above],
                  on)
    return np.clip(v, 0.0, top)


@st.composite
def bins_and_top(draw):
    """A bin count, 1-4096 or up to about 10**5 and mostly not a power of
    two, and a top: subnormal, huge, a few ulps either side of (or a small
    factor off) ``num_bins * TINY``, where linspace's step turns subnormal,
    or ``num_bins`` times a step one ulp either side of TINY; or 1-7 bins
    and a top within 2**3 of the largest float, where ``num_bins / top``
    turns subnormal."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.integers(1, 7)), draw(st.floats(FLOAT_MAX / 8, FLOAT_MAX))
    num_bins = draw(st.sampled_from([1, 2, 2048, 4096, 3001, 99_991])
                    | st.integers(1, 4096) | st.integers(4097, 100_000))
    at_tiny = num_bins * TINY  # exact: a power of two times an integer < 2**53
    top = draw(st.sampled_from([1.0, 3.7, 4096 * SMALLEST_SUBNORMAL, FLOAT_MAX])
               | st.floats(SMALLEST_SUBNORMAL, 2.2e-308)  # subnormal
               | st.floats(1e-300, 1e300) | st.floats(1e300, FLOAT_MAX)
               | st.integers(-4, 4).map(
                   lambda k: float((np.float64(at_tiny).view(np.int64) + k).view(np.float64)))
               | st.floats(0.5, 2.0).map(lambda f: at_tiny * f)
               | st.sampled_from([0.0, np.inf]).map(
                   lambda to: num_bins * float(np.nextafter(TINY, to))))
    return num_bins, top


class TestBinCounts:
    """_bin_counts against np.histogram on [0, top], the call it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(bins_top=bins_and_top(),
           size=st.sampled_from([0, 1, 65535, 65536, 65537, 70000]) | st.integers(0, 70000),
           seed=st.integers(0, 2**32 - 1))
    @example(bins_top=(2, SMALLEST_SUBNORMAL), size=10, seed=0)  # linspace's step == 0
    @example(bins_top=(4096, 4096 * SMALLEST_SUBNORMAL), size=70000, seed=1)
    @example(bins_top=(1, FLOAT_MAX), size=65537, seed=2)
    @example(bins_top=(5, 2.0237e-320), size=1000, seed=3)  # a subnormal step
    @example(bins_top=(99_991, 1.0), size=70000, seed=4)
    @example(bins_top=(3001, float(np.nextafter(3001 * TINY, 0.0))), size=1000, seed=5)
    @example(bins_top=(3001, 3001 * TINY), size=1000, seed=6)
    @example(bins_top=(3, FLOAT_MAX), size=1000, seed=7)  # num_bins / top is subnormal
    @example(bins_top=(7, FLOAT_MAX / 7.5), size=1000, seed=8)
    @example(bins_top=(1, FLOAT_MAX / 3), size=1000, seed=9)
    @example(bins_top=(2048, 2048 * float(np.nextafter(TINY, 0.0))), size=1000, seed=10)
    @example(bins_top=(2048, 2048 * float(np.nextafter(TINY, 1.0))), size=1000, seed=11)
    def test_equals_np_histogram(self, bins_top, size, seed):
        """Edge-heavy values, subnormal and huge tops and tops where the
        step turns subnormal, 1 to about 10**5 bins, and sizes across
        np.histogram's 65,536-value block. Where the linspace edges do not
        rise strictly (a subnormal top with more bins than it has ulps),
        np.histogram raises, and so does _bin_edges; that happens only
        where the step is subnormal, the one case that builds edges."""
        num_bins, top = bins_top
        v = edge_heavy_values(np.random.default_rng(seed), size, top, num_bins)
        with np.errstate(over="ignore"):  # linspace near the largest float
            try:
                want = np.histogram(v, num_bins, (0.0, top))[0]
            except ValueError as exc:
                assert "Too many bins" in str(exc) and top / num_bins < TINY
                with pytest.raises(ValueError, match="Too many bins"):
                    _bin_edges(top, num_bins)
                return
            edges = _bin_edges(top, num_bins) if top / num_bins < TINY else None
            got = _bin_counts(v, top, num_bins, edges)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()

    def test_top_lands_in_the_last_bin(self):
        got = _bin_counts(np.array([0.0, 0.5, 1.0, 1.0]), 1.0, 4)
        assert got.tolist() == [1, 0, 1, 2]


@st.composite
def observe_batches(draw):
    """A sequence of calibration batches: all-zero batches first or not,
    then batches whose maxima rise, fall or repeat, some of them strided
    head views of a fused [q|k|v]-like array (or their swapaxes)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batches = [np.zeros(draw(st.integers(1, 50))) for _ in range(draw(st.integers(0, 2)))]
    for _ in range(draw(st.integers(1, 6))):
        scale = draw(st.sampled_from([1e-3, 0.5, 1.0, 2.0, 40.0]))
        b, n, h, dh = (draw(st.integers(1, 4)) for _ in range(4))
        fused = rng.normal(0.0, scale, size=(b, n, 3 * h * dh))
        if draw(st.booleans()):
            fused[rng.random(fused.shape) < 0.2] = 0.0
        view = draw(st.sampled_from(["whole", "head", "swapaxes"]))
        if view == "whole":
            batches.append(fused)
        else:
            j = draw(st.integers(0, 2))
            heads = fused[..., j * h * dh:(j + 1) * h * dh].reshape(b, n, h, dh)
            heads = heads.transpose(0, 2, 1, 3)
            batches.append(np.swapaxes(heads, -1, -2) if view == "swapaxes" else heads)
    return batches


class TestObserveMatchesNpHistogram:
    @settings(max_examples=60, deadline=None)
    @given(batches=observe_batches(), num_bins=st.sampled_from([1, 7, 64, 2048]),
           percentile=st.sampled_from([50.0, 99.9, 100.0]))
    def test_same_state_and_scale(self, batches, num_bins, percentile):
        """observe and the np.histogram-based oracle agree bit for bit on
        counts, maximum and total after every batch, and on the scale."""
        cal = HistogramCalibrator(num_bins, percentile)
        ref = NumpyHistogramCalibrator(num_bins)
        for batch in batches:
            cal.observe(batch)
            ref.observe(batch)
            assert cal.counts.view(np.int64).tolist() == ref.counts.view(np.int64).tolist()
            assert (cal.observed_max, cal.total) == (ref.observed_max, ref.total)
        from_ref = HistogramCalibrator(num_bins, percentile)
        from_ref.counts, from_ref.observed_max, from_ref.total = (ref.counts, ref.observed_max,
                                                                  ref.total)
        if ref.observed_max > 0.0:
            assert cal.compute_scale(8) == from_ref.compute_scale(8)

    def test_strided_input_is_left_alone(self):
        fused = np.random.default_rng(4).normal(size=(2, 3, 12))
        before = fused.tobytes()
        heads = fused[..., 4:8].reshape(2, 3, 2, 2).transpose(0, 2, 1, 3)
        cal = HistogramCalibrator(16).observe(heads)
        assert fused.tobytes() == before
        assert cal.observed_max == float(np.abs(fused[..., 4:8]).max()) and cal.total == 24


@pytest.fixture(scope="module")
def trained_model(toy_data):
    patches, labels = toy_data
    model = ax.init_model(ax.ModelConfig(num_layers=2, embed_dim=16, num_heads=2, ffn_dim=32),
                          seed=5)
    tr.train_float(model, patches[:256], labels[:256],
                   ax.TrainHyperparams(learning_rate=3e-3, iterations=40, batch_size=32,
                                       data_fraction=1.0, seed=5))
    return model


class TestCalibrateMatchesNpHistogram:
    @pytest.mark.parametrize("num_bins", [1, 7, 2048, 3001])
    def test_scale_map(self, trained_model, toy_data, num_bins):
        """model.calibrate's scale map on a trained model equals one whose
        activation histograms are np.histogram's: each block's float
        activations, collected by vit_forward batch by batch as calibrate
        batches them (the last batch short), go to a
        NumpyHistogramCalibrator; weight scales are max_scale's."""
        patches = toy_data[0][:3 * BATCH + 8]
        model = trained_model.copy()
        got = ax.calibrate(model, patches, num_bins=num_bins)
        refs = {}
        for start in range(0, len(patches), BATCH):
            _, cache = ax.vit_forward(model, patches[start:start + BATCH], quantized=False,
                                      collect=True)
            for i, bc in enumerate(cache["blocks"]):
                for role in ACTIVATION_ROLES:
                    refs.setdefault(f"block{i}.{role}",
                                    NumpyHistogramCalibrator(num_bins)).observe(bc[role])
        want = {}
        for key, ref in refs.items():
            cal = HistogramCalibrator(num_bins)
            cal.counts, cal.observed_max, cal.total = ref.counts, ref.observed_max, ref.total
            want[key] = cal.compute_scale(model.bitwidth).scale
        for i in range(model.cfg.num_layers):
            for role in WEIGHT_ROLES:
                key = f"block{i}.{role}"
                want[key] = max_scale(model.params[key], model.bitwidth).scale
        assert got == want


class TestQuantizeDequantize:
    def test_examples(self):
        qp = QuantParams(scale=1.0, bitwidth=8)
        assert quantize(0.0, qp) == 0
        assert quantize(0.5, qp) == 1
        assert quantize(-0.5, qp) == -1
        assert quantize(3.14, QuantParams(scale=0.02, bitwidth=8)) == 127

    def test_saturates(self):
        qp = QuantParams(scale=1.0, bitwidth=8)
        assert quantize(1e9, qp) == 127
        assert quantize(-1e9, qp) == -127

    def test_dequantize_examples(self):
        qp = QuantParams(scale=1.0, bitwidth=8)
        assert dequantize(0, qp) == 0.0
        assert dequantize(127, qp) == 127.0

    def test_round_trip_error_bound(self):
        rng = np.random.default_rng(3)
        qp = QuantParams(scale=0.04, bitwidth=8)
        x = rng.uniform(-qp.clip, qp.clip, size=20000)
        err = np.abs(dequantize(quantize(x, qp), qp) - x)
        assert err.max() <= qp.scale / 2 + 1e-12

    def test_weight_max_scale(self):
        qp = max_scale(np.array([-6.35, 1.0]), 8)
        assert qp.scale == pytest.approx(0.05)
        assert max_scale(np.zeros(4), 8).scale > 0


class TestSteGradient:
    def test_pass_inside_zero_outside(self):
        qp = QuantParams(scale=1.0, bitwidth=8)
        x = np.array([0.0, 100.0, 2 * qp.clip, -300.0])
        g = np.ones_like(x)
        out = fake_quant_ste_grad(g, x, qp)
        assert np.array_equal(out, [1.0, 1.0, 0.0, 0.0])

    def test_is_binary_mask_times_upstream(self):
        rng = np.random.default_rng(4)
        qp = QuantParams(scale=0.1, bitwidth=8)
        x = rng.normal(scale=10.0, size=1000)
        g = rng.normal(size=1000)
        out = fake_quant_ste_grad(g, x, qp)
        mask = out / np.where(g == 0, 1.0, g)
        assert set(np.round(mask, 12)) <= {0.0, 1.0}

    def test_matches_clamp_finite_difference(self):
        # Away from the clip kink and rounding steps, fake quantization is
        # locally flat but its STE surrogate is the clamp's derivative.
        qp = QuantParams(scale=1.0, bitwidth=8)
        eps = 1e-4
        def clamp(x):
            return np.clip(x, -qp.clip, qp.clip)
        for x in (3.3, -50.2, 126.4, 200.0, -140.5):
            fd = (clamp(x + eps) - clamp(x - eps)) / (2 * eps)
            ste = fake_quant_ste_grad(np.array(1.0), np.array(x), qp)
            assert abs(float(ste) - fd) < 1e-6

    def test_shape_mismatch(self):
        qp = QuantParams(scale=1.0, bitwidth=8)
        with pytest.raises(ValueError):
            fake_quant_ste_grad(np.ones(3), np.ones(4), qp)


class TestScaleMap:
    def test_roundtrip(self, tmp_path):
        scales = {"block0.q": 0.031, "block1.w1": 0.0044}
        path = str(tmp_path / "scales.json")
        save_scale_map(scales, path)
        with open(path) as f:
            assert json.load(f) == scales
