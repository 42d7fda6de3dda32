import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import axvit as ax
from axvit import data as dt
from axvit.model import (
    attention_forward,
    attn_weight_qparams,
    axx_matmul,
    exact_int_matmul,
    ffn_forward,
    gelu,
    layer_norm,
    linear_forward,
    multi_head_forward,
    refresh_weight_scales,
    softmax,
)
from axvit.multipliers import AxMultiplier, build_lut
from axvit.quant import QuantParams
from oracles import truncated_product

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

    def test_operand_range_check(self):
        with pytest.raises(ValueError, match="out of range"):
            axx_matmul(np.full((2, 2), 200), np.zeros((2, 2), int), EXACT_LUT)

    def test_accumulator_overflow_guard(self):
        a = np.full((1, 200000), 127)
        b = np.full((200000, 1), 127)
        with pytest.raises(OverflowError):
            exact_int_matmul(a, b)


class TestBlocks:
    QP = QuantParams(scale=0.05, bitwidth=8)

    def test_linear_zero_weight_broadcasts_bias(self):
        x = np.random.default_rng(2).normal(size=(4, 6))
        bias = np.arange(3.0)
        out = linear_forward(x, np.zeros((6, 3)), bias, self.QP, self.QP, EXACT_LUT)
        assert np.allclose(out, np.broadcast_to(bias, (4, 3)))

    def test_linear_exact_lut_equals_int_reference_path(self):
        x = np.random.default_rng(3).normal(size=(4, 6))
        w = np.random.default_rng(4).normal(size=(6, 3))
        via_lut = linear_forward(x, w, 0.0, self.QP, self.QP, EXACT_LUT)
        via_ref = linear_forward(x, w, 0.0, self.QP, self.QP, None)
        assert np.array_equal(via_lut, via_ref)

    def test_linear_requires_scales(self):
        with pytest.raises(RuntimeError, match="calibration"):
            linear_forward(np.ones((2, 2)), np.ones((2, 2)), 0.0, None, None,
                           EXACT_LUT)

    def test_attention_single_token(self):
        one = np.array([[1.0]])
        qps = {"q": self.QP, "k": self.QP, "v": self.QP,
               "attn": attn_weight_qparams(8)}
        out = float(attention_forward(one, one, one, 1, qps, EXACT_LUT)[0, 0])
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
        _, att = attention_forward(q, k, v, 4, qps, TRUNC2_LUT, collect=True)
        assert np.allclose(att.sum(axis=-1), 1.0, atol=1e-6)

    def test_attention_close_to_real_reference(self):
        rng = np.random.default_rng(6)
        q, k, v = (rng.normal(size=(2, 4)) for _ in range(3))
        qps = {"q": self.QP, "k": self.QP, "v": self.QP,
               "attn": attn_weight_qparams(8)}
        approx = attention_forward(q, k, v, 4, qps, EXACT_LUT)
        real = softmax((q @ k.T) / 2.0) @ v
        assert np.abs(approx - real).max() < 0.1

    def test_multi_head_shapes_and_reference(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 5, 4), scale=0.3)
        weights = {n: rng.normal(size=(4, 4), scale=0.3) for n in ("wq", "wk", "wv", "wo")}
        weights.update({f"b{n[1]}": np.zeros(4) for n in ("wq", "wk", "wv", "wo")})
        roles = ("attn_in", "wq", "wk", "wv", "q", "k", "v", "attn_out", "wo")
        qps = {r: self.QP for r in roles}
        qps["attn"] = attn_weight_qparams(8)
        out = multi_head_forward(x, weights, 2, qps, EXACT_LUT)
        assert out.shape == x.shape
        real = multi_head_forward(x, weights, 2, None, None)
        assert np.abs(out - real).max() < 0.2

    def test_ffn_zero_weights_yield_b2(self):
        x = np.random.default_rng(8).normal(size=(2, 4))
        b2 = np.array([1.0, -2.0])
        qps = {"ffn_in": self.QP, "w1": self.QP, "ffn_mid": self.QP, "w2": self.QP}
        out = ffn_forward(x, np.zeros((4, 3)), np.zeros(3), np.zeros((3, 2)), b2,
                          qps, EXACT_LUT)
        assert np.allclose(out, np.broadcast_to(b2, (2, 2)))

    def test_gelu_zero(self):
        assert gelu(0.0) == 0.0

    def test_layer_norm_normalizes(self):
        x = np.random.default_rng(9).normal(size=(3, 8), loc=4.0, scale=2.0)
        out, _ = layer_norm(x, np.ones(8), np.zeros(8))
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-9)
        assert np.allclose(out.var(axis=-1), 1.0, atol=1e-3)


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
        model.layer_norm_enabled = False
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
        with pytest.raises(ValueError, match="empty"):
            ax.evaluate_accuracy(small_calibrated_model,
                                 np.zeros((0, 16, 16)), np.zeros(0, int))

    def test_batch_limit(self, small_calibrated_model, toy_data, catalog):
        patches, labels = toy_data
        full = ax.evaluate_accuracy(small_calibrated_model, patches[:128],
                                    labels[:128], ["mul8s_1KV6"] * 2, catalog)
        limited = ax.evaluate_accuracy(small_calibrated_model, patches, labels,
                                       ["mul8s_1KV6"] * 2, catalog, batch_limit=128)
        assert full == limited

    def test_bad_assignment_length(self, small_calibrated_model, toy_data, catalog):
        patches, labels = toy_data
        with pytest.raises(ValueError, match="length"):
            ax.evaluate_accuracy(small_calibrated_model, patches[:8], labels[:8],
                                 ["mul8s_1KV6"], catalog)


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
        "short data", "trailing bytes"])
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
        elif defect == "short data":
            data = data[:-8]
        elif defect == "trailing bytes":
            data += b"\x00"
        text = b"{not json" if defect == "bad json" else json.dumps(header).encode()
        path = tmp_path / "bad.ckpt"
        path.write_bytes(blob[:start - 4] + struct.pack("<I", len(text)) + text + data)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
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

    def test_idx_bad_magic(self, tmp_path):
        path = tmp_path / "x.idx"
        path.write_bytes(b"\x00\x00\x00\x99" + b"\x00" * 12)
        with pytest.raises(ValueError, match="magic"):
            dt.load_idx_images(str(path))
