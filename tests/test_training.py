import numpy as np
import pytest

import axvit as ax
from axvit import training as tr
from axvit.model import WEIGHT_ROLES
from axvit.multipliers import AxMultiplier
from axvit.quant import max_scale
from oracles import ste_gradient_check


def small_model(seed=0):
    return ax.init_model(ax.ModelConfig(num_layers=1, embed_dim=16,
                                        num_heads=2, ffn_dim=32), seed=seed)


class TestHyperparams:
    def test_defaults(self):
        hp = ax.TrainHyperparams()
        assert hp.optimizer == "adam"
        assert hp.learning_rate == 5e-5
        assert hp.data_fraction == 0.025

    def test_validation(self):
        with pytest.raises(ValueError):
            ax.TrainHyperparams(learning_rate=-1.0)
        with pytest.raises(ValueError):
            ax.TrainHyperparams(data_fraction=0.0)
        for optimizer in ("rmsprop", "sgd"):
            with pytest.raises(ValueError, match="unknown optimizer"):
                ax.TrainHyperparams(optimizer=optimizer)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match=r"seed must be >= 0, got -1"):
            ax.TrainHyperparams(seed=-1)


class TestFinetune:
    def test_zero_lr_leaves_weights_unchanged(self, toy_data, catalog):
        patches, labels = toy_data
        model = small_model()
        ax.calibrate(model, patches[:64])
        before = {n: t.copy() for n, t in model.params.items()}
        hp = ax.TrainHyperparams(learning_rate=0.0, iterations=5,
                                 data_fraction=1.0)
        ax.finetune(model, ["mul8s_1L2H"], patches[:128], labels[:128], hp, catalog)
        for n, t in before.items():
            assert np.array_equal(model.params[n], t)

    def test_loss_history_finite_and_sized(self, toy_data, catalog):
        patches, labels = toy_data
        model = small_model()
        ax.calibrate(model, patches[:64])
        hp = ax.TrainHyperparams(iterations=8, data_fraction=1.0)
        losses = ax.finetune(model, ["mul8s_1L2H"], patches[:128], labels[:128],
                             hp, catalog)
        assert len(losses) == 8
        assert all(np.isfinite(v) for v in losses)

    def test_huge_rate_reports_divergence(self, toy_data, catalog):
        """A finite rate of 1e308 overflows the next forward pass (Adam's
        first step is about lr in size); the loop names the divergence, not
        a quantizer range error."""
        patches, labels = toy_data
        model = small_model()
        ax.calibrate(model, patches[:64])
        hp = ax.TrainHyperparams(learning_rate=1e308, iterations=3, batch_size=8,
                                 data_fraction=1.0)
        with pytest.raises(RuntimeError, match=r"training diverged: .* at step [01]$"):
            ax.finetune(model, ["mul8s_1L2H"], patches[:64], labels[:64], hp, catalog)

    def test_requires_calibration(self, toy_data, catalog):
        patches, labels = toy_data
        hp = ax.TrainHyperparams(iterations=1)
        with pytest.raises(RuntimeError, match="calibrat"):
            ax.finetune(small_model(), ["mul8s_1L2H"], patches[:32], labels[:32],
                        hp, catalog)

    @pytest.mark.parametrize("calibrated", [False, True], ids=["train_float", "finetune"])
    def test_label_count_mismatch(self, toy_data, catalog, calibrated):
        patches, labels = toy_data
        model = small_model()
        hp = ax.TrainHyperparams(iterations=2, batch_size=100, data_fraction=1.0)
        if calibrated:
            ax.calibrate(model, patches[:64])
        with pytest.raises(ValueError, match=r"labels of shape \(50,\) for 100 samples"):
            if calibrated:
                ax.finetune(model, ["mul8s_1L2H"], patches[:100], labels[:50], hp, catalog)
            else:
                tr.train_float(model, patches[:100], labels[:50], hp)

    @pytest.mark.parametrize("calibrated", [False, True], ids=["train_float", "finetune"])
    def test_negative_label_raises(self, toy_data, catalog, calibrated):
        """A label of -1 would index the last logit and train toward class 9."""
        patches, labels = toy_data[0][:64], toy_data[1][:64].copy()
        labels[5] = -1
        model = small_model()
        hp = ax.TrainHyperparams(iterations=2, batch_size=32, data_fraction=1.0)
        if calibrated:
            ax.calibrate(model, patches)
        before = {n: t.copy() for n, t in model.params.items()}
        with pytest.raises(ValueError, match=r"labels span \[-1, 9\], outside the model's "
                                             r"10 classes \[0, 9\]"):
            if calibrated:
                ax.finetune(model, ["mul8s_1L2H"], patches, labels, hp, catalog)
            else:
                tr.train_float(model, patches, labels, hp)
        assert all(np.array_equal(model.params[n], t) for n, t in before.items())

    def test_deterministic_given_seed(self, toy_data, catalog):
        patches, labels = toy_data
        runs = []
        for _ in range(2):
            model = small_model()
            ax.calibrate(model, patches[:64])
            hp = ax.TrainHyperparams(iterations=6, data_fraction=0.5, seed=4)
            losses = ax.finetune(model, ["mul8s_1L2H"], patches[:128],
                                 labels[:128], hp, catalog)
            runs.append((losses, model.params["head.w"].copy()))
        assert runs[0][0] == runs[1][0]
        assert np.array_equal(runs[0][1], runs[1][1])


    def test_second_step_runs_on_the_first_steps_weights(self, small_calibrated_model,
                                                           toy_data, catalog):
        """Each forward pass of finetune builds its weight operands from the
        weights and scales of that step. The history was recorded when every
        forward pass quantized each weight inside each matmul; the second
        loss differs from the first by far more than the tolerance, which
        only allows for a BLAS that rounds the float matmuls differently."""
        patches, labels = toy_data
        hp = ax.TrainHyperparams(optimizer="adam", learning_rate=1e-2, iterations=2,
                                 batch_size=32, data_fraction=1.0, seed=2)
        history = ax.finetune(small_calibrated_model.copy(), ["mul8s_1L2H", "mul8s_1KV9"],
                              patches[:256], labels[:256], hp, catalog)
        assert history == pytest.approx([2.5857415613623145, 3.8226234021165864],
                                         rel=1e-12, abs=0)

class TestTrainFloat:
    def test_refreshes_weight_scales_of_a_calibrated_model(self, toy_data):
        patches, labels = toy_data
        model = small_model()
        ax.calibrate(model, patches[:64])
        before = dict(model.scales)
        tr.train_float(model, patches[:128], labels[:128],
                       ax.TrainHyperparams(iterations=5, data_fraction=1.0))
        weight_keys = {f"block{i}.{role}" for i in range(model.cfg.num_layers)
                       for role in WEIGHT_ROLES}
        for key in weight_keys:
            assert model.scales[key] != before[key]
            assert model.scales[key] == max_scale(model.params[key], model.bitwidth).scale
        assert {k: v for k, v in model.scales.items() if k not in weight_keys} == {
            k: v for k, v in before.items() if k not in weight_keys}

    def test_uncalibrated_model_keeps_no_scales(self, toy_data):
        patches, labels = toy_data
        model = small_model()
        tr.train_float(model, patches[:128], labels[:128],
                       ax.TrainHyperparams(iterations=2, data_fraction=1.0))
        assert model.scales is None


class TestFloatBackward:
    def test_gradients_match_finite_differences(self, toy_data):
        patches, labels = toy_data
        model = small_model(seed=2)
        x, y = patches[:4], labels[:4]
        logits, cache = ax.vit_forward(model, x, quantized=False, collect=True)
        loss, dlogits = tr.softmax_xent(logits, y)
        grads = tr.vit_backward(model, cache, dlogits)

        rng = np.random.default_rng(0)
        eps = 1e-6
        for name in ("embed.w", "block0.wq", "block0.w1", "block0.ln1.g", "head.b"):
            t = model.params[name]
            idx = tuple(rng.integers(0, s) for s in t.shape)
            orig = t[idx]
            t[idx] = orig + eps
            lp, _ = tr.softmax_xent(ax.vit_forward(model, x, quantized=False), y)
            t[idx] = orig - eps
            lm, _ = tr.softmax_xent(ax.vit_forward(model, x, quantized=False), y)
            t[idx] = orig
            fd = (lp - lm) / (2 * eps)
            assert grads[name][idx] == pytest.approx(fd, rel=1e-4, abs=1e-9), name


def with_qps(model, cache):
    """The float cache with the STE scales of model's plan in every block."""
    return dict(cache, qps=[model.block_qps(i) for i in range(model.cfg.num_layers)])


class TestSteRoleMap:
    """The STE masks read each quantizer's scale for the tensor it sees."""

    @pytest.fixture(scope="class")
    def unclipped(self, small_calibrated_model, toy_data):
        patches, labels = toy_data
        model = small_calibrated_model.copy()
        model.scales = {key: 1e6 for key in model.scales}
        logits, cache = ax.vit_forward(model, patches[:8], quantized=False, collect=True)
        _, dlogits = tr.softmax_xent(logits, labels[:8])
        return model, cache, dlogits

    def test_unclipped_equals_float_backward(self, unclipped):
        model, cache, dlogits = unclipped
        want = tr.vit_backward(model, cache, dlogits)
        got = tr.vit_backward(model, with_qps(model, cache), dlogits)
        assert got.keys() == want.keys()
        for name, g in want.items():
            assert got[name].tobytes() == g.tobytes(), name

    @pytest.mark.parametrize("role", WEIGHT_ROLES)
    def test_clipped_weight_zeroes_only_its_gradient(self, unclipped, role):
        model, cache, dlogits = unclipped
        want = tr.vit_backward(model, with_qps(model, cache), dlogits)
        for i in range(model.cfg.num_layers):
            clipped = model.copy()
            clipped.scales[f"block{i}.{role}"] = 1e-12
            got = tr.vit_backward(clipped, with_qps(clipped, cache), dlogits)
            assert got.keys() == want.keys()
            for name, g in want.items():
                if name == f"block{i}.{role}":
                    assert g.any() and not got[name].any()
                else:
                    assert got[name].tobytes() == g.tobytes(), name

    def test_backward_uses_the_scales_of_its_forward(self, small_calibrated_model,
                                                     toy_data, catalog):
        """Scales changed after the forward pass do not reach its backward:
        clipping one activation and one weight scale of a copy to 1e-12
        would mask their gradients if the backward read the model's scales."""
        patches, labels = toy_data
        model = small_calibrated_model
        luts = [catalog.lut("mul8s_1L2H")] * model.cfg.num_layers
        logits, cache = ax.vit_forward(model, patches[:8], luts, collect=True)
        _, dlogits = tr.softmax_xent(logits, labels[:8])
        want = tr.vit_backward(model, cache, dlogits)
        changed = model.copy()
        changed.scales["block0.attn_in"] = changed.scales["block1.wq"] = 1e-12
        got = tr.vit_backward(changed, cache, dlogits)
        assert got.keys() == want.keys()
        for name, g in want.items():
            assert got[name].tobytes() == g.tobytes(), name


class TestToyAttention:
    def test_exact_multiplier_converges(self):
        mult = AxMultiplier("exact8", 8, "exact")
        res = tr.toy_attention_experiment(mult, iterations=200, seed=0)
        assert res.losses[-50:].mean() <= res.losses[0]
        assert res.losses[-50:].mean() < res.losses[:50].mean()
        assert np.isfinite(res.losses).all()

    def test_truncated_multiplier_loss_decreases(self):
        mult = AxMultiplier("trunc8k3", 8, "truncate_lsb", k=3)
        res = tr.toy_attention_experiment(mult, iterations=200, seed=0)
        assert res.losses[-50:].mean() < res.losses[:50].mean()

    def test_outputs_and_targets_shapes_match(self):
        mult = AxMultiplier("exact8", 8, "exact")
        res = tr.toy_attention_experiment(mult, iterations=20, seed=1)
        assert res.outputs.shape == res.targets.shape
        assert len(res.losses) == 20


class TestSteGradientCheck:
    def test_linear_interior_probe(self):
        rng = np.random.default_rng(0)
        res = ste_gradient_check(rng.normal(size=24), kind="linear")
        assert res.max_rel_deviation < 1e-3

    def test_epsilon_convergence_on_gelu(self):
        # seed chosen so the probe clears the boundary guard at both epsilons
        probe = np.random.default_rng(6).normal(size=24)
        coarse = ste_gradient_check(probe, epsilon=1e-3, kind="gelu")
        fine = ste_gradient_check(probe, epsilon=1e-4, kind="gelu")
        assert fine.max_rel_deviation < coarse.max_rel_deviation

    def test_clipped_component_has_zero_analytic_gradient(self):
        probe = np.array([0.3, -0.4, 5.0, 0.2])
        res = ste_gradient_check(probe, clip=1.0)
        assert res.analytic[2] == 0.0
        assert not res.inside_clip[2]

    def test_boundary_probe_rejected(self):
        with pytest.raises(ValueError, match="rejected probe"):
            ste_gradient_check(np.array([0.3, 1.0, -0.2]), clip=1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ste_gradient_check(np.ones(4) * 0.3, kind="conv")


class TestOptimizers:
    def test_adam_moves_against_gradient(self):
        params = {"w": np.array([1.0])}
        opt = tr.Adam(0.01)
        for _ in range(3):
            opt.step(params, {"w": np.array([2.0])})
        assert params["w"][0] < 1.0

    def test_adam_allocates_moments_on_first_step_only(self, monkeypatch):
        """Each parameter's two moments are allocated once, on its first
        step; later steps update them in place."""
        calls = []
        zeros_like = np.zeros_like
        monkeypatch.setattr(np, "zeros_like", lambda g: calls.append(g) or zeros_like(g))
        params = {"w": np.array([1.0, 2.0]), "b": np.array([0.5])}
        opt = tr.Adam(0.01)
        for _ in range(3):
            opt.step(params, {"w": np.array([2.0, -1.0]), "b": np.array([1.0])})
        assert len(calls) == 4
