import numpy as np
import pytest

import axvit as ax
from axvit import training as tr
from axvit.model import WEIGHT_ROLES
from axvit.multipliers import AxMultiplier


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
        with pytest.raises(ValueError):
            ax.TrainHyperparams(optimizer="rmsprop")


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

    def test_requires_calibration(self, toy_data, catalog):
        patches, labels = toy_data
        hp = ax.TrainHyperparams(iterations=1)
        with pytest.raises(RuntimeError, match="calibrat"):
            ax.finetune(small_model(), ["mul8s_1L2H"], patches[:32], labels[:32],
                        hp, catalog)

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


class TestFloatBackward:
    def test_gradients_match_finite_differences(self, toy_data):
        patches, labels = toy_data
        model = small_model(seed=2)
        x, y = patches[:4], labels[:4]
        logits, cache = ax.vit_forward(model, x, quantized=False, collect=True)
        loss, dlogits = tr.softmax_xent(logits, y)
        grads = tr.vit_backward(model, cache, dlogits, quantized=False)

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
        want = tr.vit_backward(model, cache, dlogits, quantized=False)
        got = tr.vit_backward(model, cache, dlogits, quantized=True)
        assert got.keys() == want.keys()
        for name, g in want.items():
            assert got[name].tobytes() == g.tobytes(), name

    @pytest.mark.parametrize("role", WEIGHT_ROLES)
    def test_clipped_weight_zeroes_only_its_gradient(self, unclipped, role):
        model, cache, dlogits = unclipped
        want = tr.vit_backward(model, cache, dlogits)
        for i in range(model.cfg.num_layers):
            clipped = model.copy()
            clipped.scales[f"block{i}.{role}"] = 1e-12
            got = tr.vit_backward(clipped, cache, dlogits)
            assert got.keys() == want.keys()
            for name, g in want.items():
                if name == f"block{i}.{role}":
                    assert g.any() and not got[name].any()
                else:
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
        res = tr.ste_gradient_check(rng.normal(size=24), kind="linear")
        assert res.max_rel_deviation < 1e-3

    def test_epsilon_convergence_on_gelu(self):
        # seed chosen so the probe clears the boundary guard at both epsilons
        probe = np.random.default_rng(6).normal(size=24)
        coarse = tr.ste_gradient_check(probe, epsilon=1e-3, kind="gelu")
        fine = tr.ste_gradient_check(probe, epsilon=1e-4, kind="gelu")
        assert fine.max_rel_deviation < coarse.max_rel_deviation

    def test_clipped_component_has_zero_analytic_gradient(self):
        probe = np.array([0.3, -0.4, 5.0, 0.2])
        res = tr.ste_gradient_check(probe, clip=1.0)
        assert res.analytic[2] == 0.0
        assert not res.inside_clip[2]

    def test_boundary_probe_rejected(self):
        with pytest.raises(ValueError, match="rejected probe"):
            tr.ste_gradient_check(np.array([0.3, 1.0, -0.2]), clip=1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            tr.ste_gradient_check(np.ones(4) * 0.3, kind="conv")


class TestOptimizers:
    def test_sgd_step(self):
        params = {"w": np.array([1.0, 2.0])}
        tr.Sgd(0.1).step(params, {"w": np.array([1.0, -1.0])})
        assert np.allclose(params["w"], [0.9, 2.1])

    def test_adam_moves_against_gradient(self):
        params = {"w": np.array([1.0])}
        opt = tr.Adam(0.01)
        for _ in range(3):
            opt.step(params, {"w": np.array([2.0])})
        assert params["w"][0] < 1.0
