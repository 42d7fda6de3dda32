import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import axvit as ax
from axvit import model as nn
from axvit import search as se
from axvit.multipliers import AxMultiplier, save_lut
from oracles import (
    brute_force_pareto,
    probe_accuracy,
    probe_blocks,
    reference_policy,
    reference_power_reduction,
    reference_ucb,
)
from test_lut_matmul import noisy_exact_lut


class TestUcbScore:
    def test_unvisited_is_infinite(self):
        assert se.ucb_score(0.0, 0, 5, math.sqrt(2)) == math.inf

    def test_zero_c_is_pure_exploitation(self):
        assert se.ucb_score(0.37, 4, 100, 0.0) == 0.37

    def test_matches_independent_arithmetic(self):
        for mean, n, parent, c in [(0.5, 10, 100, math.sqrt(2)),
                                   (0.1, 3, 7, 1.0), (0.9, 50, 51, 2.5)]:
            assert se.ucb_score(mean, n, parent, c) == pytest.approx(
                reference_ucb(mean, n, parent, c), rel=1e-12)


class TestRolloutPolicy:
    def test_symmetric_inputs(self):
        probs = se.rollout_policy_probs([0.9, 0.9], [0.5, 0.5], 1.0)
        assert np.allclose(probs, [0.5, 0.5])

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        probs = se.rollout_policy_probs(rng.uniform(size=6), rng.uniform(size=6), 0.7)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_lambda_zero_ranks_by_sensitivity(self):
        s = np.array([0.2, 0.9, 0.5])
        probs = se.rollout_policy_probs(s, np.array([1.0, 0.1, 0.5]), 0.0)
        assert list(np.argsort(probs)) == list(np.argsort(s))

    def test_matches_independent_softmax(self):
        probs = se.rollout_policy_probs([1.0, 0.8], [1.0, 0.5], 1.0)
        assert np.allclose(probs, reference_policy([1.0, 0.8], [1.0, 0.5], 1.0),
                           atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            se.rollout_policy_probs([], [], 1.0)


class TestPowerModel:
    def test_all_exact_is_unity(self, catalog):
        cfg = ax.ModelConfig()
        power = se.power_of_config(["mul8s_1KV6"] * 2, catalog, cfg, "mul8s_1KV6")
        assert power == pytest.approx(1.0)
        assert se.power_reduction_pct(power) == pytest.approx(0.0)

    def test_power_reduction_from_mac_fraction(self, catalog):
        # fraction of approximable MACs -> expected power reduction
        for frac, name, expected in [(0.9854, "mul8s_1L2H", 28.75),
                                     (0.755, "mul8s_1L2L", 39.98)]:
            power = se.normalized_power([name], [frac, 1 - frac], catalog,
                                        "mul8s_1KV6")
            assert se.power_reduction_pct(power) == pytest.approx(expected, abs=0.1)
            m = catalog.get(name)
            assert se.power_reduction_pct(power) == pytest.approx(
                reference_power_reduction(frac, m.power_mw, 0.425), abs=1e-9)

    def test_mac_counts_formula(self):
        cfg = ax.ModelConfig(num_layers=3, embed_dim=16, num_heads=2, ffn_dim=32)
        per_block, fixed = se.transformer_mac_counts(cfg)
        t, d, df = cfg.num_patches, cfg.embed_dim, cfg.ffn_dim
        assert per_block == [4 * t * d * d + 2 * t * t * d + 2 * t * d * df] * 3
        assert fixed == t * cfg.patch_dim * d + d * cfg.num_classes

    def test_mac_count_mismatch_rejected(self, catalog):
        # one count per slot without the fixed count is rejected too
        for mac_counts in ([1.0, 1.0, 1.0], [1.0]):
            with pytest.raises(ValueError, match="fixed MACs"):
                se.normalized_power(["mul8s_1KV6"], mac_counts, catalog, "mul8s_1KV6")

    def test_cheaper_multiplier_lowers_power(self, catalog):
        cfg = ax.ModelConfig()
        hi = se.power_of_config(["mul8s_1KV9"] * 2, catalog, cfg, "mul8s_1KV6")
        lo = se.power_of_config(["mul8s_1L2L"] * 2, catalog, cfg, "mul8s_1KV6")
        assert lo < hi < 1.0


class TestParetoFront:
    def pt(self, acc, power):
        return se.SearchPoint(("m",), acc, power, 0.0)

    def test_single_point(self):
        pts = [self.pt(0.5, 0.5)]
        assert se.pareto_front(pts) == pts

    def test_drops_dominated_example(self):
        pts = [self.pt(0.7, 0.5), self.pt(0.6, 0.6), self.pt(0.8, 0.9)]
        front = se.pareto_front(pts)
        assert {(p.predicted_accuracy, p.normalized_power) for p in front} == \
            {(0.7, 0.5), (0.8, 0.9)}

    def test_empty(self):
        assert se.pareto_front([]) == []

    def test_matches_quadratic_oracle_on_random_points(self):
        rng = np.random.default_rng(5)
        pts = [self.pt(float(a), float(p))
               for a, p in zip(rng.uniform(size=200), rng.uniform(size=200))]
        got = [(p.predicted_accuracy, p.normalized_power)
               for p in se.pareto_front(pts)]
        want = brute_force_pareto([(p.predicted_accuracy, p.normalized_power)
                                   for p in pts])
        assert got == [(a, p) for a, p in want]

    def test_deduplicates_and_sorts_by_power(self):
        pts = [self.pt(0.9, 0.8), self.pt(0.9, 0.8), self.pt(0.5, 0.1)]
        front = se.pareto_front(pts)
        assert len(front) == 2
        assert [p.normalized_power for p in front] == [0.1, 0.8]

    def test_output_mutually_non_dominated(self):
        rng = np.random.default_rng(6)
        pts = [self.pt(float(a), float(p))
               for a, p in zip(rng.uniform(size=60), rng.uniform(size=60))]
        front = se.pareto_front(pts)
        for p in front:
            for q in front:
                dominates = (q.predicted_accuracy >= p.predicted_accuracy
                             and q.normalized_power <= p.normalized_power
                             and (q.predicted_accuracy > p.predicted_accuracy
                                  or q.normalized_power < p.normalized_power))
                assert not dominates

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(0, 6).map(lambda v: v / 6) | st.floats(0, 1)] * 2),
                    max_size=40))
    def test_property_matches_oracle(self, pairs):
        # few distinct values, so accuracies, powers and whole points repeat
        pts = [se.SearchPoint((str(i),), a, p, 0.0) for i, (a, p) in enumerate(pairs)]
        front = se.pareto_front(pts)
        want = brute_force_pareto([(p.predicted_accuracy, p.normalized_power, p)
                                   for p in pts])
        assert front == [w[2] for w in want]
        keys = [(p.predicted_accuracy, p.normalized_power) for p in front]
        assert len(set(keys)) == len(keys)
        assert [k[1] for k in keys] == sorted(k[1] for k in keys)
        for a, pw in keys:
            assert not any(q.predicted_accuracy >= a and q.normalized_power <= pw
                           and (q.predicted_accuracy > a or q.normalized_power < pw)
                           for q in pts)


def toy_evaluator(names, lam_independent_noise=0.0):
    """Deterministic synthetic evaluator over assignments of the given names."""
    accs = {"a": 0.9, "b": 0.8, "c": 0.6}
    powers = {"a": 1.0, "b": 0.7, "c": 0.4}

    def evaluate(config):
        acc = float(np.mean([accs[n] for n in config]))
        power = float(np.mean([powers[n] for n in config]))
        return acc, power

    return evaluate


class TestMctsSearch:
    NAMES = ["a", "b", "c"]

    def params(self, **kw):
        base = dict(lam=0.5, num_simulations=200, policy="random", seed=0)
        base.update(kw)
        return se.SearchParams(**base)

    def test_reward_identity(self):
        res = se.mcts_search(3, self.NAMES, self.params(), toy_evaluator(self.NAMES))
        for pt in res.points:
            assert pt.reward == pt.predicted_accuracy - 0.5 * pt.normalized_power

    def test_tree_consistency(self):
        res = se.mcts_search(3, self.NAMES, self.params(), toy_evaluator(self.NAMES))

        def walk(node):
            if node.children is None:
                return
            assert node.visits >= sum(ch.visits for ch in node.children)
            if node.visits:
                assert node.mean_reward == pytest.approx(
                    node.total_reward / node.visits)
            for ch in node.children:
                walk(ch)

        walk(res.root)

    def test_single_acu_catalog(self):
        res = se.mcts_search(2, ["a"], self.params(num_simulations=30),
                             toy_evaluator(["a"]))
        assert len(set(res.rewards.tolist())) == 1
        assert all(pt.config == ("a", "a") for pt in res.points)

    def test_evaluations_memoized(self):
        calls = []
        inner = toy_evaluator(self.NAMES)

        def counting(config):
            calls.append(config)
            return inner(config)

        se.mcts_search(2, self.NAMES, self.params(num_simulations=300), counting)
        assert len(calls) == len(set(calls)) <= 9

    def test_finds_brute_force_best_in_small_space(self):
        import itertools
        evaluate = toy_evaluator(self.NAMES)
        lam = 0.5
        best = max((evaluate(c)[0] - lam * evaluate(c)[1]
                    for c in itertools.product(self.NAMES, repeat=3)))
        res = se.mcts_search(3, self.NAMES, self.params(num_simulations=500),
                             toy_evaluator(self.NAMES))
        assert max(r.reward for r in res.points) == pytest.approx(best)

    def test_deterministic_given_seed(self):
        r1 = se.mcts_search(3, self.NAMES, self.params(seed=3), toy_evaluator(self.NAMES))
        r2 = se.mcts_search(3, self.NAMES, self.params(seed=3), toy_evaluator(self.NAMES))
        assert np.array_equal(r1.rewards, r2.rewards)
        assert [p.config for p in r1.points] == [p.config for p in r2.points]

    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(1, 4), num_layers=st.integers(1, 4),
           sims=st.integers(1, 60), seed=st.integers(0, 2**16))
    def test_property_tree_invariants(self, k, num_layers, sims, seed):
        names = [f"m{j}" for j in range(k)]

        def evaluate(config):  # seeded and deterministic per config
            acc, power = np.random.default_rng(
                [seed] + [int(n[1:]) for n in config]).random(2)
            return float(acc), float(power)

        res = se.mcts_search(num_layers, names, self.params(num_simulations=sims,
                                                            seed=seed), evaluate)
        root = res.root
        assert root.visits == sims
        assert len(res.points) == sims
        assert root.total_reward == sum(res.rewards.tolist())

        def walk(node):
            if node.children is None:
                return
            assert len(node.children) == k
            for j, ch in enumerate(node.children):
                assert ch.depth == node.depth + 1
                assert ch.assignment == node.assignment + (j,)
                walk(ch)
            assert node.visits - sum(ch.visits for ch in node.children) in (
                (0,) if node is root else (0, 1))

        walk(root)

    def test_hw_policy_requires_sensitivity(self):
        with pytest.raises(ValueError, match="sensitivity"):
            se.mcts_search(2, self.NAMES, self.params(policy="hw"),
                           toy_evaluator(self.NAMES))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            se.SearchParams(lam=-1.0)
        with pytest.raises(ValueError):
            se.SearchParams(num_simulations=0)
        with pytest.raises(ValueError):
            se.SearchParams(policy="greedy")

    def test_negative_seed(self):
        with pytest.raises(ValueError, match=r"seed must be >= 0, got -1"):
            se.SearchParams(seed=-1)


class TestSensitivityAndSurrogate:
    def test_exact_rows_are_unity(self, small_calibrated_model, toy_data, catalog):
        patches, labels = toy_data
        table = se.profile_sensitivity(small_calibrated_model, catalog,
                                       patches[:96], labels[:96])
        j = table.acu_names.index("mul8s_1KV6")
        assert np.allclose(table.s[j], 1.0)
        assert np.allclose(table.p[j], 1.0)

    def test_powers_below_unity_for_cheaper_units(self, small_calibrated_model,
                                                  toy_data, catalog):
        patches, labels = toy_data
        table = se.profile_sensitivity(small_calibrated_model, catalog,
                                       patches[:96], labels[:96])
        j = table.acu_names.index("mul8s_1L2L")
        assert (table.p[j] < 1.0).all()

    def test_baseline_cells_are_not_evaluated(self, small_calibrated_model, toy_data,
                                              catalog, monkeypatch):
        model = small_calibrated_model
        probe_p, probe_l = toy_data[0][:96], toy_data[1][:96]
        calls = []
        original = se.predict_accuracy

        def counted(*args):
            calls.append(tuple(args[1]))
            return original(*args)

        monkeypatch.setattr(se, "predict_accuracy", counted)
        table = se.profile_sensitivity(model, catalog, probe_p, probe_l)
        monkeypatch.undo()
        k, L = len(table.acu_names), model.cfg.num_layers
        assert len(calls) == 1 + (k - 1) * L
        base = ["mul8s_1KV6"] * L
        base_acc = se.predict_accuracy(model, base, catalog, probe_p, probe_l)
        assert table.baseline_accuracy == base_acc
        for j, name in enumerate(table.acu_names):
            for i in range(L):
                cfg = base[:i] + [name] + base[i + 1:]
                acc = se.predict_accuracy(model, cfg, catalog, probe_p, probe_l)
                assert table.s[j, i] == acc / base_acc
                assert table.p[j, i] == se.power_of_config(cfg, catalog, model.cfg,
                                                           "mul8s_1KV6")

    def test_surrogate_equals_full_accuracy_when_probe_is_full_set(
            self, small_calibrated_model, toy_data, catalog):
        patches, labels = toy_data
        probe_p, probe_l = patches[:64], labels[:64]
        config = ["mul8s_1KV6"] * 2
        surrogate = se.predict_accuracy(small_calibrated_model, config, catalog,
                                        probe_p, probe_l)
        full = ax.evaluate_accuracy(small_calibrated_model, probe_p, probe_l,
                                    config, catalog)
        assert surrogate == full

    def test_label_count_mismatch(self, small_calibrated_model, toy_data, catalog):
        patches, labels = toy_data
        match = r"labels of shape \(1,\) for 64 samples"
        with pytest.raises(ValueError, match=match):
            se.predict_accuracy(small_calibrated_model, ["mul8s_1KV6"] * 2, catalog,
                                patches[:64], labels[:1])
        with pytest.raises(ValueError, match=match):
            se.search_model(small_calibrated_model, catalog, patches[:64], labels[:1],
                            se.SearchParams(num_simulations=2, probe_batch_size=32))

    def test_empty_probe_rejected(self, small_calibrated_model, catalog):
        with pytest.raises(ValueError, match="^empty dataset$"):
            se.predict_accuracy(small_calibrated_model, ["mul8s_1KV6"] * 2,
                                catalog, np.zeros((0, 16, 16)), np.zeros(0, int))


@pytest.fixture(scope="module")
def deep(toy_data, tmp_path_factory):
    """A calibrated 3-block model, 150 probe samples and a catalog whose
    candidates include a non-rank-1 external table, so the gather kernel runs."""
    patches, labels = toy_data
    model = ax.init_model(ax.ModelConfig(num_layers=3, embed_dim=16, num_heads=2,
                                         ffn_dim=32), seed=4)
    ax.calibrate(model, patches[:128])
    path = str(tmp_path_factory.mktemp("ext") / "ext.axlut")
    save_lut(noisy_exact_lut(seed=5), path)
    catalog = ax.builtin_catalog()
    catalog.add(AxMultiplier("ext", 8, "external", lut_path=path, power_mw=0.36))
    assert catalog.lut("ext").truncations is None
    return model, catalog, patches[200:350], labels[200:350]


@pytest.fixture(scope="module")
def fresh_accuracy(deep):
    """probe_accuracy on the first 96 probe samples, once per config: the
    searches at several seeds and policies evaluate many of the same."""
    model, catalog, patches, labels = deep
    return functools.cache(lambda config: probe_accuracy(model, config, catalog,
                                                         patches[:96], labels[:96]))


def entry_bytes(model, n):
    """Bytes of one memo entry: n probe samples of one block output."""
    return n * model.cfg.num_patches * model.cfg.embed_dim * 8


class TestPrefixMemo:
    NAMES = ["mul8s_1KV6", "mul8s_1L2L", "ext"]

    def test_oracle_is_evaluate_accuracy(self, deep):
        model, catalog, patches, labels = deep
        for n, config in ((150, ["ext", "mul8s_1L2H", "mul8s_1KV6"]),
                          (64, ["mul8s_1L2L"] * 3), (1, ["ext"] * 3)):
            assert probe_accuracy(model, config, catalog, patches[:n], labels[:n]) == \
                ax.evaluate_accuracy(model, patches[:n], labels[:n], config, catalog)

    @pytest.mark.parametrize("bound", ["default", "evicting"])
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 150),
           configs=st.lists(st.tuples(*[st.sampled_from(NAMES)] * 3), min_size=1, max_size=8))
    def test_memoized_equals_fresh_forward(self, deep, bound, n, configs):
        """Few names over three blocks, so the drawn assignments repeat and
        share prefixes; probes of more than 64 samples run in chunks. The
        evicting bound keeps two and a half entries."""
        model, catalog, patches, labels = deep
        probe_p, probe_l = patches[:n], labels[:n]
        limit = se.MEMO_BYTES if bound == "default" else 5 * entry_bytes(model, n) // 2
        memo = se.PrefixMemo()
        fresh = {}
        with mock.patch.object(se, "MEMO_BYTES", limit):
            for config in configs:
                if config not in fresh:
                    fresh[config] = probe_blocks(model, config, catalog, probe_p)
                got = se.predict_accuracy(model, config, catalog, probe_p, probe_l, memo)
                assert got == probe_accuracy(model, config, catalog, probe_p, probe_l)
                assert memo.nbytes == sum(c.nbytes for chunks in memo.entries.values()
                                          for c in chunks) <= limit
        for prefix, chunks in memo.entries.items():
            full = next(c for c in fresh if c[:len(prefix)] == prefix)
            want = [xs[len(prefix)] for xs in fresh[full]]
            assert [c.shape for c in chunks] == [w.shape for w in want]
            assert all(np.array_equal(c, w) and not c.flags.writeable
                       for c, w in zip(chunks, want))
        if bound == "evicting":
            assert len(memo.entries) <= 2

    def test_least_recently_used_entry_goes_first(self, monkeypatch):
        chunk = np.zeros(10)
        monkeypatch.setattr(se, "MEMO_BYTES", 3 * chunk.nbytes)
        memo = se.PrefixMemo()
        for prefix in [(), ("a",), ("a", "b")]:
            memo.store(prefix, [chunk.copy()])
        assert memo.longest(("a", "c")) == (1, memo.entries[("a",)])
        memo.store(("a", "c"), [chunk.copy()])
        assert list(memo.entries) == [("a", "b"), ("a",), ("a", "c")]
        assert memo.nbytes == 3 * chunk.nbytes
        assert memo.longest(("b",)) == (0, None)

    def test_profiling_runs_each_block_prefix_once(self, deep, monkeypatch):
        """An ACU in layer i reuses the all-baseline blocks before it:
        L + (k-1)·L(L+1)/2 blocks per chunk instead of L + (k-1)·L²."""
        model, catalog, patches, labels = deep
        calls = []
        real = ax.model.block_forward

        def spy(m, i, x, plan, collect=False):
            calls.append(x.shape[0])
            return real(m, i, x, plan, collect)

        monkeypatch.setattr(ax.model, "block_forward", spy)
        table = se.profile_sensitivity(model, catalog, patches[:96], labels[:96])
        k, L = len(table.acu_names), model.cfg.num_layers
        per_chunk = L + (k - 1) * L * (L + 1) // 2
        assert sorted(calls) == [32] * per_chunk + [64] * per_chunk

    @pytest.mark.parametrize("policy", se.POLICIES)
    def test_search_runs_each_block_prefix_once(self, deep, monkeypatch, policy):
        """A whole search_model call embeds each probe chunk once and runs one
        block per chunk for each new assignment prefix, in evaluation order."""
        model, catalog, patches, labels = deep
        name_of = {id(catalog.lut(n)): n for n in catalog.names()}
        evaluated, blocks, embeds = [], [], []
        real_predict, real_block, real_embed = (se.predict_accuracy, ax.model.block_forward,
                                                ax.model.embed)

        def spy_predict(*args):
            evaluated.append(tuple(args[1]))
            return real_predict(*args)

        def spy_block(m, i, x, plan, collect=False):
            blocks.append((i, name_of[id(plan[1])], x.shape[0]))
            return real_block(m, i, x, plan, collect)

        monkeypatch.setattr(se, "predict_accuracy", spy_predict)
        monkeypatch.setattr(ax.model, "block_forward", spy_block)
        monkeypatch.setattr(ax.model, "embed", lambda m, p: embeds.append(len(p))
                            or real_embed(m, p))
        params = se.SearchParams(num_simulations=40, policy=policy, probe_batch_size=96,
                                 seed=1)
        se.search_model(model, catalog, patches, labels, params)
        want, seen = [], set()
        for config in evaluated:
            for i in range(len(config)):
                if config[:i + 1] not in seen:
                    seen.add(config[:i + 1])
                    want += [(i, config[i], 64), (i, config[i], 32)]
        assert blocks == want
        assert embeds == [64, 32]

    @pytest.mark.parametrize("policy", se.POLICIES)
    def test_search_builds_each_block_plan_once(self, deep, monkeypatch, policy):
        """A whole search_model call builds block i's weights once for each
        multiplier that any evaluated assignment puts in block i."""
        model, catalog, patches, labels = deep
        name_of = {id(catalog.lut(n)): n for n in catalog.names()}
        evaluated, built = [], []
        real_predict, real_weights = se.predict_accuracy, ax.model.block_weights

        def spy_predict(*args):
            evaluated.append(tuple(args[1]))
            return real_predict(*args)

        def spy_weights(m, i, qps, lut):
            built.append((i, name_of[id(lut)]))
            return real_weights(m, i, qps, lut)

        monkeypatch.setattr(se, "predict_accuracy", spy_predict)
        monkeypatch.setattr(ax.model, "block_weights", spy_weights)
        params = se.SearchParams(num_simulations=40, policy=policy, probe_batch_size=96,
                                 seed=1)
        se.search_model(model, catalog, patches, labels, params)
        assert len(built) == len(set(built))
        assert set(built) == {(i, name) for config in evaluated for i, name in enumerate(config)}

    def test_profiling_equals_profiling_on_fresh_forwards(self, deep, monkeypatch):
        model, catalog, patches, labels = deep
        table = se.profile_sensitivity(model, catalog, patches[:96], labels[:96])
        monkeypatch.setattr(se, "predict_accuracy", lambda m, config, *args:
                            probe_accuracy(m, config, *args[:3]))
        want = se.profile_sensitivity(model, catalog, patches[:96], labels[:96])
        assert table.acu_names == want.acu_names == catalog.names()
        assert table.s.tobytes() == want.s.tobytes()
        assert table.p.tobytes() == want.p.tobytes()
        assert table.baseline_accuracy == want.baseline_accuracy

    @pytest.mark.parametrize("policy", se.POLICIES)
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_search_equals_search_on_fresh_forwards(self, deep, fresh_accuracy, monkeypatch,
                                                    policy, seed):
        """search_model against mcts_search on fresh forward passes, with the
        sensitivity table also profiled on fresh forward passes."""
        model, catalog, patches, labels = deep
        params = se.SearchParams(lam=0.3, num_simulations=40, policy=policy,
                                 probe_batch_size=96, seed=seed)
        got = se.search_model(model, catalog, patches, labels, params)
        table = None
        if policy == "hw":
            monkeypatch.setattr(se, "predict_accuracy",
                                lambda m, config, *args: fresh_accuracy(tuple(config)))
            table = se.profile_sensitivity(model, catalog, patches[:96], labels[:96])
            monkeypatch.undo()

        def evaluate(config):
            return fresh_accuracy(config), se.power_of_config(config, catalog, model.cfg,
                                                              "mul8s_1KV6")

        want = se.mcts_search(model.cfg.num_layers, catalog.names(), params, evaluate, table)
        assert got.points == want.points
        assert got.rewards.tobytes() == want.rewards.tobytes()
        assert got.pareto == want.pareto


def operand_kind(x):
    """"prepared" for a PreparedOperand, "int" for an integer array, else the
    type's name."""
    if isinstance(x, nn.PreparedOperand):
        return "prepared"
    if isinstance(x, np.ndarray) and x.dtype.kind in "iu":
        return "int"
    return type(x).__name__


class TestKernelAccounting:
    """Every quantized block product runs in model.axx_matmul (with a LUT) or
    model.exact_int_matmul (without one): the kernels a tracer counts MACs at
    by those two names."""

    @pytest.fixture
    def operands(self):
        """The operand kinds (a, b) of every axx_matmul call."""
        return []

    @pytest.fixture
    def macs(self, monkeypatch, operands):
        counted = {"axx_matmul": 0, "exact_int_matmul": 0}
        for name in counted:
            def spy(a, b, *lut, name=name, kernel=getattr(nn, name)):
                if name == "axx_matmul":
                    operands.append((operand_kind(a), operand_kind(b)))
                a_shape, b_shape = np.shape(a), np.shape(b)
                batch = np.broadcast_shapes(a_shape[:-2], b_shape[:-2])
                counted[name] += math.prod(batch) * a_shape[-2] * a_shape[-1] * b_shape[-1]
                return kernel(a, b, *lut)
            monkeypatch.setattr(nn, name, spy)
        return counted

    @pytest.mark.parametrize("assignment", [("mul8s_1L2H", "mul8s_1KV6"), None],
                             ids=["luts", "no-luts"])
    def test_vit_forward_passes_every_block_mac(self, macs, small_calibrated_model,
                                                toy_data, catalog, assignment):
        model = small_calibrated_model
        luts = None if assignment is None else [catalog.lut(n) for n in assignment]
        nn.vit_forward(model, toy_data[0][:70], luts)
        want = sum(se.transformer_mac_counts(model.cfg)[0]) * 70
        kernel = "exact_int_matmul" if luts is None else "axx_matmul"
        assert macs == {"axx_matmul": 0, "exact_int_matmul": 0, kernel: want}

    def test_predict_accuracy_routes_every_block_matmul_through_axx(
            self, macs, small_calibrated_model, toy_data, catalog):
        model = small_calibrated_model
        patches, labels = toy_data
        se.predict_accuracy(model, ["mul8s_1KV6", "mul8s_1L2L"], catalog,
                            patches[:70], labels[:70])
        want = sum(se.transformer_mac_counts(model.cfg)[0]) * 70
        assert macs == {"axx_matmul": want, "exact_int_matmul": 0}

    @pytest.mark.parametrize("caller", ["vit_forward", "evaluate_accuracy", "predict_accuracy",
                                        "finetune"])
    @pytest.mark.parametrize("table, want", [("mul8s_1KV6", ("prepared", "prepared")),
                                             ("ext", ("int", "int"))],
                             ids=["behavioral", "entries"])
    def test_table_picks_the_operands(self, macs, operands, deep, caller, table, want):
        """A behavioral built-in takes a prepared pair in every axx_matmul
        call of the forward pass (its closed form), a table given by its
        entries two integer arrays (the gather)."""
        model, catalog, patches, labels = deep
        model, patches, labels = model.copy(), patches[:40], labels[:40]
        names = [table] * model.cfg.num_layers
        if caller == "vit_forward":
            nn.vit_forward(model, patches, [catalog.lut(n) for n in names])
        elif caller == "evaluate_accuracy":
            nn.evaluate_accuracy(model, patches, labels, names, catalog)
        elif caller == "predict_accuracy":
            se.predict_accuracy(model, names, catalog, patches, labels)
        else:
            hp = ax.TrainHyperparams(iterations=2, batch_size=16, data_fraction=1.0)
            ax.finetune(model, names, patches, labels, hp, catalog)
        assert macs["axx_matmul"] > 0 and set(operands) == {want}

    @pytest.mark.parametrize("table", ["mul8s_1KV6", "ext"], ids=["behavioral", "entries"])
    def test_attention_operands_are_c_ordered(self, monkeypatch, deep, table):
        """In a lean quantized block, q, kᵀ, the softmax weights and v reach
        the scores and attn·v products C-contiguous, prepared or int32,
        although q, k and v are strided head views of one fused product:
        numpy's batched matmul runs 2.5-4.5 times slower on the strided layout."""
        model, catalog, patches, _ = deep
        seen = []

        def spy(a, b, lut, kernel=nn.axx_matmul):
            values = [x.values if isinstance(x, nn.PreparedOperand) else x for x in (a, b)]
            if values[1].ndim == 4:  # the linears' weights are 2-D
                seen.append([(operand_kind(x), v.flags.c_contiguous)
                             for x, v in zip((a, b), values)])
            return kernel(a, b, lut)

        monkeypatch.setattr(nn, "axx_matmul", spy)
        x = nn.embed(model, patches[:40])
        nn.block_forward(model, 1, x, nn.block_plan(model, 1, catalog.lut(table)))
        kind = "prepared" if table == "mul8s_1KV6" else "int"
        assert seen == [[(kind, True), (kind, True)]] * 2
