"""End-to-end acceptance suite. Each test prints one PASS/FAIL line for its
criterion (bypassing capture so the lines always reach the terminal)."""

import itertools
import math
import statistics
import time

import numpy as np
import pytest

import axvit as ax
from axvit import search as se
from axvit import training as tr
from axvit.multipliers import AxMultiplier, approx_products, lut_lookup
from oracles import (
    brute_force_error_metrics,
    reference_policy,
    reference_power_reduction,
    reference_ucb,
    ste_gradient_check,
    truncated_product,
)

SEARCH_NAMES = ["mul8s_1KV6", "mul8s_1L2H", "mul8s_1L2L"]


def report(capsys, num, desc, ok):
    with capsys.disabled():
        print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def search_env(catalog, toy_data):
    """3-layer model plus an exhaustive evaluation cache over the 27 configs
    of the 3-multiplier candidate set. Evaluations are deterministic, so the
    cache is shared across every search criterion."""
    patches, labels = toy_data
    cfg = ax.ModelConfig(num_layers=3, embed_dim=16, num_heads=2, ffn_dim=32)
    model = ax.init_model(cfg, seed=0)
    hp = ax.TrainHyperparams(optimizer="adam", learning_rate=3e-3,
                             iterations=400, batch_size=64, data_fraction=1.0,
                             seed=0)
    tr.train_float(model, patches, labels, hp)
    ax.calibrate(model, patches[:256])
    probe_p, probe_l = patches[:128], labels[:128]
    evals = {}
    for conf in itertools.product(SEARCH_NAMES, repeat=3):
        acc = se.predict_accuracy(model, conf, catalog, probe_p, probe_l)
        power = se.power_of_config(conf, catalog, model.cfg, "mul8s_1KV6")
        evals[conf] = (acc, power)
    sens = se.profile_sensitivity(model, catalog, probe_p, probe_l, SEARCH_NAMES)
    return {"model": model, "evals": evals, "evaluate": evals.__getitem__,
            "sensitivity": sens}


def run_search(env, lam, sims, policy, seed):
    params = se.SearchParams(lam=lam, num_simulations=sims, policy=policy,
                             seed=seed)
    sens = env["sensitivity"] if policy == "hw" else None
    return se.mcts_search(3, SEARCH_NAMES, params, env["evaluate"], sens)


def test_criterion_01_power_reduction_table(catalog, capsys):
    # (fraction of approximable MACs, multiplier) -> published reduction [%]
    cells = []
    for frac in (0.9854, 0.9854):
        cells += [(frac, "mul8s_1KV9", 3.45), (frac, "mul8s_1L2H", 28.75),
                  (frac, "mul8s_1L2L", 52.18)]
    cells += [(0.997, "mul8s_1KV9", 3.49), (0.997, "mul8s_1L2H", 29.09),
              (0.997, "mul8s_1L2L", 52.79)]
    cells += [(0.755, "mul8s_1KV9", 2.64), (0.755, "mul8s_1L2H", 22.03),
              (0.755, "mul8s_1L2L", 39.98)]
    t0 = time.perf_counter()
    worst = 0.0
    for frac, name, expected in cells:
        power = se.normalized_power([name], [frac, 1.0 - frac], catalog,
                                    "mul8s_1KV6")
        got = se.power_reduction_pct(power)
        worst = max(worst, abs(got - expected))
        m = catalog.get(name)
        assert got == pytest.approx(
            reference_power_reduction(frac, m.power_mw, 0.425), abs=1e-9)
    elapsed = time.perf_counter() - t0
    report(capsys, 1,
           f"12 power-reduction cells within 0.1pp (worst {worst:.3f}pp, "
           f"{elapsed:.2f}s)", worst <= 0.1 and elapsed < 1.0)


def test_criterion_02_lut_functional_agreement(catalog, capsys):
    ops = np.arange(-128, 128)
    grid_x, grid_y = ops[:, None], ops[None, :]
    worst_time, mismatches = 0.0, 0
    for name in catalog.names():
        m = catalog.get(name)
        t0 = time.perf_counter()
        lut = ax.build_lut(m)
        diff = lut_lookup(lut, grid_x, grid_y) != approx_products(m, grid_x, grid_y)
        mismatches += int(diff.sum())
        worst_time = max(worst_time, time.perf_counter() - t0)
    report(capsys, 2,
           f"LUT vs functional agreement on all 65536 pairs per multiplier "
           f"({mismatches} mismatches, slowest {worst_time:.3f}s)",
           mismatches == 0 and worst_time < 1.0)


def test_criterion_03_error_metrics_vs_brute_force(capsys):
    em = ax.error_metrics(AxMultiplier("exact8", 8, "exact"))
    ok = (em.mae_pct, em.wce_pct, em.mre_pct) == (0.0, 0.0, 0.0)
    maes = []
    for k in range(5):
        got = ax.error_metrics(AxMultiplier(f"t{k}", 8, "truncate_lsb", k=k))
        mae, wce, mre = brute_force_error_metrics(
            lambda x, y, kk=k: truncated_product(x, y, 8, kk), 8)
        # MAE/WCE come from integer error sums and match bit-exactly; MRE
        # accumulates float ratios, where summation order costs a few ulps
        ok &= got.mae_pct == mae and got.wce_pct == wce \
            and got.mre_pct == pytest.approx(mre, rel=1e-9)
        maes.append(got.mae_pct)
    monotone = all(a <= b for a, b in zip(maes, maes[1:]))
    report(capsys, 3,
           "exact metrics 0/0/0; truncation metrics equal brute-force oracle "
           "and MAE monotone in k", ok and monotone)


def test_criterion_04_quantization_properties(capsys):
    rng = np.random.default_rng(0)
    qp = ax.QuantParams(scale=0.03, bitwidth=8)
    x = rng.uniform(-qp.clip, qp.clip, size=100_000)
    roundtrip_ok = np.abs(ax.dequantize(ax.quantize(x, qp), qp) - x).max() \
        <= qp.scale / 2 + 1e-12

    ste = ste_gradient_check(np.random.default_rng(3).normal(size=32),
                                kind="linear")
    ste_ok = ste.max_rel_deviation < 1e-3

    vals = rng.uniform(-1.0, 1.0, size=1000)
    vals[123] = 100.0
    cal = ax.HistogramCalibrator(percentile=99.9).observe(vals)
    bin_width = cal.observed_max / cal.num_bins
    outlier_ok = cal.clip_value() <= float(np.abs(np.delete(vals, 123)).max()) \
        + bin_width
    report(capsys, 4,
           f"round-trip <= scale/2 on 1e5 reals; STE vs finite differences "
           f"{ste.max_rel_deviation:.2e}; 99.9-percentile clip ignores "
           f"1-in-1000 outlier", roundtrip_ok and ste_ok and outlier_ok)


def test_criterion_05_exact_lut_bit_identity(catalog, toy_data, capsys):
    patches, _ = toy_data
    model = ax.init_model(ax.ModelConfig(), seed=1)
    ax.calibrate(model, patches[:256])
    luts = [catalog.lut("mul8s_1KV6")] * model.cfg.num_layers
    via_lut = ax.vit_forward(model, patches[:256], luts)
    via_ref = ax.vit_forward(model, patches[:256], None)
    identical = np.array_equal(via_lut, via_ref)
    report(capsys, 5,
           "all-exact LUT forward bit-identical to integer reference on 256 "
           "samples", identical)


def test_criterion_06_toy_attention_convergence(catalog, capsys):
    t0 = time.perf_counter()
    res = tr.toy_attention_experiment(catalog.get("mul8s_1L2H"),
                                      iterations=500, seed=0)
    elapsed = time.perf_counter() - t0
    ratio = res.losses[-50:].mean() / res.losses[0]
    d_mean = abs(res.outputs.mean() - res.targets.mean())
    d_std = abs(res.outputs.std() - res.targets.std())
    report(capsys, 6,
           f"toy attention with 2-bit truncation converges (final/initial MSE "
           f"{ratio:.3f}, hist dmean {d_mean:.3f}, dsigma {d_std:.3f}, "
           f"{elapsed:.1f}s)",
           ratio <= 0.10 and d_mean < 0.2 and d_std < 0.2 and elapsed < 60)


def test_criterion_07_mcts_recovers_brute_force(search_env, capsys):
    t0 = time.perf_counter()
    evals = search_env["evals"]
    lam = 0.5
    true_front = se.pareto_front([se.SearchPoint(c, a, p, a - lam * p)
                                  for c, (a, p) in evals.items()])
    true_keys = {(pt.predicted_accuracy, pt.normalized_power)
                 for pt in true_front}
    best_reward = max(a - lam * p for a, p in evals.values())
    coverages, best_hits = [], 0
    for seed in range(10):
        res = run_search(search_env, lam, 500, "hw", seed)
        keys = {(pt.predicted_accuracy, pt.normalized_power)
                for pt in res.pareto}
        coverages.append(len(keys & true_keys) / len(true_keys))
        best_hits += max(pt.reward for pt in res.points) >= best_reward - 1e-12
    elapsed = time.perf_counter() - t0
    cov = statistics.median(coverages)
    report(capsys, 7,
           f"median Pareto coverage {cov:.0%} (>=90%), brute-force best found "
           f"in {best_hits}/10 seeds, {elapsed:.1f}s",
           cov >= 0.9 and best_hits >= 8 and elapsed < 300)


def test_criterion_08_reward_trace_stabilizes(search_env, capsys):
    res = run_search(search_env, 0.5, 2000, "hw", 0)
    rolling = np.convolve(res.rewards, np.ones(50) / 50, mode="valid")
    q = rolling.size // 4
    first, last = rolling[:q].var(), rolling[-q:].var()
    report(capsys, 8,
           f"rolling-mean(50) reward variance drops (first quartile "
           f"{first:.2e}, last {last:.2e})", last < first)


def _sims_to_converge(env, policy, seed, lam=0.5):
    final = np.array([c.mean_reward for c in
                      run_search(env, lam, 2000, policy, seed).root.children])
    for n in (10, 25, 50, 75, 100, 150, 200, 300, 400, 600, 800, 1200, 1600, 2000):
        root = run_search(env, lam, n, policy, seed).root
        means = np.array([c.mean_reward if c.visits else np.nan
                          for c in root.children])
        if not np.isnan(means).any() and \
                np.all(np.abs(means - final) <= 0.02 * np.abs(final)):
            return n
    return 2001


def test_criterion_09_hw_policy_converges_faster(search_env, capsys):
    hw = [_sims_to_converge(search_env, "hw", s) for s in range(5)]
    rnd = [_sims_to_converge(search_env, "random", s) for s in range(5)]
    hw_med, rnd_med = statistics.median(hw), statistics.median(rnd)
    report(capsys, 9,
           f"root rewards within 2% of 2000-sim values: hw median {hw_med} "
           f"sims vs random median {rnd_med}", hw_med < rnd_med)


def test_criterion_10_lambda_pushes_pareto_power_down(search_env, capsys):
    deltas = []
    for seed in range(5):
        mean_power = {}
        for lam in (0.5, 1.5):
            res = run_search(search_env, lam, 500, "hw", seed)
            mean_power[lam] = np.mean([pt.normalized_power for pt in res.pareto])
        deltas.append(mean_power[1.5] - mean_power[0.5])
    med = statistics.median(deltas)
    report(capsys, 10,
           f"mean Pareto power at lambda=1.5 <= lambda=0.5 (median delta "
           f"{med:+.4f})", med <= 1e-12)


def test_criterion_11_finetune_recovers_accuracy(catalog, toy_data, capsys):
    t0 = time.perf_counter()
    patches, labels = toy_data
    cfg = ax.ModelConfig()
    config = ["mul8s_1L2H"] * cfg.num_layers  # 2-bit truncation on all layers
    exact = ["mul8s_1KV6"] * cfg.num_layers
    ratios = []
    for seed in range(5):
        model = ax.init_model(cfg, seed=seed)
        hp = ax.TrainHyperparams(optimizer="adam", learning_rate=3e-3,
                                 iterations=400, batch_size=64,
                                 data_fraction=1.0, seed=seed)
        tr.train_float(model, patches, labels, hp)
        ax.calibrate(model, patches[:256])
        acc_exact = ax.evaluate_accuracy(model, patches[:512], labels[:512], exact,
                                         catalog)
        acc_before = ax.evaluate_accuracy(model, patches[:512], labels[:512], config,
                                          catalog)
        fhp = ax.TrainHyperparams(optimizer="adam", learning_rate=5e-5,
                                  iterations=200, batch_size=32,
                                  data_fraction=1.0, seed=seed)
        tr.finetune(model, config, patches, labels, fhp, catalog)
        acc_after = ax.evaluate_accuracy(model, patches[:512], labels[:512], config,
                                         catalog)
        drop = acc_exact - acc_before
        ratios.append((acc_after - acc_before) / drop if drop > 0 else math.inf)
    elapsed = time.perf_counter() - t0
    med = statistics.median(ratios)
    report(capsys, 11,
           f"finetuning recovers median {med:.0%} of the accuracy drop "
           f"(>=50%), {elapsed:.0f}s", med >= 0.5 and elapsed < 300)


def test_criterion_12_ucb_and_policy_unit_values(capsys):
    ucb = se.ucb_score(0.5, 10, 100, math.sqrt(2))
    ucb_ref = reference_ucb(0.5, 10, 100, math.sqrt(2))
    probs = se.rollout_policy_probs([1.0, 0.8], [1.0, 0.5], 1.0)
    probs_ref = reference_policy([1.0, 0.8], [1.0, 0.5], 1.0)
    ok = (abs(ucb - 1.4598) <= 1e-3 and abs(ucb - ucb_ref) < 1e-12
          and abs(probs[0] - 0.4256) <= 1e-3 and abs(probs[1] - 0.5744) <= 1e-3
          and np.allclose(probs, probs_ref, atol=1e-12))
    report(capsys, 12,
           f"ucb={ucb:.4f} (1.4598 +/- 1e-3), policy=({probs[0]:.4f}, "
           f"{probs[1]:.4f}) ((0.4256, 0.5744) +/- 1e-3)", ok)
