"""Hardware-driven MCTS over per-layer multiplier assignments.

Profiles per-layer sensitivity, models MAC power, and searches the assignment
space with UCB selection and a softmax rollout policy biased by sensitivity
minus lambda-weighted power. Emits every evaluated point plus the Pareto
front of (accuracy, power).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import model as nn
from .multipliers import Catalog

POLICIES = ("random", "hw")
# Bytes of probe activations one PrefixMemo keeps. At the default probe of 128
# and embed_dim 32 an entry takes 512 KiB, so a search of 1000 simulations on a
# deep model would otherwise hold gigabytes.
MEMO_BYTES = 64 << 20


@dataclass(frozen=True)
class SearchParams:
    lam: float = 0.5
    c: float = math.sqrt(2.0)
    num_simulations: int = 1000
    policy: str = "hw"
    probe_batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        if not (math.isfinite(self.c) and self.c >= 0):
            raise ValueError(f"exploration constant must be finite and >= 0, got {self.c}")
        if self.num_simulations < 1:
            raise ValueError("need at least one simulation")
        if self.probe_batch_size < 1:
            raise ValueError(f"probe_batch_size must be >= 1, got {self.probe_batch_size}")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SearchPoint:
    config: tuple[str, ...]
    predicted_accuracy: float
    normalized_power: float
    reward: float


@dataclass
class SensitivityTable:
    acu_names: list[str]
    s: np.ndarray  # k x L normalized probe accuracy, one ACU at one layer
    p: np.ndarray  # k x L normalized model power, same placement
    baseline_accuracy: float


@dataclass
class MctsNode:
    assignment: tuple[int, ...]
    visits: int = 0
    total_reward: float = 0.0
    children: list["MctsNode"] | None = None

    @property
    def depth(self) -> int:
        return len(self.assignment)

    @property
    def mean_reward(self) -> float:
        return self.total_reward / self.visits if self.visits else 0.0


@dataclass
class SearchResult:
    points: list[SearchPoint]
    pareto: list[SearchPoint]
    root: MctsNode
    acu_names: list[str]

    @property
    def rewards(self) -> np.ndarray:
        """Each simulation's reward, in simulation order."""
        return np.array([pt.reward for pt in self.points], dtype=np.float64)

    def best_root_action(self) -> str:
        """Most visited root action (diagnostic)."""
        visits = [c.visits for c in self.root.children]
        return self.acu_names[int(np.argmax(visits))]


# ---------------------------------------------------------------------------
# Power model
# ---------------------------------------------------------------------------

def transformer_mac_counts(cfg: nn.ModelConfig) -> tuple[list[int], int]:
    """Per-sample MAC counts: one entry per approximable block, plus the
    fixed count for the exact-only patch embedding and classifier head."""
    t, d, df, pd = cfg.num_patches, cfg.embed_dim, cfg.ffn_dim, cfg.patch_dim
    per_block = 4 * t * d * d + 2 * t * t * d + 2 * t * d * df
    fixed = t * pd * d + d * cfg.num_classes
    return [per_block] * cfg.num_layers, fixed


def normalized_power(assignment, mac_counts, catalog: Catalog,
                     baseline_name: str) -> float:
    """Total MAC power relative to running everything on the exact baseline.

    mac_counts has one entry per assignment slot plus a final entry for the
    MACs that always run on the baseline multiplier.
    """
    assignment = list(assignment) + [baseline_name]
    mac_counts = [float(m) for m in mac_counts]
    if len(mac_counts) != len(assignment):
        raise ValueError("mac_counts must hold one count per assignment slot "
                         "plus the fixed MACs")
    base_p = catalog.get(baseline_name).power_mw
    total = sum(mac_counts)
    if total <= 0 or base_p <= 0:
        raise ValueError("MAC counts and baseline power must be positive")
    used = sum(m * catalog.get(name).power_mw for m, name in zip(mac_counts, assignment))
    return used / (total * base_p)


def power_of_config(assignment, catalog: Catalog, model_cfg: nn.ModelConfig,
                    baseline_name: str) -> float:
    per_block, fixed = transformer_mac_counts(model_cfg)
    return normalized_power(assignment, per_block + [fixed], catalog, baseline_name)


def power_reduction_pct(norm_power: float) -> float:
    return (1.0 - norm_power) * 100.0


# ---------------------------------------------------------------------------
# Surrogate accuracy and sensitivity profiling
# ---------------------------------------------------------------------------

class PrefixMemo:
    """Probe-batch block outputs keyed by assignment prefix, for one model,
    catalog and probe batch.

    Block i's output depends only on the probe batch and ``assignment[:i+1]``,
    so ``entries[prefix]`` holds the output of block ``len(prefix) - 1`` (the
    embedded probe for ``()``), one read-only array per probe chunk of
    ``model.BATCH`` samples. The least recently used entries go once the
    entries hold more than ``MEMO_BYTES``. Beside them, ``plans`` holds the
    ``model.block_plan`` of each (block, multiplier name) that ran, so each
    block's weights are quantized once per multiplier.
    """

    def __init__(self):
        self.entries: OrderedDict[tuple[str, ...], list[np.ndarray]] = OrderedDict()
        self.nbytes = 0
        self.plans: dict[tuple[int, str], tuple] = {}

    def plan(self, model, i: int, name: str, lut) -> tuple:
        """``model.block_plan`` of block i for the multiplier ``name``, whose
        table is lut; built on first use."""
        if (i, name) not in self.plans:
            self.plans[i, name] = nn.block_plan(model, i, lut)
        return self.plans[i, name]

    def longest(self, assignment: tuple[str, ...]):
        """(n, chunks) for the longest cached prefix ``assignment[:n]``, or
        (0, None) when not even the embedded probe is cached."""
        for n in range(len(assignment), -1, -1):
            chunks = self.entries.get(assignment[:n])
            if chunks is not None:
                self.entries.move_to_end(assignment[:n])
                return n, chunks
        return 0, None

    def store(self, prefix: tuple[str, ...], chunks: list[np.ndarray]) -> None:
        for c in chunks:
            c.flags.writeable = False
        self.entries[prefix] = chunks
        self.nbytes += sum(c.nbytes for c in chunks)
        while self.nbytes > MEMO_BYTES:
            _, old = self.entries.popitem(last=False)
            self.nbytes -= sum(c.nbytes for c in old)


def predict_accuracy(model, assignment, catalog, probe_patches, probe_labels,
                     memo: PrefixMemo | None = None) -> float:
    """Probe-batch top-1 accuracy, the search's surrogate for full accuracy.

    Equal to ``evaluate_accuracy`` on the probe batch. With a memo, the blocks
    of the longest prefix of ``assignment`` that it holds are not run again,
    every block output computed here is stored in it, and each block's scales
    and weight operands are built once for all the calls that share the memo.
    """
    nn.check_labels(model, probe_patches, probe_labels)
    memo = PrefixMemo() if memo is None else memo
    assignment = tuple(assignment)
    luts = [catalog.lut(name) for name in assignment]
    patches = nn.forward_inputs(model, probe_patches, luts)
    plan = [memo.plan(model, i, name, lut) for i, (name, lut) in enumerate(zip(assignment, luts))]
    done, xs = memo.longest(assignment)
    if xs is None:
        xs = list(nn.embedded_chunks(model, patches, nn.BATCH))
        memo.store((), xs)
    for i in range(done, len(assignment)):
        # one block at a time, so that every prefix's output is stored
        xs = list(nn.run_blocks(model, plan[:i + 1], xs, i))
        memo.store(assignment[:i + 1], xs)
    return nn.top1_accuracy(model, xs, np.asarray(probe_labels), nn.BATCH)


def profile_sensitivity(model, catalog: Catalog, probe_patches, probe_labels,
                        acu_names=None, memo: PrefixMemo | None = None) -> SensitivityTable:
    """Per-(ACU, layer) normalized probe accuracy and normalized power with
    that ACU applied to exactly one layer and the exact baseline (the first
    exact candidate) everywhere else.

    Every evaluation goes through one PrefixMemo (``memo``, or a new one), so
    an ACU in layer i reuses the all-baseline blocks before it and profiling
    runs L + (k-1)·L(L+1)/2 blocks per probe chunk instead of L + (k-1)·L².
    """
    memo = PrefixMemo() if memo is None else memo
    acu_names = list(acu_names) if acu_names is not None else catalog.names()
    baseline_name = exact_baseline(catalog, acu_names)
    n_layers = model.cfg.num_layers
    base_cfg = (baseline_name,) * n_layers
    base_acc = predict_accuracy(model, base_cfg, catalog, probe_patches, probe_labels,
                                memo)
    if base_acc == 0:
        raise RuntimeError("all-exact probe accuracy is zero; model is degenerate")
    s = np.empty((len(acu_names), n_layers))
    p = np.empty_like(s)
    for j, name in enumerate(acu_names):
        for i in range(n_layers):
            cfg = list(base_cfg)
            cfg[i] = name
            # the baseline in one layer is the all-baseline config again
            acc = base_acc if name == baseline_name else predict_accuracy(
                model, cfg, catalog, probe_patches, probe_labels, memo)
            s[j, i] = acc / base_acc
            p[j, i] = power_of_config(cfg, catalog, model.cfg, baseline_name)
    return SensitivityTable(acu_names, s, p, base_acc)


def exact_baseline(catalog: Catalog, names) -> str:
    """The power and accuracy baseline: the first exact multiplier in names."""
    for name in names:
        if catalog.get(name).kind == "exact":
            return name
    raise ValueError("no exact multiplier in the candidate set to use as baseline")


# ---------------------------------------------------------------------------
# MCTS
# ---------------------------------------------------------------------------

def ucb_score(mean_reward: float, visits: int, parent_visits: int, c: float) -> float:
    """UCB value; unvisited children score +inf so they get expanded first."""
    if visits == 0:
        return math.inf
    return mean_reward + c * math.sqrt(math.log(parent_visits) / visits)


def rollout_policy_probs(s_col, p_col, lam: float) -> np.ndarray:
    """Softmax of (sensitivity - lambda * power) over the candidate ACUs."""
    z = np.asarray(s_col, dtype=np.float64) - lam * np.asarray(p_col, dtype=np.float64)
    if z.size == 0:
        raise ValueError("empty candidate set")
    return nn.softmax(z)


def mcts_search(num_layers: int, acu_names, params: SearchParams, evaluate_fn,
                sensitivity: SensitivityTable | None = None) -> SearchResult:
    """Run MCTS (select, expand, rollout, backpropagate) over per-layer ACU
    assignments.

    evaluate_fn(config: tuple[str, ...]) -> (accuracy, normalized_power);
    evaluations are assumed deterministic and are cached per config.
    """
    acu_names = list(acu_names)
    k = len(acu_names)
    if k == 0:
        raise ValueError("empty catalog")
    if params.policy == "hw":
        if sensitivity is None:
            raise ValueError("hardware-driven policy needs a sensitivity table")
        if sensitivity.acu_names != acu_names:
            raise ValueError("sensitivity table rows do not match the candidate ACUs")
        policy_probs = [rollout_policy_probs(sensitivity.s[:, i],
                                             sensitivity.p[:, i], params.lam)
                        for i in range(num_layers)]
    rng = np.random.default_rng(params.seed)
    cache: dict[tuple[int, ...], tuple[float, float]] = {}

    def evaluate(assignment: tuple[int, ...]) -> tuple[float, float]:
        hit = cache.get(assignment)
        if hit is None:
            hit = evaluate_fn(tuple(acu_names[a] for a in assignment))
            cache[assignment] = hit
        return hit

    root = MctsNode(())
    points: list[SearchPoint] = []
    for _ in range(params.num_simulations):
        # selection: best UCB until an unexpanded or terminal node
        node, path = root, [root]
        while node.depth < num_layers:
            if node.children is None:
                node.children = [MctsNode(node.assignment + (a,)) for a in range(k)]
                node = node.children[0]
                path.append(node)
                break
            scores = [ucb_score(ch.mean_reward, ch.visits, node.visits, params.c)
                      for ch in node.children]
            node = node.children[int(np.argmax(scores))]
            path.append(node)
        # rollout: assign remaining layers by the policy
        assignment = node.assignment
        while len(assignment) < num_layers:
            layer = len(assignment)
            if params.policy == "hw":
                action = int(rng.choice(k, p=policy_probs[layer]))
            else:
                action = int(rng.integers(k))
            assignment += (action,)
        acc, power = evaluate(assignment)
        reward = acc - params.lam * power
        for n in path:
            n.visits += 1
            n.total_reward += reward
        points.append(SearchPoint(tuple(acu_names[a] for a in assignment),
                                  acc, power, reward))
    return SearchResult(points, pareto_front(points), root, acu_names)


def search_model(model, catalog: Catalog, patches, labels, params: SearchParams,
                 acu_names=None) -> SearchResult:
    """Convenience wrapper: fixed probe batch, sensitivity profiling, search.

    Profiling and every MCTS evaluation share one PrefixMemo, so each probe
    block output is computed once per assignment prefix (while the memo's
    byte bound keeps it); the results equal those of separate forward passes.
    """
    nn.check_labels(model, patches, labels)
    acu_names = list(acu_names) if acu_names is not None else catalog.names()
    probe_p = np.asarray(patches)[:params.probe_batch_size]
    probe_l = np.asarray(labels)[:params.probe_batch_size]
    memo = PrefixMemo()
    sensitivity = (profile_sensitivity(model, catalog, probe_p, probe_l, acu_names, memo)
                   if params.policy == "hw" else None)
    baseline_name = exact_baseline(catalog, acu_names)

    def evaluate(config):
        acc = predict_accuracy(model, config, catalog, probe_p, probe_l, memo)
        power = power_of_config(config, catalog, model.cfg, baseline_name)
        return acc, power

    return mcts_search(model.cfg.num_layers, acu_names, params, evaluate, sensitivity)


# ---------------------------------------------------------------------------
# Pareto extraction
# ---------------------------------------------------------------------------

def pareto_front(points) -> list[SearchPoint]:
    """Non-dominated subset (maximize accuracy, minimize power), deduplicated
    on (accuracy, power) and ordered by ascending power."""
    points = list(points)
    if not points:
        return []
    seen = set()
    unique = []
    for pt in points:
        key = (pt.predicted_accuracy, pt.normalized_power)
        if key not in seen:
            seen.add(key)
            unique.append(pt)
    acc = np.array([pt.predicted_accuracy for pt in unique])
    pw = np.array([pt.normalized_power for pt in unique])
    better_eq = (acc[:, None] >= acc[None, :]) & (pw[:, None] <= pw[None, :])
    strict = (acc[:, None] > acc[None, :]) | (pw[:, None] < pw[None, :])
    dominated = (better_eq & strict).any(axis=0)
    front = [pt for pt, d in zip(unique, dominated) if not d]
    front.sort(key=lambda pt: pt.normalized_power)
    return front
