"""Hierarchical reward branches, precedence, range, and group advantages.

Fidelity values are cross-checked against an in-test F1 computed from raw
intersection counts, independent of the library's implementation.
"""

from __future__ import annotations

import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagplan import (
    CONNECTIVITY_PENALTY,
    CYCLE_PENALTY,
    REWARD_MAX,
    REWARD_MIN,
    SYNTAX_PENALTY,
    InvalidGoldError,
    RewardBranch,
    edge_f1,
    group_advantages,
    score_group,
    score_plan,
    serialize_plan,
)
from helpers import make_plan, plan_text, random_any_plan, random_gold


def naive_f1(pred: set, gold: set) -> float:
    """Independent F1 from raw counts, replicating the documented conventions."""
    if not pred and not gold:
        return 1.0
    if not pred or not gold:
        return 0.0
    inter = len(pred & gold)
    if inter == 0:
        return 0.0
    p = inter / len(pred)
    r = inter / len(gold)
    return 2 * p * r / (p + r)


GOLD = make_plan(
    [("a", "t1"), ("b", "t2"), ("c", "t3")],
    [("a", "b"), ("a", "c")],
)


def test_garbage_text_scores_syntax_penalty():
    breakdown = score_plan("garbage", GOLD)
    assert breakdown.branch is RewardBranch.SYNTAX
    assert breakdown.value == SYNTAX_PENALTY == -10.0


def test_cycle_scores_cycle_penalty():
    text = plan_text([("a", "t1"), ("b", "t2")], [("a", "b"), ("b", "a")])
    breakdown = score_plan(text, GOLD)
    assert breakdown.branch is RewardBranch.CYCLE
    assert breakdown.value == CYCLE_PENALTY == -10.0


def test_isolated_node_scores_connectivity_penalty():
    text = plan_text([("a", "t1"), ("b", "t2"), ("c", "t3")], [("a", "b")])
    breakdown = score_plan(text, GOLD)
    assert breakdown.branch is RewardBranch.CONNECTIVITY
    assert breakdown.value == CONNECTIVITY_PENALTY == -2.0


def test_exact_match_scores_maximum():
    breakdown = score_plan(serialize_plan(GOLD), GOLD)
    assert breakdown.branch is RewardBranch.FIDELITY
    assert breakdown.edge_f1 == 1.0
    assert breakdown.perfect_match is True
    assert breakdown.value == 10.0


def test_partial_candidate_scores_scaled_f1():
    # Candidate keeps one of gold's two edges: P=1, R=1/2, F1=2/3, value=10/3.
    text = plan_text([("x", "t1"), ("y", "t2")], [("x", "y")])
    breakdown = score_plan(text, GOLD)
    assert breakdown.branch is RewardBranch.FIDELITY
    assert breakdown.perfect_match is False
    assert breakdown.edge_f1 == pytest.approx(2 / 3, abs=1e-12)
    assert breakdown.value == pytest.approx(10 / 3, abs=1e-12)
    oracle = naive_f1({("t1", "t2")}, {("t1", "t2"), ("t1", "t3")})
    assert breakdown.value == pytest.approx(5 * oracle, abs=1e-12)


def test_cyclic_gold_is_a_configuration_error():
    cyclic = make_plan([("a", "t1"), ("b", "t2")], [("a", "b"), ("b", "a")])
    with pytest.raises(InvalidGoldError):
        score_plan("{}", cyclic)


# --- group scoring ----------------------------------------------------------------


CYCLIC_TEXT = plan_text([("a", "t1"), ("b", "t2")], [("a", "b"), ("b", "a")])
DISCONNECTED_TEXT = plan_text([("a", "t1"), ("b", "t2")], [])


def candidate_pool(gold, rng):
    """Texts that fire every branch: syntax, cycle, connectivity, exact and arbitrary plans."""
    return ["garbage", CYCLIC_TEXT, DISCONNECTED_TEXT, serialize_plan(gold),
            serialize_plan(random_any_plan(rng, min_nodes=1))]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       picks=st.lists(st.one_of(st.integers(0, 4), st.text(max_size=12)), max_size=10))
def test_score_group_equals_score_plan_per_text(seed, picks):
    rng = random.Random(seed)
    gold = random_gold(rng)
    pool = candidate_pool(gold, rng)
    # Repeats are equal but distinct string objects, as a client returns them.
    texts = pool + ["".join(pool[p]) if isinstance(p, int) else p for p in picks]
    rng.shuffle(texts)
    group = score_group(texts, gold)
    assert group == [score_plan(text, gold) for text in texts]
    assert {b.branch for b in group} == set(RewardBranch)


@settings(max_examples=40, deadline=None)
@given(texts=st.lists(st.one_of(st.sampled_from(["garbage", CYCLIC_TEXT, DISCONNECTED_TEXT]),
                                st.text(max_size=12)), max_size=6))
def test_cyclic_gold_raises_for_any_group(texts):
    cyclic = make_plan([("a", "t1"), ("b", "t2")], [("a", "b"), ("b", "a")])
    with pytest.raises(InvalidGoldError):
        score_group(texts, cyclic)


# --- edge_f1 conventions -----------------------------------------------------


def test_edge_f1_identical_nonempty():
    edges = {("t1", "t2"), ("t2", "t3")}
    assert edge_f1(edges, set(edges)) == 1.0


def test_edge_f1_disjoint_nonempty():
    assert edge_f1({("t1", "t2")}, {("t3", "t4")}) == 0.0


def test_edge_f1_empty_conventions():
    assert edge_f1(set(), set()) == 1.0
    assert edge_f1(set(), {("t1", "t2")}) == 0.0
    assert edge_f1({("t1", "t2")}, set()) == 0.0


def test_edge_f1_two_thirds_case():
    pred = {("a", "b"), ("a", "c"), ("b", "d")}
    gold = {("a", "b"), ("b", "d"), ("c", "d")}
    assert edge_f1(pred, gold) == pytest.approx(2 / 3, abs=1e-12)
    assert edge_f1(pred, gold) == pytest.approx(naive_f1(pred, gold), abs=1e-12)


def test_edge_f1_matches_oracle_over_seeds():
    for seed in range(200):
        rng = random.Random(seed)
        universe = [(f"t{i}", f"t{j}") for i in range(5) for j in range(5) if i != j]
        pred = set(rng.sample(universe, rng.randint(0, 8)))
        gold = set(rng.sample(universe, rng.randint(0, 8)))
        assert edge_f1(pred, gold) == pytest.approx(naive_f1(pred, gold), abs=1e-12)


# --- hierarchy properties -------------------------------------------------------


def test_precedence_cycle_beats_connectivity():
    # Cyclic pair {a,b} plus an isolated node: both defects present.
    text = plan_text(
        [("a", "t1"), ("b", "t2"), ("c", "t3")],
        [("a", "b"), ("b", "a")],
    )
    breakdown = score_plan(text, GOLD)
    assert breakdown.branch is RewardBranch.CYCLE
    assert breakdown.value == -10.0


def test_reward_range_over_arbitrary_inputs():
    texts = ["", "null", "[]", '{"nodes":[],"edges":[]}', "@@@", '{"nodes":[{"id":"a","tool":"t9"}]}']
    rng = random.Random(77)
    for _ in range(200):
        texts.append(serialize_plan(random_any_plan(rng, max_nodes=6, edge_prob=0.4)))
    for text in texts:
        value = score_plan(text, GOLD).value
        assert REWARD_MIN <= value <= REWARD_MAX


def test_maximum_iff_exact_match_over_seeds():
    for seed in range(150):
        rng = random.Random(seed)
        gold = random_gold(rng, max_nodes=6)
        candidate = random_any_plan(rng, max_nodes=6, edge_prob=0.3)
        breakdown = score_plan(serialize_plan(candidate), gold)
        exact = (
            candidate.tool_set == gold.tool_set
            and candidate.edge_tool_pairs == gold.edge_tool_pairs
        )
        assert (breakdown.value == 10.0) == exact, f"seed {seed}"


def test_gold_self_scores_maximum_over_seeds():
    for seed in range(100):
        gold = random_gold(random.Random(seed), max_nodes=8)
        assert score_plan(serialize_plan(gold), gold).value == 10.0


def test_adding_one_correct_edge_never_decreases_value():
    checked = 0
    for seed in range(200):
        rng = random.Random(seed)
        gold = random_gold(rng, max_nodes=6)
        if len(gold.edges) < 2:
            continue
        # Candidate: drop some gold edges, keep node set; both plans share ids.
        kept = [e for e in gold.edges if rng.random() < 0.6]
        candidate = make_plan([(n.id, n.tool) for n in gold.nodes],
                              [(e.src, e.dst) for e in kept])
        missing = [e for e in gold.edges if e not in kept]
        if not missing:
            continue
        before = score_plan(serialize_plan(candidate), gold)
        if before.branch is not RewardBranch.FIDELITY:
            continue  # property quantifies over valid connected candidates
        extra = rng.choice(missing)
        augmented = make_plan([(n.id, n.tool) for n in gold.nodes],
                              [(e.src, e.dst) for e in kept] + [(extra.src, extra.dst)])
        after = score_plan(serialize_plan(augmented), gold)
        if after.branch is not RewardBranch.FIDELITY:
            continue
        assert after.value >= before.value - 1e-12, f"seed {seed}"
        checked += 1
    assert checked > 30


def test_deeply_nested_text_scores_syntax_penalty():
    breakdown = score_plan("[" * 100_000, GOLD)
    assert breakdown.branch is RewardBranch.SYNTAX
    assert breakdown.value == SYNTAX_PENALTY


# --- group advantages -------------------------------------------------------------


def test_constant_group_maps_to_zero():
    result = group_advantages([10.0, 10.0, 10.0])
    assert result.advantages == (0.0, 0.0, 0.0)


def test_constant_group_of_inexact_rewards_maps_to_zero():
    # 10/3 (edge F1 of 2/3) has a rounded mean that differs from the rewards.
    result = group_advantages([5 * (2 / 3)] * 3)
    assert result.advantages == (0.0, 0.0, 0.0)


def test_advantages_match_statistics_oracle():
    rng = random.Random(8)
    for _ in range(100):
        pool = [-10.0, -2.0, 5 * (2 / 3), 5.0, 10.0, rng.uniform(-10, 10)]
        rewards = [rng.choice(pool) for _ in range(rng.randint(2, 16))]
        if len(set(rewards)) < 2:
            continue
        mean, std = statistics.fmean(rewards), statistics.pstdev(rewards)
        expected = [(r - mean) / (std + 1e-8) for r in rewards]
        assert group_advantages(rewards).advantages == pytest.approx(expected, abs=1e-12)


def test_two_point_group_with_zero_epsilon():
    result = group_advantages([0.0, 10.0], epsilon=0.0)
    assert result.advantages == pytest.approx((-1.0, 1.0), abs=1e-12)


def test_advantages_mean_zero_over_seeds():
    for seed in range(100):
        rng = random.Random(seed)
        rewards = [rng.uniform(-10, 10) for _ in range(rng.randint(1, 16))]
        result = group_advantages(rewards)
        mean = sum(result.advantages) / len(result.advantages)
        assert abs(mean) <= 1e-9


def test_advantages_preserve_order_and_ranking_under_affine_transforms():
    rng = random.Random(5)
    for _ in range(50):
        rewards = [rng.uniform(-10, 10) for _ in range(rng.randint(2, 12))]
        if len(set(rewards)) < 2:
            continue
        base = group_advantages(rewards)
        assert base.rewards == tuple(rewards)
        scale, shift = rng.uniform(0.1, 5.0), rng.uniform(-20, 20)
        transformed = group_advantages([scale * r + shift for r in rewards])
        argmax = max(range(len(rewards)), key=lambda i: rewards[i])
        assert max(range(len(rewards)), key=lambda i: base.advantages[i]) == argmax
        assert max(range(len(rewards)), key=lambda i: transformed.advantages[i]) == argmax


def test_empty_group_rejected():
    with pytest.raises(ValueError):
        group_advantages([])
