"""Node/edge P/R/F1, exact match, and macro-averaged evaluation.

The oracle here recomputes every quantity with raw set arithmetic, sharing no
code with the library implementation.
"""

from __future__ import annotations

import random

import pytest

from dagplan import (
    PlanGraph,
    evaluate_set,
    score_pair,
    serialize_plan,
)
from dagplan.metrics import evaluate_groups
from helpers import make_plan, random_any_plan, random_gold


# --- independent oracle ---------------------------------------------------------


def oracle_prf(pred: set, gold: set) -> tuple[float, float, float]:
    if not pred and not gold:
        return 1.0, 1.0, 1.0
    if not pred or not gold:
        return 0.0, 0.0, 0.0
    inter = len(pred & gold)
    p = inter / len(pred)
    r = inter / len(gold)
    return p, r, (2 * p * r / (p + r)) if p + r else 0.0


def oracle_metrics(candidate: PlanGraph, gold: PlanGraph) -> dict:
    cand_tools = {n.tool for n in candidate.nodes}
    gold_tools = {n.tool for n in gold.nodes}
    tool_of_c = {n.id: n.tool for n in candidate.nodes}
    tool_of_g = {n.id: n.tool for n in gold.nodes}
    cand_edges = {(tool_of_c[e.src], tool_of_c[e.dst]) for e in candidate.edges}
    gold_edges = {(tool_of_g[e.src], tool_of_g[e.dst]) for e in gold.edges}
    node = oracle_prf(cand_tools, gold_tools)
    edge = oracle_prf(cand_edges, gold_edges)
    em = int(cand_tools == gold_tools and cand_edges == gold_edges)
    return {
        "node_p": node[0], "node_r": node[1], "node_f1": node[2],
        "edge_p": edge[0], "edge_r": edge[1], "edge_f1": edge[2],
        "exact_match": em,
    }


GOLD = make_plan([("a", "t1"), ("b", "t2"), ("c", "t3")], [("a", "b"), ("a", "c")])


def test_identical_pair_scores_ones():
    m = score_pair(GOLD, GOLD)
    assert m.to_dict() == {
        "node_p": 1.0, "node_r": 1.0, "node_f1": 1.0,
        "edge_p": 1.0, "edge_r": 1.0, "edge_f1": 1.0,
        "exact_match": 1,
    }


def test_node_two_thirds_case():
    candidate = make_plan([("x", "ta"), ("y", "tb"), ("z", "tc")], [("x", "y"), ("x", "z")])
    gold = make_plan([("x", "ta"), ("y", "tb"), ("z", "td")], [("x", "y"), ("x", "z")])
    m = score_pair(candidate, gold)
    assert m.node_p == pytest.approx(2 / 3, abs=1e-12)
    assert m.node_r == pytest.approx(2 / 3, abs=1e-12)
    assert m.node_f1 == pytest.approx(2 / 3, abs=1e-12)


def test_reversed_edge_breaks_exact_match_despite_perfect_nodes():
    candidate = make_plan(
        [("a", "t1"), ("b", "t2"), ("c", "t3")], [("a", "b"), ("c", "a")]
    )
    m = score_pair(candidate, GOLD)
    assert m.node_f1 == 1.0
    assert m.exact_match == 0


def test_exact_match_implies_unit_f1s():
    renamed = make_plan([("p", "t1"), ("q", "t2"), ("r", "t3")], [("p", "q"), ("p", "r")])
    m = score_pair(renamed, GOLD)
    assert m.exact_match == 1
    assert m.node_f1 == 1.0
    assert m.edge_f1 == 1.0


def test_empty_prediction_conventions():
    empty = PlanGraph((), ())
    m = score_pair(empty, GOLD)
    assert (m.node_p, m.node_r, m.node_f1) == (0.0, 0.0, 0.0)
    assert (m.edge_p, m.edge_r, m.edge_f1) == (0.0, 0.0, 0.0)
    assert m.exact_match == 0
    both = score_pair(empty, PlanGraph((), ()))
    assert both.node_f1 == 1.0 and both.edge_f1 == 1.0 and both.exact_match == 1


def test_exact_match_is_symmetric_over_seeds():
    for seed in range(100):
        rng = random.Random(seed)
        a = random_any_plan(rng, max_nodes=5, edge_prob=0.4)
        b = random_any_plan(rng, max_nodes=5, edge_prob=0.4)
        assert score_pair(a, b).exact_match == score_pair(b, a).exact_match


def test_score_pair_matches_oracle_over_seeds():
    for seed in range(300):
        rng = random.Random(seed)
        candidate = random_any_plan(rng, max_nodes=8, edge_prob=0.3)
        gold = random_any_plan(rng, max_nodes=8, edge_prob=0.3)
        assert score_pair(candidate, gold).to_dict() == pytest.approx(
            oracle_metrics(candidate, gold), abs=1e-12
        ), f"seed {seed}"


# --- evaluate_set ---------------------------------------------------------------


def test_em_mean_of_mixed_pairs():
    hit = serialize_plan(GOLD)
    miss = serialize_plan(make_plan([("a", "t1")], []))
    summary = evaluate_set([(hit, GOLD), (miss, GOLD)])
    assert summary.exact_match == 0.5
    assert summary.count == 2
    assert summary.failures == 0


def test_all_gold_predictions_score_ones():
    rng = random.Random(3)
    golds = [random_gold(rng, max_nodes=6) for _ in range(10)]
    summary = evaluate_set([(serialize_plan(g), g) for g in golds])
    assert summary.count == 10
    assert summary.failures == 0
    for field in ("node_p", "node_r", "node_f1", "edge_p", "edge_r", "edge_f1", "exact_match"):
        assert getattr(summary, field) == 1.0


def test_unparseable_candidates_contribute_zeros_and_count_failures():
    summary = evaluate_set([("garbage", GOLD), (serialize_plan(GOLD), GOLD)])
    assert summary.count == 2
    assert summary.failures == 1
    assert summary.successes == 1
    assert summary.exact_match == 0.5
    assert summary.node_f1 == 0.5


def ten_pair_fixture():
    g0 = GOLD
    g_single = make_plan([("s", "t5")], [])
    pairs = [
        (serialize_plan(g0), g0),
        (serialize_plan(make_plan([("a", "t1"), ("b", "t2"), ("c", "t3")],
                                  [("a", "b"), ("c", "a")])), g0),
        (serialize_plan(make_plan([("a", "t1"), ("b", "t2")], [("a", "b")])), g0),
        (serialize_plan(make_plan([("a", "t1"), ("b", "t2"), ("c", "t3"), ("d", "t4")],
                                  [("a", "b"), ("a", "c"), ("a", "d")])), g0),
        ("cranberry sauce", g0),
        (serialize_plan(make_plan([("d", "t4"), ("e", "t5")], [("d", "e")])), g0),
        (serialize_plan(make_plan([("a", "t1")], [])), g0),
        (serialize_plan(g_single), g_single),
        (serialize_plan(make_plan([("s", "t5"), ("u", "t6")], [("s", "u")])), g_single),
        (serialize_plan(make_plan([("a", "t1"), ("b", "t2"), ("c", "t3")],
                                  [("a", "b"), ("a", "c"), ("b", "c")])), g0),
    ]
    return pairs


def test_ten_pair_fixture_matches_frozen_oracle_values():
    summary = evaluate_set(ten_pair_fixture())
    assert summary.count == 10
    assert summary.failures == 1
    # Values computed by hand from the documented formulas.
    assert summary.exact_match == pytest.approx(0.2, abs=1e-9)
    assert summary.node_f1 == pytest.approx(0.6823809523809524, abs=1e-9)
    assert summary.edge_f1 == pytest.approx(0.4766666666666667, abs=1e-9)


def test_ten_pair_fixture_matches_recomputed_oracle():
    from dagplan import parse_plan

    pairs = ten_pair_fixture()
    expected = {k: 0.0 for k in
                ("node_p", "node_r", "node_f1", "edge_p", "edge_r", "edge_f1", "exact_match")}
    failures = 0
    for text, gold in pairs:
        try:
            candidate = parse_plan(text)
        except Exception:
            failures += 1
            continue  # zeros
        for key, value in oracle_metrics(candidate, gold).items():
            expected[key] += value
    summary = evaluate_set(pairs)
    assert summary.failures == failures
    for key, total in expected.items():
        assert getattr(summary, key) == pytest.approx(total / len(pairs), abs=1e-12)


def test_macro_mean_of_concatenation_is_weighted_mean():
    rng = random.Random(11)
    set_a = [(serialize_plan(random_any_plan(rng, 6, 0.3)), random_gold(rng, 6)) for _ in range(7)]
    set_b = [(serialize_plan(random_any_plan(rng, 6, 0.3)), random_gold(rng, 6)) for _ in range(13)]
    summary_a = evaluate_set(set_a)
    summary_b = evaluate_set(set_b)
    combined = evaluate_set(set_a + set_b)
    for field in ("node_p", "node_f1", "edge_f1", "exact_match"):
        weighted = (7 * getattr(summary_a, field) + 13 * getattr(summary_b, field)) / 20
        assert getattr(combined, field) == pytest.approx(weighted, abs=1e-12)


def test_evaluate_groups_stratifies_and_counts_missing_as_failures():
    from dagplan import parse_plan

    rng = random.Random(4)
    items = []
    for i in range(40):
        gold = random_gold(rng, 6)
        text = None if i % 5 == 0 else serialize_plan(gold if i % 3 else random_any_plan(rng, 6))
        items.append((("Hard", "Easy", "Medium")[i % 3], text, gold))
    groups, overall = evaluate_groups(items)
    assert list(groups) == ["Hard", "Easy", "Medium"]
    cases = [(groups[g], [it for it in items if it[0] == g]) for g in groups] + [(overall, items)]
    for summary, selected in cases:
        rows = [oracle_metrics(parse_plan(t), g) for _, t, g in selected if t is not None]
        assert summary.count == len(selected)
        assert summary.failures == sum(t is None for _, t, _ in selected)
        for key in ("node_p", "node_r", "node_f1", "edge_p", "edge_r", "edge_f1", "exact_match"):
            expected = sum(row[key] for row in rows) / len(selected)
            assert getattr(summary, key) == pytest.approx(expected, abs=1e-12)


def test_empty_evaluation_set():
    summary = evaluate_set([])
    assert summary.count == 0
    assert summary.failures == 0
    assert summary.node_f1 == 0.0
