"""Dataset pipeline: workflow generation, query stage, replan filter, build.

The replan-filter acceptance decisions are checked against an independent F1
oracle; generated gold plans must self-score the maximum reward, which makes
the reward module the pipeline's validity oracle.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from dagplan import (
    AuthorExhaustedError,
    Band,
    BandUnsatisfiableError,
    ClientError,
    DatasetRecord,
    DifficultyConfig,
    EmptyResponseError,
    FixtureClient,
    Provenance,
    ScriptedClient,
    build_dataset,
    check_connectivity,
    detect_cycle,
    fixture_key,
    generate_workflow,
    load_records,
    parse_plan,
    replan_and_filter,
    reverse_engineer_query,
    save_records,
    score_plan,
    serialize_plan,
    synth_library,
    topo_order,
)
from dagplan.clients import FailingClient
from dagplan.prompts import query_prompt, replan_prompt, workflow_prompt
from helpers import PeakClient, cycles_left_by, make_plan, plan_text

LIB = synth_library(80, seed=42)


def oracle_edge_f1(pred: set, gold: set) -> float:
    if not pred and not gold:
        return 1.0
    if not pred or not gold:
        return 0.0
    inter = len(pred & gold)
    if inter == 0:
        return 0.0
    p, r = inter / len(pred), inter / len(gold)
    return 2 * p * r / (p + r)


# --- difficulty config -----------------------------------------------------------


def test_band_validation():
    with pytest.raises(ValueError):
        Band(candidates=(5, 4), required=(1, 2))
    with pytest.raises(ValueError):
        Band(candidates=(5, 10), required=(6, 8))
    with pytest.raises(ValueError):
        Band(candidates=(0, 4), required=(1, 2))


def test_config_round_trip_and_unknown_difficulty():
    config = DifficultyConfig()
    again = DifficultyConfig.from_dict(config.to_dict())
    assert again.bands == dict(config.bands)
    with pytest.raises(ValueError):
        DifficultyConfig({"Impossible": Band((1, 2), (1, 2))})


# --- workflow generation ------------------------------------------------------------


def test_local_generation_is_deterministic():
    first = generate_workflow(LIB, "Easy", seed=1)
    second = generate_workflow(LIB, "Easy", seed=1)
    assert first[0] == second[0]
    assert first[1] == second[1]
    different = generate_workflow(LIB, "Easy", seed=2)
    assert first != different


@pytest.mark.parametrize("difficulty", ["Easy", "Medium", "Hard"])
def test_band_containment_and_validity(difficulty):
    config = DifficultyConfig()
    band = config.band(difficulty)
    for seed in range(40):
        candidates, plan = generate_workflow(LIB, difficulty, seed)
        assert band.candidates[0] <= len(candidates) <= band.candidates[1]
        assert band.required[0] <= len(plan) <= band.required[1]
        assert plan.tool_set <= set(candidates)
        assert detect_cycle(plan) is None
        connected, _ = check_connectivity(plan)
        assert connected
        if difficulty != "Easy":
            fan = max(
                max(len(plan.successors[n.id]) for n in plan.nodes),
                max(len(plan.predecessors[n.id]) for n in plan.nodes),
            )
            assert fan >= 2, f"seed {seed}: no branch point"


def test_thousand_generations_all_validate_and_self_score_maximum():
    # The reward module is the validity oracle: a gold plan is valid exactly
    # when it self-scores the 10.0 maximum.
    for seed in range(1000):
        difficulty = ("Easy", "Medium", "Hard")[seed % 3]
        _, plan = generate_workflow(LIB, difficulty, seed)
        assert score_plan(serialize_plan(plan), plan).value == 10.0


def test_band_unsatisfiable_for_tiny_library():
    tiny = synth_library(3, seed=0)
    with pytest.raises(BandUnsatisfiableError):
        generate_workflow(tiny, "Hard", seed=0)


def test_client_author_accepts_valid_plan():
    # Candidate sampling happens before the author runs, so the local plan for
    # the same seed is a valid scripted response for the client author.
    candidates, local_plan = generate_workflow(LIB, "Medium", seed=9)
    author = ScriptedClient([serialize_plan(local_plan)])
    got_candidates, got_plan = generate_workflow(LIB, "Medium", seed=9, author=author)
    assert got_candidates == candidates
    assert got_plan == local_plan


def test_client_author_retry_then_success():
    candidates, local_plan = generate_workflow(LIB, "Medium", seed=9)
    # The JSON escape \ud800 decodes to a lone surrogate, which cannot be written as UTF-8.
    lone = serialize_plan(local_plan).replace('"s0"', '"s\\ud800"')
    author = ScriptedClient(["not json", lone, serialize_plan(local_plan)])
    _, got_plan = generate_workflow(LIB, "Medium", seed=9, author=author)
    assert got_plan == local_plan


def test_client_author_exhaustion():
    author = ScriptedClient(["nope"] * 3)
    with pytest.raises(AuthorExhaustedError):
        generate_workflow(LIB, "Easy", seed=3, author=author)


# --- query stage -------------------------------------------------------------------


def test_offline_query_names_tools_in_topo_order():
    _, plan = generate_workflow(LIB, "Medium", seed=4)
    query = reverse_engineer_query(plan, LIB)
    order = [plan.node_index[nid].tool for nid in topo_order(plan)]
    positions = [query.index(tool_id) for tool_id in order]
    assert positions == sorted(positions)
    assert query.strip()


def test_fixture_query_is_byte_identical_across_runs():
    _, plan = generate_workflow(LIB, "Easy", seed=6)
    specs = [LIB[plan.node_index[nid].tool] for nid in topo_order(plan)]
    prompt = query_prompt(specs, serialize_plan(plan))
    cassette = {fixture_key(prompt): "Please fetch and merge the things."}
    client = FixtureClient(cassette)
    first = reverse_engineer_query(plan, LIB, client)
    second = reverse_engineer_query(plan, LIB, client)
    assert first == second == "Please fetch and merge the things."


def test_empty_query_response_is_an_error():
    _, plan = generate_workflow(LIB, "Easy", seed=6)
    client = ScriptedClient(["   "])
    with pytest.raises(EmptyResponseError):
        reverse_engineer_query(plan, LIB, client)


def test_query_response_that_is_not_valid_unicode_is_a_client_error():
    _, plan = generate_workflow(LIB, "Easy", seed=6)
    with pytest.raises(ClientError, match="not valid Unicode"):
        reverse_engineer_query(plan, LIB, ScriptedClient(["Fetch \ud800 things."]))


# --- replan filter -----------------------------------------------------------------


def replanner(text: str) -> ScriptedClient:
    return ScriptedClient([text])


def test_identical_replan_accepted_in_both_modes():
    _, plan = generate_workflow(LIB, "Easy", seed=8)
    candidates = sorted(plan.tool_set)
    for mode in ("strict", "lenient"):
        outcome = replan_and_filter(
            "q", candidates, plan, replanner(serialize_plan(plan)), mode
        )
        assert outcome.accepted
        assert outcome.final_plan == plan
        assert outcome.edge_f1 == 1.0


def test_disjoint_replan_rejected_in_both_modes():
    plan = make_plan([("a", LIB.ids()[0]), ("b", LIB.ids()[1])], [("a", "b")])
    other = make_plan([("a", LIB.ids()[2]), ("b", LIB.ids()[3])], [("a", "b")])
    for mode in ("strict", "lenient"):
        outcome = replan_and_filter(
            "q", LIB.ids()[:4], plan, replanner(serialize_plan(other)), mode
        )
        assert not outcome.accepted


def test_unparseable_replan_is_rejection_not_abort():
    _, plan = generate_workflow(LIB, "Easy", seed=8)
    outcome = replan_and_filter("q", sorted(plan.tool_set), plan, replanner("zzz"), "strict")
    assert not outcome.accepted
    assert "unparseable" in outcome.reason


def test_strict_mode_keeps_original_as_gold():
    # Replan has the same edges expressed with different node labels: EM holds.
    plan = make_plan([("a", "x.t1"), ("b", "x.t2")], [("a", "b")])
    relabeled = make_plan([("p", "x.t1"), ("q", "x.t2")], [("p", "q")])
    outcome = replan_and_filter(
        "q", ["x.t1", "x.t2"], plan, replanner(serialize_plan(relabeled)), "strict"
    )
    assert outcome.accepted
    assert outcome.final_plan is plan


def test_lenient_mode_promotes_replan_to_gold():
    gold = make_plan(
        [("a", "x.t1"), ("b", "x.t2"), ("c", "x.t3"), ("d", "x.t4"), ("e", "x.t5")],
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")],
    )
    # Replan drops nothing but adds one extra edge: F1 = 2*(4/5)/(1.8) = 8/9.
    replan = make_plan(
        [("a", "x.t1"), ("b", "x.t2"), ("c", "x.t3"), ("d", "x.t4"), ("e", "x.t5")],
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")],
    )
    tools = ["x.t1", "x.t2", "x.t3", "x.t4", "x.t5"]
    outcome = replan_and_filter("q", tools, gold, replanner(serialize_plan(replan)), "lenient")
    assert outcome.accepted
    assert outcome.final_plan == replan
    assert outcome.edge_f1 == pytest.approx(8 / 9, abs=1e-12)


def test_lenient_mode_rejects_structurally_unusable_replan():
    gold = make_plan(
        [("a", "x.t1"), ("b", "x.t2"), ("c", "x.t3"), ("d", "x.t4"), ("e", "x.t5")],
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")],
    )
    # All four gold edges plus the back edge e->a: F1 = 8/9 >= 0.8 but cyclic.
    cyclic = make_plan(
        [("a", "x.t1"), ("b", "x.t2"), ("c", "x.t3"), ("d", "x.t4"), ("e", "x.t5")],
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")],
    )
    tools = ["x.t1", "x.t2", "x.t3", "x.t4", "x.t5"]
    outcome = replan_and_filter("q", tools, gold, replanner(serialize_plan(cyclic)), "lenient")
    assert not outcome.accepted
    assert outcome.edge_f1 == pytest.approx(8 / 9, abs=1e-12)
    assert "not structurally usable" in outcome.reason


def test_lenient_mode_rejects_replan_that_is_not_valid_unicode():
    gold = make_plan([("a", "x.t1"), ("b", "x.t2")], [("a", "b")])
    lone = plan_text([("a", "x.t1", {"q": "\ud800"}), ("b", "x.t2")], [("a", "b")])
    outcome = replan_and_filter("q", ["x.t1", "x.t2"], gold, replanner(lone), "lenient")
    assert not outcome.accepted
    assert outcome.edge_f1 == 1.0
    assert "not structurally usable" in outcome.reason


def test_twenty_replans_match_independent_f1_oracle():
    rng = random.Random(99)
    threshold = 0.8
    _, gold = generate_workflow(LIB, "Medium", seed=12)
    ids = sorted(gold.tool_set)
    decisions = []
    for _ in range(20):
        # Mutate gold's edges: keep each with p=0.85, maybe add a reverse edge.
        kept = [e for e in gold.edges if rng.random() < 0.85]
        replan = make_plan([(n.id, n.tool) for n in gold.nodes],
                           [(e.src, e.dst) for e in kept])
        outcome = replan_and_filter(
            "q", ids, gold, replanner(serialize_plan(replan)), "lenient",
            threshold=threshold,
        )
        f1 = oracle_edge_f1(replan.edge_tool_pairs, gold.edge_tool_pairs)
        connected, _ = check_connectivity(replan)
        expected = f1 >= threshold and connected and detect_cycle(replan) is None
        decisions.append((outcome.accepted, expected))
        assert outcome.edge_f1 == pytest.approx(f1, abs=1e-12)
    assert all(got == want for got, want in decisions)
    assert any(got for got, _ in decisions)
    assert any(not got for got, _ in decisions)


# --- build_dataset -------------------------------------------------------------------


def test_offline_build_counts_validity_and_self_scores():
    records, stats = build_dataset(LIB, {"Easy": 10, "Medium": 10, "Hard": 10}, seed=4)
    assert len(records) == 30
    assert stats.generated == {"Easy": 10, "Medium": 10, "Hard": 10}
    config = DifficultyConfig()
    for record in records:
        record.validate(config)
        assert score_plan(serialize_plan(record.gold_plan), record.gold_plan).value == 10.0
        assert record.provenance.generator == "local:layered/v1"
        assert record.provenance.replan_agreed is False


def test_offline_build_is_deterministic():
    first, _ = build_dataset(LIB, {"Easy": 5, "Hard": 3}, seed=21)
    second, _ = build_dataset(LIB, {"Easy": 5, "Hard": 3}, seed=21)
    assert first == second
    third, _ = build_dataset(LIB, {"Easy": 5, "Hard": 3}, seed=22)
    assert first != third


def test_offline_build_with_jobs_matches_sequential():
    sequential, _ = build_dataset(LIB, {"Easy": 6, "Medium": 4}, seed=3, jobs=1)
    parallel, _ = build_dataset(LIB, {"Easy": 6, "Medium": 4}, seed=3, jobs=4)
    assert sequential == parallel


@pytest.mark.parametrize("jobs", [1, 2])
def test_build_leaves_no_reference_cycles(jobs):
    assert cycles_left_by(lambda: build_dataset(LIB, {"Easy": 4, "Medium": 2}, seed=3, jobs=jobs)) == 0


def test_build_rejects_unknown_difficulty():
    with pytest.raises(ValueError):
        build_dataset(LIB, {"Impossible": 1}, seed=0)


def build_fixture_cassette(counts, seed):
    """Record the cassette a teacher client would have produced.

    The candidate toolset and local plan for a given record seed are
    deterministic, so the exact prompts of all three stages are known in
    advance.
    """
    cassette = {}
    for difficulty, want in counts.items():
        for index in range(want):
            record_seed = f"{seed}:{difficulty}:{index}:0"
            candidates, plan = generate_workflow(LIB, difficulty, record_seed)
            specs = LIB.subset(candidates)
            prompt1 = workflow_prompt(specs, len(plan), difficulty)
            cassette[fixture_key(prompt1, 0)] = serialize_plan(plan)
            ordered = [LIB[plan.node_index[nid].tool] for nid in topo_order(plan)]
            prompt2 = query_prompt(ordered, serialize_plan(plan))
            query = f"Fixture query for {difficulty} #{index}."
            cassette[fixture_key(prompt2)] = query
            prompt3 = replan_prompt(query, specs)
            cassette[fixture_key(prompt3)] = serialize_plan(plan)
    return cassette


def test_build_with_fixture_client_runs_all_three_stages():
    counts = {"Easy": 3, "Medium": 2}
    cassette = build_fixture_cassette(counts, seed=17)
    client = FixtureClient(cassette, model_name="teacher-fixture")
    records, stats = build_dataset(LIB, counts, seed=17, client=client)
    assert len(records) == 5
    assert stats.rejected_replans == 0
    for record in records:
        assert record.provenance.replan_agreed is True
        assert record.provenance.teacher_model == "teacher-fixture"
        assert record.query.startswith("Fixture query for")
        record.validate(DifficultyConfig())
    again, _ = build_dataset(LIB, counts, seed=17, client=FixtureClient(cassette))
    assert [r.gold_plan for r in again] == [r.gold_plan for r in records]


def test_build_runs_jobs_records_at_once():
    counts = {"Easy": 12}
    client = PeakClient(FixtureClient(build_fixture_cassette(counts, seed=18)))
    records, _ = build_dataset(LIB, counts, seed=18, client=client, jobs=4)
    assert len(records) == 12
    assert client.peak == 4


def test_build_absorbs_rejections_into_stats():
    counts = {"Easy": 2}
    cassette = build_fixture_cassette(counts, seed=30)
    # Sabotage every replan entry for record 0 attempt 0 onward: replace all
    # replan responses with garbage so the filter rejects and retries run dry.
    sabotaged = {}
    for key, value in cassette.items():
        sabotaged[key] = value
    record_seed = f"30:Easy:0:0"
    candidates, plan = generate_workflow(LIB, "Easy", record_seed)
    query = "Fixture query for Easy #0."
    sabotaged[fixture_key(replan_prompt(query, LIB.subset(candidates)))] = "not json"
    records, stats = build_dataset(LIB, counts, seed=30, client=FixtureClient(sabotaged),
                                   max_attempts=1)
    assert len(records) == 1  # record 1 survives
    assert stats.unparseable_replans == 1
    assert stats.shortfall == {"Easy": 1}


def test_build_drops_a_record_whose_query_is_not_valid_unicode():
    counts = {"Easy": 2}
    cassette = build_fixture_cassette(counts, seed=31)
    _, plan = generate_workflow(LIB, "Easy", "31:Easy:0:0")
    ordered = [LIB[plan.node_index[nid].tool] for nid in topo_order(plan)]
    cassette[fixture_key(query_prompt(ordered, serialize_plan(plan)))] = "Fetch \ud800 things."
    records, stats = build_dataset(LIB, counts, seed=31, client=FixtureClient(cassette),
                                   max_attempts=1)
    assert [r.record_id for r in records] == ["easy-00001"]
    assert stats.client_errors == 1
    assert stats.shortfall == {"Easy": 1}


def test_build_drops_a_record_whose_author_raises_a_client_error():
    counts = {"Easy": 2}
    cassette = build_fixture_cassette(counts, seed=32)
    candidates, plan = generate_workflow(LIB, "Easy", "32:Easy:0:0")
    del cassette[fixture_key(workflow_prompt(LIB.subset(candidates), len(plan), "Easy"), 0)]
    records, stats = build_dataset(LIB, counts, seed=32, client=FixtureClient(cassette),
                                   max_attempts=1)
    assert [r.record_id for r in records] == ["easy-00001"]
    assert (stats.client_errors, stats.author_failures) == (1, 0)
    assert stats.shortfall == {"Easy": 1}

    records, stats = build_dataset(LIB, counts, seed=1, client=FailingClient(), max_attempts=3)
    assert records == []
    assert (stats.attempts, stats.client_errors) == (6, 6)
    assert stats.shortfall == {"Easy": 2}


def test_build_counts_an_exhausted_author_as_an_author_failure():
    records, stats = build_dataset(LIB, {"Easy": 1}, seed=0, client=ScriptedClient(["not json"]),
                                   max_attempts=2)
    assert records == []
    assert (stats.attempts, stats.author_failures, stats.client_errors) == (2, 2, 0)
    assert stats.shortfall == {"Easy": 1}


def test_build_counts_a_diverging_replan_as_a_rejected_replan():
    counts = {"Easy": 2}
    cassette = build_fixture_cassette(counts, seed=33)
    candidates, _ = generate_workflow(LIB, "Easy", "33:Easy:0:0")
    prompt = replan_prompt("Fixture query for Easy #0.", LIB.subset(candidates))
    cassette[fixture_key(prompt)] = serialize_plan(make_plan([("a", candidates[0])], []))
    records, stats = build_dataset(LIB, counts, seed=33, client=FixtureClient(cassette),
                                   max_attempts=1)
    assert [r.record_id for r in records] == ["easy-00001"]
    assert (stats.rejected_replans, stats.unparseable_replans) == (1, 0)
    assert stats.shortfall == {"Easy": 1}


# --- record IO -------------------------------------------------------------------


def test_record_jsonl_round_trip(tmp_path):
    records, _ = build_dataset(LIB, {"Easy": 4}, seed=2)
    path = tmp_path / "data.jsonl"
    save_records(records, path)
    again = load_records(path)
    assert again == records
    save_records(records[:1], path, append=True)
    assert len(load_records(path)) == 5


def test_record_validate_catches_violations():
    record = DatasetRecord(
        record_id="bad-1",
        query="q",
        candidate_tools=("x.t1",),
        gold_plan=make_plan([("a", "x.t1"), ("b", "x.t2")], [("a", "b")]),
        difficulty="Easy",
        provenance=Provenance(generator="test"),
    )
    with pytest.raises(ValueError, match="unoffered"):
        record.validate()
    empty = DatasetRecord("bad-2", "q", ("x.t1",), parse_plan('{"nodes":[]}'), "Easy",
                          Provenance(generator="test"))
    with pytest.raises(ValueError, match="empty"):
        empty.validate()


def test_record_validate_checks_difficulty_and_band():
    (record,), _ = build_dataset(LIB, {"Easy": 1}, seed=2)
    n_cand, n_req = len(record.candidate_tools), len(record.gold_plan)
    record.validate(DifficultyConfig())
    with pytest.raises(ValueError, match="unknown difficulty 'Extreme'"):
        dataclasses.replace(record, difficulty="Extreme").validate()
    too_few = DifficultyConfig({"Easy": Band((n_cand + 1, n_cand + 1), (1, n_req))})
    with pytest.raises(ValueError, match=f"{n_cand} candidates outside band"):
        record.validate(too_few)
    too_many = DifficultyConfig({"Easy": Band((n_cand, n_cand), (n_req + 1, n_cand))})
    with pytest.raises(ValueError, match=f"{n_req} required tools outside band"):
        record.validate(too_many)
