"""Rollout-variance curation and the train/test split."""

from __future__ import annotations

import json
import math

import pytest

from dagplan import (
    ClientError,
    CompletionClient,
    FixtureClient,
    ScriptedClient,
    build_dataset,
    curate,
    fixture_key,
    profile_task,
    serialize_plan,
    split_train_test,
    synth_library,
)
from dagplan.clients import FailingClient
from dagplan.prompts import replan_prompt

LIB = synth_library(40, seed=13)
RECORDS, _ = build_dataset(LIB, {"Easy": 6}, seed=8)

BAD_PLAN = "definitely not a plan"


def scripted_planner(record, pattern):
    """Planner that solves exactly the rollouts where ``pattern`` has a 1."""
    gold = serialize_plan(record.gold_plan)
    return ScriptedClient([gold if bit else BAD_PLAN for bit in pattern])


def test_consistent_solver_is_excluded():
    profile = profile_task(RECORDS[0], scripted_planner(RECORDS[0], [1, 1, 1, 1, 1]), 5)
    assert profile.solves == 5
    assert profile.solve_rate == 1.0
    assert profile.kept is False


def test_consistent_failer_is_excluded():
    profile = profile_task(RECORDS[0], scripted_planner(RECORDS[0], [0, 0, 0, 0, 0]), 5)
    assert profile.solves == 0
    assert profile.solve_rate == 0.0
    assert profile.kept is False


def test_sometimes_solver_is_kept():
    profile = profile_task(RECORDS[0], scripted_planner(RECORDS[0], [1, 0, 1, 0, 0]), 5)
    assert profile.solves == 2
    assert profile.solve_rate == pytest.approx(0.4)
    assert profile.kept is True


def test_solve_requires_exact_maximum():
    # A near-miss plan (extra tool appended) is not a solve even though it
    # parses, validates, and scores a positive fidelity reward.
    record = RECORDS[1]
    gold = record.gold_plan
    doc = json.loads(serialize_plan(gold))
    extra_tool = next(t for t in LIB.ids() if t not in gold.tool_set)
    doc["nodes"].append({"id": "zz", "tool": extra_tool, "args": {}})
    doc["edges"].append({"from": doc["nodes"][0]["id"], "to": "zz"})
    planner = ScriptedClient([json.dumps(doc)] * 5)
    profile = profile_task(record, planner, 5)
    assert profile.solves == 0
    assert profile.kept is False


def test_rollout_count_floor():
    with pytest.raises(ValueError):
        profile_task(RECORDS[0], scripted_planner(RECORDS[0], [1]), 1)


def solve_cassette(records, patterns, n=5):
    """Fixture cassette scripting per-record solve patterns."""
    entries = {}
    for record, pattern in zip(records, patterns):
        prompt = replan_prompt(record.query, record.candidate_tools)
        for i in range(n):
            text = serialize_plan(record.gold_plan) if pattern[i] else BAD_PLAN
            entries[fixture_key(prompt, i)] = text
    return entries


def test_curate_keeps_exactly_the_frontier():
    records = RECORDS[:3]
    patterns = [[0, 0, 0, 0, 0], [1, 0, 1, 0, 0], [1, 1, 1, 1, 1]]
    planner = FixtureClient(solve_cassette(records, patterns))
    kept, stats = curate(records, planner, 5)
    assert [r.record_id for r in kept] == [records[1].record_id]
    assert stats.input_count == 3
    assert stats.kept == 1
    assert stats.excluded_hard == 1
    assert stats.excluded_easy == 1
    assert stats.unprofiled == 0
    assert stats.histogram == {"0/5": 1, "2/5": 1, "5/5": 1}


def test_all_tasks_at_full_rate_leave_nothing():
    records = RECORDS[:3]
    patterns = [[1, 1, 1, 1, 1]] * 3
    planner = FixtureClient(solve_cassette(records, patterns))
    kept, stats = curate(records, planner, 5)
    assert kept == []
    assert stats.excluded_easy == 3


def test_curate_is_order_preserving():
    records = RECORDS[:4]
    patterns = [[1, 0, 0, 0, 0], [0, 1, 1, 0, 0], [1, 1, 1, 1, 1], [0, 1, 0, 1, 1]]
    planner = FixtureClient(solve_cassette(records, patterns))
    kept, _ = curate(records, planner, 5)
    kept_ids = [r.record_id for r in kept]
    assert kept_ids == [records[0].record_id, records[1].record_id, records[3].record_id]


def test_curate_parallel_matches_sequential():
    records = RECORDS[:4]
    patterns = [[1, 0, 0, 0, 0], [0, 0, 0, 0, 0], [1, 1, 1, 1, 1], [0, 1, 0, 1, 1]]
    planner = FixtureClient(solve_cassette(records, patterns))
    kept_seq, stats_seq = curate(records, planner, 5, jobs=1)
    kept_par, stats_par = curate(records, planner, 5, jobs=4)
    assert kept_seq == kept_par
    assert stats_seq.histogram == stats_par.histogram


def test_curate_is_idempotent_on_the_kept_set():
    records = RECORDS[:3]
    patterns = [[1, 0, 1, 0, 0], [0, 1, 0, 0, 0], [1, 1, 0, 1, 1]]
    cassette = solve_cassette(records, patterns)
    kept, _ = curate(records, FixtureClient(cassette), 5)
    assert len(kept) == 3
    again, stats = curate(kept, FixtureClient(cassette), 5)
    assert again == kept
    assert stats.kept == len(kept)


def test_unprofiled_tasks_are_excluded_and_counted():
    kept, stats = curate(RECORDS[:3], FailingClient(), 5)
    assert kept == []
    assert stats.unprofiled == 3
    assert stats.kept == 0


def test_client_retries_are_capped():
    from collections import Counter

    calls = []

    class FlakyClient(CompletionClient):
        model_name = "flaky"

        def complete(self, prompt, *, seed=None):
            calls.append(seed)
            raise ClientError("down")

    with pytest.raises(ClientError):
        profile_task(RECORDS[0], FlakyClient(), 5, retries=3)
    # Rollouts not yet started may be cancelled once the failure surfaces;
    # every rollout that did run must have stopped at exactly 3 attempts.
    counts = Counter(calls)
    assert counts
    assert all(count == 3 for count in counts.values())


def test_custom_bounds_are_strict():
    records = RECORDS[:3]
    patterns = [[1, 0, 0, 0, 0], [1, 1, 0, 0, 0], [1, 1, 1, 1, 0]]  # rates .2 .4 .8
    planner = FixtureClient(solve_cassette(records, patterns))
    kept, stats = curate(records, planner, 5, bounds=(0.2, 0.8))
    assert [r.record_id for r in kept] == [records[1].record_id]
    assert stats.excluded_hard == 1  # rate 0.2 <= low
    assert stats.excluded_easy == 1  # rate 0.8 >= high


# --- split -------------------------------------------------------------------


def test_split_787_gives_630_157():
    records, _ = build_dataset(LIB, {"Easy": 787}, seed=5)
    train, test = split_train_test(records, seed=1)
    assert len(train) == 630
    assert len(test) == 157


def test_split_is_deterministic_and_partitions():
    records = RECORDS
    train1, test1 = split_train_test(records, seed=9)
    train2, test2 = split_train_test(records, seed=9)
    assert train1 == train2 and test1 == test2
    ids = sorted(r.record_id for r in train1 + test1)
    assert ids == sorted(r.record_id for r in records)
    assert not {r.record_id for r in train1} & {r.record_id for r in test1}


@pytest.mark.parametrize("n,expected_test", [(0, 0), (1, 0), (4, 0), (5, 1), (10, 2), (787, 157)])
def test_split_floor_rule(n, expected_test):
    assert int(n * 0.2) == expected_test == math.floor(n * 0.2)


def test_split_rejects_bad_fraction():
    with pytest.raises(ValueError):
        split_train_test(RECORDS, seed=0, test_fraction=1.5)


# --- one rollout pool per call ---------------------------------------------------


FRONTIER_PATTERNS = [[1, 0, 0, 0, 0], [0, 0, 0, 0, 0], [1, 1, 1, 1, 1], [0, 1, 0, 1, 1]]


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_each_call_builds_exactly_one_pool(monkeypatch, jobs):
    from dagplan import curation

    sizes = []

    class CountingPool(curation.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            sizes.append(max_workers)

    monkeypatch.setattr(curation, "ThreadPoolExecutor", CountingPool)
    records = RECORDS[:4]
    planner = FixtureClient(solve_cassette(records, FRONTIER_PATTERNS))
    curate(records, planner, 5, jobs=jobs)
    assert sizes == [jobs * 5]
    sizes.clear()
    profile_task(records[0], planner, 5)
    assert sizes == [5]


def test_client_errors_unprofile_only_their_own_record():
    records = RECORDS[:4]
    healthy = FixtureClient(solve_cassette(records, FRONTIER_PATTERNS))
    down = replan_prompt(records[0].query, records[0].candidate_tools)  # a frontier task

    class OneRecordDown(CompletionClient):
        model_name = "one-record-down"

        def complete(self, prompt, *, seed=None):
            if prompt == down:
                raise ClientError("down")
            return healthy.complete(prompt, seed=seed)

    _, expected = curate(records, healthy, 5, jobs=2)
    kept, stats = curate(records, OneRecordDown(), 5, jobs=2)
    assert stats.unprofiled == 1
    assert stats.profiles == expected.profiles[1:]
    assert [r.record_id for r in kept] == [records[3].record_id]


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_profile_task_matches_the_profiles_curate_produces(jobs):
    records = RECORDS[:4]
    planner = FixtureClient(solve_cassette(records, FRONTIER_PATTERNS))
    _, stats = curate(records, planner, 5, jobs=jobs)
    assert stats.profiles == [profile_task(r, planner, 5) for r in records]


def test_rollouts_spanning_several_submission_slices_keep_their_records():
    records, _ = build_dataset(LIB, {"Easy": 150}, seed=21)
    patterns = [[(k + i) % 3 == 0 for i in range(2)] for k in range(len(records))]
    planner = FixtureClient(solve_cassette(records, patterns, n=2))
    _, stats = curate(records, planner, 2, jobs=1)  # 300 rollouts, submitted 128 at a time
    assert stats.profiles == [profile_task(r, planner, 2) for r in records]
    assert stats.histogram == {"0/2": 50, "1/2": 100}
