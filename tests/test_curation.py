"""Rollout-variance curation and the train/test split."""

from __future__ import annotations

import json
import math
import threading

import pytest

from dagplan import (
    ClientError,
    CompletionClient,
    FixtureClient,
    MockRegistry,
    ScriptedClient,
    build_dataset,
    curate,
    execute,
    fixture_key,
    profile_task,
    serialize_plan,
    split_train_test,
    synth_library,
)
from dagplan.clients import FailingClient
from dagplan.executor import MAX_WORKERS
from dagplan.prompts import replan_prompt

from helpers import PeakClient, cycles_left_by, fan_out_plan

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


def test_curate_with_jobs_leaves_no_reference_cycles():
    records = RECORDS[:4]
    planner = FixtureClient(solve_cassette(records, [[1, 0, 0, 0, 0], [0, 0, 0, 0, 0],
                                                     [1, 1, 1, 1, 1], [0, 1, 0, 1, 1]]))
    assert cycles_left_by(lambda: curate(records, planner, 5, jobs=2)) == 0


def test_profile_task_that_raises_leaves_no_reference_cycles():
    def unprofiled():
        with pytest.raises(ClientError, match="injected"):
            profile_task(RECORDS[0], FailingClient(), 5, retries=2)

    assert cycles_left_by(unprofiled) == 0


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


# --- rollouts in flight: the calling thread plus helpers from one shared pool ----


FRONTIER_PATTERNS = [[1, 0, 0, 0, 0], [0, 0, 0, 0, 0], [1, 1, 1, 1, 1], [0, 1, 0, 1, 1]]
MANY_RECORDS, _ = build_dataset(LIB, {"Easy": 24}, seed=4)


def test_curate_runs_jobs_times_n_rollouts_at_once():
    planner = PeakClient(ScriptedClient([BAD_PLAN]))
    curate(MANY_RECORDS, planner, 5, jobs=2)
    assert planner.peak == 10


def test_profile_task_runs_its_n_rollouts_at_once():
    planner = PeakClient(ScriptedClient([BAD_PLAN]))
    profile_task(RECORDS[0], planner, 5)
    assert planner.peak == 5


def test_curate_in_flight_rollouts_are_capped_by_the_shared_pool():
    planner = PeakClient(ScriptedClient([BAD_PLAN]))
    curate(MANY_RECORDS, planner, 8, jobs=10)  # 80 wanted, 192 rollouts
    assert planner.peak <= MAX_WORKERS + 1


def test_repeated_curate_calls_start_no_threads():
    outside = [t for t in threading.enumerate() if not t.name.startswith("dagplan-execute")]
    planner = ScriptedClient([BAD_PLAN])
    curate(MANY_RECORDS, planner, 8, jobs=10)  # asks the shared pool for all of its helpers
    live = threading.active_count()
    assert live <= len(outside) + MAX_WORKERS
    for _ in range(3):
        curate(MANY_RECORDS, planner, 8, jobs=10)
        assert threading.active_count() == live


def test_nested_execute_and_profile_task_finish_while_every_helper_is_busy():
    # 64 rollouts at jobs=10 x n=8 take every helper; each rollout runs
    # execute, and one of its tools runs profile_task.  Neither waits for a
    # helper to start, so both run their work in their own thread.
    inner = ScriptedClient([BAD_PLAN])

    class ProfilingRegistry(MockRegistry):
        def invoke(self, tool_id, args):
            if tool_id == "t1":
                assert profile_task(RECORDS[0], inner, 3).solves == 0
            return super().invoke(tool_id, args)

    registry = ProfilingRegistry(latency=0.002)

    class ExecutingPlanner(CompletionClient):
        model_name = "executing"

        def complete(self, prompt, *, seed=None):
            assert execute(fan_out_plan(3), registry).ok()
            return BAD_PLAN

    outcome = []
    caller = threading.Thread(
        target=lambda: outcome.append(curate(MANY_RECORDS[:8], ExecutingPlanner(), 8, jobs=10)),
        daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert outcome[0][1].histogram == {"0/8": 8}


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
    _, stats = curate(records, planner, 2, jobs=1)  # 300 rollouts, 128 per window
    assert stats.profiles == [profile_task(r, planner, 2) for r in records]
    assert stats.histogram == {"0/2": 50, "1/2": 100}
