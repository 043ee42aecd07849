"""Every plan gate gives the same verdict on the same text.

The reward (``score_plan``), the executor's planner gate (``run_end_to_end``)
and ``validate_text`` must agree on arbitrary text and on generated plan JSON
with cycles, self-loops, isolated nodes and unknown endpoints.  The expected
branch is derived here from the report's flags, independently of the
report's own ``failed_check``.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from dagplan import (
    REWARD_MAX,
    REWARD_MIN,
    MockRegistry,
    PlanRejectedError,
    PreflightError,
    RewardBranch,
    ScriptedClient,
    run_end_to_end,
    score_plan,
    validate_text,
)
from helpers import make_plan

GOLD = make_plan([("a", "t1"), ("b", "t2"), ("c", "t3")], [("a", "b"), ("a", "c")])

IDS = st.sampled_from(["a", "b", "c", "d", "e"])


@st.composite
def plan_documents(draw) -> str:
    ids = draw(st.lists(IDS, max_size=5))
    tools = draw(st.lists(st.sampled_from(["t1", "t2", "t3", "t4", "t5", "t6"]),
                          min_size=len(ids), max_size=len(ids)))
    nodes = [{"id": i, "tool": t, "args": {}} for i, t in zip(ids, tools)]
    endpoints = st.sampled_from(ids + ["z"]) if ids else st.just("z")
    edges = draw(st.lists(st.tuples(endpoints, endpoints), max_size=8))
    doc = {"nodes": nodes, "edges": [{"from": u, "to": v} for u, v in edges]}
    if draw(st.booleans()):
        del doc["edges"]
    return json.dumps(doc)


TEXTS = st.one_of(st.text(max_size=60), plan_documents())
SELF_LOOPS = st.sampled_from(["reject", "cycle"])


def expected_branch(text: str, self_loops: str) -> RewardBranch:
    report = validate_text(text, self_loops=self_loops)
    if not report.syntax_ok:
        return RewardBranch.SYNTAX
    if not report.is_acyclic:
        return RewardBranch.CYCLE
    if not report.is_connected:
        return RewardBranch.CONNECTIVITY
    return RewardBranch.FIDELITY


@settings(max_examples=300, deadline=None)
@given(TEXTS, SELF_LOOPS)
def test_score_plan_branch_matches_validation_report(text, self_loops):
    breakdown = score_plan(text, GOLD, self_loops=self_loops)
    report = validate_text(text, self_loops=self_loops)
    assert breakdown.branch == expected_branch(text, self_loops)
    assert breakdown.branch.value == (report.failed_check or "fidelity")
    assert breakdown.detail == report.detail
    assert REWARD_MIN <= breakdown.value <= REWARD_MAX


@settings(max_examples=150, deadline=None)
@given(TEXTS, SELF_LOOPS)
def test_executor_gate_rejects_exactly_the_invalid_plans(text, self_loops):
    branch = expected_branch(text, self_loops)
    try:
        run_end_to_end("q", ["t1"], ScriptedClient([text]), MockRegistry(),
                       self_loops=self_loops)
        rejected = None
    except PlanRejectedError as exc:
        rejected = exc.branch
        assert exc.reason == validate_text(text, self_loops=self_loops).detail
    except PreflightError:
        rejected = None  # passed the gate; refused later for an unresolvable reference
    assert rejected == (None if branch is RewardBranch.FIDELITY else branch)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(), st.binary().map(lambda b: b.decode("latin-1")),
                 st.recursive(st.none() | st.booleans() | st.floats() | st.text(max_size=5),
                              lambda kids: st.lists(kids) | st.dictionaries(st.text(max_size=5), kids),
                              max_leaves=20).map(lambda d: json.dumps(d))))
def test_score_plan_is_total_and_bounded(text):
    breakdown = score_plan(text, GOLD)
    assert REWARD_MIN <= breakdown.value <= REWARD_MAX
