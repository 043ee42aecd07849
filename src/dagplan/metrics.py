"""Planning-quality metrics: node/edge precision, recall, F1, and exact match.

Node comparison is on tool-id sets (node labels are planner-local); edge
comparison is on (source tool, target tool) pairs.  Node arguments are ignored
entirely.  Empty-set conventions are shared with the reward module so the two
can never disagree: both sides empty scores 1.0, exactly one side empty scores
0.0.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable

from .plan import PlanGraph, PlanSyntaxError, parse_plan

METRIC_FIELDS = (
    "node_p", "node_r", "node_f1",
    "edge_p", "edge_r", "edge_f1",
    "exact_match",
)


def set_prf(predicted: Iterable, gold: Iterable) -> tuple[float, float, float]:
    """Set-based precision/recall/F1 with the shared empty-set conventions."""
    pred = frozenset(predicted)
    true = frozenset(gold)
    if not pred and not true:
        return 1.0, 1.0, 1.0
    if not pred or not true:
        return 0.0, 0.0, 0.0
    inter = len(pred & true)
    p = inter / len(pred)
    r = inter / len(true)
    f1 = 2.0 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f1


@dataclass(frozen=True)
class PlanMetrics:
    """Scores for one (predicted, gold) plan pair."""

    node_p: float
    node_r: float
    node_f1: float
    edge_p: float
    edge_r: float
    edge_f1: float
    exact_match: int

    def to_dict(self) -> dict[str, Any]:
        return {f: getattr(self, f) for f in METRIC_FIELDS}


ZERO_METRICS = PlanMetrics(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0)


def score_pair(candidate: PlanGraph, gold: PlanGraph) -> PlanMetrics:
    """Score one parsed candidate against a gold plan.

    Exact match requires both the tool set and the (tool, tool) edge set to
    coincide; it is symmetric in its arguments.
    """
    node_p, node_r, node_f1 = set_prf(candidate.tool_set, gold.tool_set)
    edge_p, edge_r, edge_f1 = set_prf(candidate.edge_tool_pairs, gold.edge_tool_pairs)
    em = int(
        candidate.tool_set == gold.tool_set
        and candidate.edge_tool_pairs == gold.edge_tool_pairs
    )
    return PlanMetrics(node_p, node_r, node_f1, edge_p, edge_r, edge_f1, em)


@dataclass(frozen=True)
class MetricsSummary:
    """Macro-averaged metrics over an evaluation set.

    ``count`` is the number of evaluated pairs; ``failures`` of those were
    unparseable candidates, which contribute zeros to every mean.
    """

    count: int
    failures: int
    node_p: float
    node_r: float
    node_f1: float
    edge_p: float
    edge_r: float
    edge_f1: float
    exact_match: float

    @property
    def successes(self) -> int:
        return self.count - self.failures

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"count": self.count, "failures": self.failures}
        doc.update({f: getattr(self, f) for f in METRIC_FIELDS})
        return doc


def summarize(rows: list[PlanMetrics], failures: int) -> MetricsSummary:
    """Macro-average per-pair metrics (zeros already included for failures)."""
    means = [math.fsum(getattr(m, f) for m in rows) / max(len(rows), 1) for f in METRIC_FIELDS]
    return MetricsSummary(len(rows), failures, *means)


def evaluate_groups(
    items: Iterable[tuple[str, Any, PlanGraph]], *, self_loops: str = "reject"
) -> tuple[dict[str, MetricsSummary], MetricsSummary]:
    """Evaluate (group, candidate, gold plan) triples by group, consuming
    ``items`` once, so a stream of triples is scored as it is read.

    A candidate is plan text or a decoded plan document, both read by
    ``parse_plan`` (a document with no text round trip), or None.  Returns one
    summary per group, in order of first appearance, and one over all
    triples.  A missing (None) or unparseable candidate is a failure: it
    scores zero on every metric and increments ``failures``.
    """
    rows: dict[str, list[PlanMetrics]] = {}
    failures: Counter[str] = Counter()
    for group, candidate, gold in items:
        try:
            row = None if candidate is None else score_pair(parse_plan(candidate, self_loops=self_loops), gold)
        except PlanSyntaxError:
            row = None
        if row is None:
            failures[group] += 1
        rows.setdefault(group, []).append(row or ZERO_METRICS)
    per_group = {group: summarize(r, failures[group]) for group, r in rows.items()}
    overall = summarize([m for r in rows.values() for m in r], sum(failures.values()))
    return per_group, overall


def evaluate_set(
    pairs: Iterable[tuple[str, PlanGraph]], *, self_loops: str = "reject"
) -> MetricsSummary:
    """Evaluate a stream of (candidate text, gold plan) pairs.

    Per-record parse failures are absorbed, never abort the run: the pair
    scores zero on every metric and increments ``failures``.
    """
    return evaluate_groups(
        (("", text, gold) for text, gold in pairs), self_loops=self_loops
    )[1]
