"""Fail-fast hierarchical plan reward and group-relative advantages.

A candidate plan is judged in strict precedence order and evaluation stops at
the first failing level:

1. syntax   — the text cannot be parsed as a plan graph     -> -10.0
2. cycle    — the parsed graph contains a directed cycle    -> -10.0
3. connectivity — the graph is not weakly connected         ->  -2.0
4. fidelity — 5 x edge-level F1 against the gold plan, plus a +5.0 bonus
   when the candidate's node set AND edge set both equal the gold's.

The resulting scalar always lies in [-10.0, +10.0], and +10.0 is attainable
only by an exact match.  ``score_group`` scores a rollout group against one
gold plan, and ``group_advantages`` provides the per-group z-score
normalization that turns a batch of these rewards into advantages for
group-relative policy optimization; the policy update itself is out of scope.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from .metrics import score_pair, set_prf
# check_connectivity and parse_plan stay bound for perfbench's traced runs.
from .plan import PlanGraph, check_connectivity, detect_cycle, parse_plan, validate_text  # noqa: F401

SYNTAX_PENALTY = -10.0
CYCLE_PENALTY = -10.0
CONNECTIVITY_PENALTY = -2.0
EDGE_F1_SCALE = 5.0
PERFECT_MATCH_BONUS = 5.0
REWARD_MIN = -10.0
REWARD_MAX = 10.0


class RewardBranch(str, enum.Enum):
    """Which level of the hierarchy produced the reward."""

    SYNTAX = "syntax"
    CYCLE = "cycle"
    CONNECTIVITY = "connectivity"
    FIDELITY = "fidelity"


_PENALTIES = {
    RewardBranch.SYNTAX: SYNTAX_PENALTY,
    RewardBranch.CYCLE: CYCLE_PENALTY,
    RewardBranch.CONNECTIVITY: CONNECTIVITY_PENALTY,
}


class InvalidGoldError(ValueError):
    """The gold plan is unusable (cyclic) — a configuration error, not a score."""


@dataclass(frozen=True)
class RewardBreakdown:
    """The fired branch, the scalar, and (for fidelity) its components.

    ``detail`` carries the human-readable witness: the parser's reason, the
    cycle path, or the isolated-node list.
    """

    branch: RewardBranch
    value: float
    edge_f1: float | None = None
    perfect_match: bool | None = None
    detail: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "branch": self.branch.value,
            "value": self.value,
            "edge_f1": self.edge_f1,
            "perfect_match": self.perfect_match,
            "detail": self.detail,
        }


def edge_f1(predicted: Iterable, gold: Iterable) -> float:
    """Set-based F1 over dependency pairs; both empty -> 1.0, one empty -> 0.0.

    The empty-vs-empty convention is what lets a correct single-tool plan earn
    the full +10.0 instead of being capped at the bonus alone.
    """
    return set_prf(predicted, gold)[2]


def score_plan(candidate: Any, gold: PlanGraph, *, self_loops: str = "reject") -> RewardBreakdown:
    """Score one candidate against a gold plan: ``score_group`` of one candidate."""
    return score_group([candidate], gold, self_loops=self_loops)[0]


def score_group(candidates: Sequence[Any], gold: PlanGraph, *, self_loops: str = "reject") -> list[RewardBreakdown]:
    """Score a rollout group against one gold plan, fail-fast per candidate.

    A candidate is plan text or a decoded plan document, as ``parse_plan``
    reads them.  Checks run in strict precedence — syntax, then cycle, then
    connectivity — and the first failing level's penalty is returned; the
    verdict and its witness are those of ``validate_text``.  Candidates
    passing all three score ``5*edge_f1 + 5*exact_match`` from
    ``metrics.score_pair``: edges compare as (source tool, target tool) pairs
    and exact match means tool-set and edge-set equality with the gold.  The
    gold is checked once and each distinct text is scored once (a document
    cannot be hashed, so each one is scored); results keep input order.

    Raises InvalidGoldError when the gold plan itself is cyclic; gold
    connectivity is a dataset-build-time obligation and is not checked here.
    """
    gold_cycle = detect_cycle(gold)
    if gold_cycle is not None:
        raise InvalidGoldError("gold plan is cyclic: " + " -> ".join(gold_cycle))

    def score(candidate: Any) -> RewardBreakdown:
        report = validate_text(candidate, self_loops=self_loops)
        if not report.fully_valid:
            branch = RewardBranch(report.failed_check)
            return RewardBreakdown(branch, _PENALTIES[branch], detail=report.detail)
        pair = score_pair(report.graph, gold)
        value = EDGE_F1_SCALE * pair.edge_f1 + PERFECT_MATCH_BONUS * pair.exact_match
        return RewardBreakdown(
            RewardBranch.FIDELITY, value, edge_f1=pair.edge_f1, perfect_match=bool(pair.exact_match)
        )

    texts = {text: score(text) for text in dict.fromkeys(c for c in candidates if isinstance(c, str))}
    return [texts[c] if isinstance(c, str) else score(c) for c in candidates]


@dataclass(frozen=True)
class GroupAdvantages:
    """Rewards of one rollout group and their normalized advantages."""

    rewards: tuple[float, ...]
    advantages: tuple[float, ...]


def group_advantages(rewards: Sequence[float], epsilon: float = 1e-8) -> GroupAdvantages:
    """Per-group z-score: ``(r - mean) / (std + epsilon)``, order-preserving.

    ``std`` is the population standard deviation.  A constant group maps to
    all-zero advantages regardless of epsilon: equal rewards are detected
    directly, because their rounded mean need not equal them.
    """
    values = tuple(float(r) for r in rewards)
    if not values:
        raise ValueError("rewards must be non-empty")
    mean = math.fsum(values) / len(values)
    std = math.sqrt(math.fsum((r - mean) ** 2 for r in values) / len(values))
    if std == 0.0 or min(values) == max(values):
        return GroupAdvantages(values, (0.0,) * len(values))
    return GroupAdvantages(values, tuple((r - mean) / (std + epsilon) for r in values))
