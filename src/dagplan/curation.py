"""Rollout-variance curation: keep only tasks a planner sometimes solves.

Each task is profiled with n independent plan requests scored by the
hierarchical reward; a rollout counts as a solve only at the exact-match
maximum of 10.0.  Tasks solved at a rate outside the open interval
(low, high) — consistently solved or consistently failed — are excluded, and
the survivors carry the learning signal.
"""

from __future__ import annotations

import random
# ThreadPoolExecutor and score_plan stay bound for perfbench's traced runs.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field
from typing import Any, Sequence

from .clients import ClientError, CompletionClient
from .executor import _map_jobs
from .pipeline import DatasetRecord
from .prompts import replan_prompt
from .reward import REWARD_MAX, score_group, score_plan  # noqa: F401

DEFAULT_BOUNDS = (0.0, 1.0)
DEFAULT_ROLLOUTS = 5
CLIENT_RETRIES = 3


@dataclass(frozen=True)
class RolloutProfile:
    """Solve statistics for one task under one planner."""

    record_id: str
    rollouts: int
    solves: int
    kept: bool

    @property
    def solve_rate(self) -> float:
        return self.solves / self.rollouts


def _profile(
    records: Sequence[DatasetRecord],
    planner: CompletionClient,
    n: int,
    bounds: tuple[float, float],
    retries: int,
    jobs: int,
) -> list[RolloutProfile | ClientError]:
    """``profile_task`` for each record, in input order, with at most
    ``jobs * n`` planner calls in flight (``_map_jobs``: this thread plus
    helpers from the executor's shared pool).

    Records go through in windows of ``64 * jobs`` (64 rollouts per call in
    flight), so one window's prompts and texts are held at once; this thread
    scores each record's group once the window's rollouts are in.  A record
    with a rollout that failed all ``retries`` attempts gets that ClientError
    instead of a profile.
    """
    if n < 2:
        raise ValueError("rollout count must be >= 2")
    low, high = bounds

    def rollout(job: tuple[str, int]) -> str | ClientError:
        prompt, seed = job
        error = None
        for _ in range(retries):
            try:
                return planner.complete(prompt, seed=seed)
            except ClientError as exc:
                error = exc.with_traceback(None)  # its traceback would hold this frame
        assert error is not None
        return error

    profiles: list[RolloutProfile | ClientError] = []
    for start in range(0, len(records), 64 * jobs):
        chunk = records[start:start + 64 * jobs]
        prompts = [replan_prompt(r.query, r.candidate_tools) for r in chunk]
        texts = _map_jobs(rollout, [(prompt, seed) for prompt in prompts for seed in range(n)], jobs * n)
        for i, record in enumerate(chunk):
            group = texts[i * n:(i + 1) * n]
            failure = next((t for t in group if isinstance(t, ClientError)), None)
            solves = 0 if failure else sum(b.value == REWARD_MAX for b in score_group(group, record.gold_plan))
            profiles.append(failure or RolloutProfile(record.record_id, n, solves, low < solves / n < high))
    return profiles


def profile_task(
    record: DatasetRecord,
    planner: CompletionClient,
    n: int = DEFAULT_ROLLOUTS,
    *,
    bounds: tuple[float, float] = DEFAULT_BOUNDS,
    retries: int = CLIENT_RETRIES,
) -> RolloutProfile:
    """Request n plan rollouts for one task, up to n at once, and count exact solutions.

    Rollout i passes seed=i to the planner as the diversity knob, so replay
    fixtures are deterministic regardless of scheduling, and the solve count
    is order-independent.  ClientError propagates after ``retries`` attempts
    per rollout; the caller decides what an unprofiled task means.
    """
    (profile,) = _profile([record], planner, n, bounds, retries, 1)
    if isinstance(profile, ClientError):
        try:
            raise profile
        finally:
            del profile  # a local naming the raised error would tie it to its own traceback
    return profile


@dataclass
class CurationStats:
    """Counts and the solve-rate histogram for one curation run."""

    input_count: int = 0
    kept: int = 0
    excluded_easy: int = 0   # solve rate >= high: no signal left
    excluded_hard: int = 0   # solve rate <= low: intractable for now
    unprofiled: int = 0
    bounds: tuple[float, float] = DEFAULT_BOUNDS
    rollouts: int = DEFAULT_ROLLOUTS
    histogram: dict[str, int] = field(default_factory=dict)
    profiles: list[RolloutProfile] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "input_count": self.input_count,
            "kept": self.kept,
            "excluded_easy": self.excluded_easy,
            "excluded_hard": self.excluded_hard,
            "unprofiled": self.unprofiled,
            "bounds": list(self.bounds),
            "rollouts": self.rollouts,
            "histogram": dict(sorted(self.histogram.items())),
        }


def curate(
    records: Sequence[DatasetRecord],
    planner: CompletionClient,
    n: int = DEFAULT_ROLLOUTS,
    bounds: tuple[float, float] = DEFAULT_BOUNDS,
    *,
    jobs: int = 1,
    retries: int = CLIENT_RETRIES,
) -> tuple[list[DatasetRecord], CurationStats]:
    """Order-preserving filter of ``records`` down to the frontier tasks.

    A task with a rollout whose ``retries`` planner calls all fail is unprofiled.
    Each call also retries inside the client: with ``HttpCompletionClient``'s
    default of 3 attempts, a dead endpoint gets 3 x 3 = 9 requests per rollout.
    At most ``jobs * n`` rollouts are in flight (never more than the executor's
    ``MAX_WORKERS`` + 1), and results keep input order, so ``jobs`` does not
    change the outcome.
    """
    low, high = bounds
    stats = CurationStats(input_count=len(records), bounds=bounds, rollouts=n)
    profiles = _profile(records, planner, n, bounds, retries, max(jobs, 1))

    kept_records: list[DatasetRecord] = []
    for record, profile in zip(records, profiles):
        if isinstance(profile, ClientError):
            stats.unprofiled += 1
            continue
        stats.profiles.append(profile)
        key = f"{profile.solves}/{profile.rollouts}"
        stats.histogram[key] = stats.histogram.get(key, 0) + 1
        if profile.kept:
            stats.kept += 1
            kept_records.append(record)
        elif profile.solve_rate >= high:
            stats.excluded_easy += 1
        else:
            stats.excluded_hard += 1
    return kept_records, stats


def split_train_test(
    records: Sequence[DatasetRecord], seed: int | str, test_fraction: float = 0.2
) -> tuple[list[DatasetRecord], list[DatasetRecord]]:
    """Deterministic seeded shuffle, then an exact floor split.

    test size = floor(test_fraction * N); the remainder goes to train.  The
    test set is the head of the shuffled order.
    """
    if not 0.0 <= test_fraction <= 1.0:
        raise ValueError("test_fraction must be within [0, 1]")
    shuffled = list(records)
    random.Random(f"split:{seed}").shuffle(shuffled)
    n_test = int(len(shuffled) * test_fraction)
    return shuffled[n_test:], shuffled[:n_test]
