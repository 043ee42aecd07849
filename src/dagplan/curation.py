"""Rollout-variance curation: keep only tasks a planner sometimes solves.

Each task is profiled with n independent plan requests scored by the
hierarchical reward; a rollout counts as a solve only at the exact-match
maximum of 10.0.  Tasks solved at a rate outside the open interval
(low, high) — consistently solved or consistently failed — are excluded, and
the survivors carry the learning signal.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Any, Sequence

from .clients import ClientError, CompletionClient
from .pipeline import DatasetRecord
from .prompts import replan_prompt
# score_plan stays bound for perfbench's traced runs.
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
    workers: int,
) -> list[RolloutProfile | ClientError]:
    """``profile_task`` for each record, in input order, on one pool of ``workers`` threads.

    Pool threads only call the planner; this thread scores each record's group.
    A record with a rollout that failed all ``retries`` attempts gets that
    ClientError instead of a profile.
    """
    if n < 2:
        raise ValueError("rollout count must be >= 2")
    low, high = bounds
    # Prompts are built as their slice is submitted, so one slice's prompts are held at a time.
    prompts = (replan_prompt(r.query, r.candidate_tools) for r in records)
    jobs = ((prompt, seed) for prompt in prompts for seed in range(n))

    def rollout(job: tuple[str, int]) -> str | ClientError:
        prompt, seed = job
        error = None
        for _ in range(retries):
            try:
                return planner.complete(prompt, seed=seed)
            except ClientError as exc:
                error = exc
        assert error is not None
        return error

    # Submit 64 rollouts per worker at a time, so queued futures stay bounded,
    # and score each record's group here as soon as its n texts are in.
    step = 64 * workers
    profiles: list[RolloutProfile | ClientError] = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        slices = (pool.map(rollout, islice(jobs, step)) for _ in range(0, len(records) * n, step))
        outcomes = chain.from_iterable(slices)
        for record in records:
            texts = list(islice(outcomes, n))
            failure = next((t for t in texts if isinstance(t, ClientError)), None)
            solves = 0 if failure else sum(b.value == REWARD_MAX for b in score_group(texts, record.gold_plan))
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
    """Issue n concurrent plan rollouts for one task and count exact solutions.

    Rollout i passes seed=i to the planner as the diversity knob, so replay
    fixtures are deterministic regardless of scheduling, and the solve count
    is order-independent.  ClientError propagates after ``retries`` attempts
    per rollout; the caller decides what an unprofiled task means.
    """
    (profile,) = _profile([record], planner, n, bounds, retries, n)
    if isinstance(profile, ClientError):
        raise profile
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

    Tasks whose planner calls keep failing are excluded as unprofiled rather
    than retried forever.  All rollouts share one pool of ``jobs * n`` threads
    and results keep input order, so ``jobs`` does not change the outcome.
    """
    low, high = bounds
    stats = CurationStats(input_count=len(records), bounds=bounds, rollouts=n)
    profiles = _profile(records, planner, n, bounds, retries, max(jobs, 1) * n)

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
