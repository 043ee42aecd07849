"""The four workloads: seeded inputs, a timed loop, correctness gates, a traced run.

dagplan is driven only through its public entry points: ``dagplan.cli.main``
in-process, ``run_end_to_end``, ``score_plan`` and ``group_advantages``.
Untraced runs give the end-to-end metrics; traced runs do a fixed amount of
work with spans around every layer and give the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import random
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from dagplan import (
    FixtureClient,
    MockRegistry,
    group_advantages,
    load_library,
    load_records,
    run_end_to_end,
    score_plan,
)
from dagplan import cli, clients, curation, executor, pipeline, reward
from dagplan.clients import fixture_key
from dagplan.prompts import replan_prompt, synthesis_prompt

from . import inputs
from .hostspeed import HostSpeed
from .tracing import Recorder, TracedClient, TracedRegistry, children_of, covered, self_time, self_times_by_layer

# Queries between two host-speed probes in agent-local (about 0.2 s of work).
SPEED_WINDOW = 200

# Worker threads for `dagplan curate --jobs`: the core count of the machine the
# baselines were taken on, fixed so that runs on other machines compare.
JOBS = 2

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "aux_throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
}

PER_LAYER = {
    "import_s": "s",
    "catalog.load_ms": "ms",
    "plan.parse_calls": "count",
    "plan.parse_us": "us",
    "plan.check_calls": "count",
    "plan.check_us": "us",
    "plan.serialize_us": "us",
    "reward.score_calls": "count",
    "reward.score_us": "us",
    "reward.branch.syntax": "count",
    "reward.branch.cycle": "count",
    "reward.branch.connectivity": "count",
    "reward.branch.fidelity": "count",
    "reward.distinct_text_ratio": "ratio",
    "reward.advantages_us": "us",
    "clients.complete_calls": "count",
    "clients.complete_us": "us",
    "clients.errors": "count",
    "curation.profile_ms": "ms",
    "curation.threads_peak": "count",
    "curation.pool_threads": "count",
    "curation.pool_wait_share": "ratio",
    "curation.serial_rollouts_per_s": "1/s",
    "executor.preflight_us": "us",
    "executor.overhead_us": "us",
    "executor.threads_per_query": "count",
    "executor.idle_ms": "ms",
    "executor.tool_calls": "count",
    "executor.tool_busy_ms": "ms",
    "executor.waves": "count",
    "prompts.replan_us": "us",
    "pipeline.build_records_per_s": "1/s",
    "pipeline.attempts_per_record": "ratio",
    "pipeline.save_us_per_record": "us",
    "pipeline.gen_us_per_record": "us",
    "pipeline.gen_us_per_record.small": "us",
    "pipeline.load_us_per_record": "us",
    "pipeline.load_us_per_record.small": "us",
    "metrics.score_pair_us": "us",
    "metrics.summarize_ms": "ms",
    "cli.eval_aggregate_ms": "ms",
    "cli.eval_aggregate_ms.small": "ms",
    "trace.overhead_share": "ratio",
    "trace.spans": "count",
}


@dataclass(frozen=True)
class Sizes:
    curate_records: int = 250
    skewed_queries: int = 700
    local_queries: int = 600
    eval_records: int = 10000
    traced_curate_runs: int = 2
    traced_skewed: int = 200
    traced_local: int = 2000
    setup_repeats: int = 9
    eval_setup_repeats: int = 7


SMOKE = Sizes(
    curate_records=20, skewed_queries=12, local_queries=20, eval_records=300,
    traced_curate_runs=1, traced_skewed=12, traced_local=40,
    setup_repeats=1, eval_setup_repeats=1,
)


@dataclass
class Ctx:
    root: Path      # checkout root; everything is read and written below it
    src: Path       # dagplan sources
    work: Path      # this workload's scratch directory
    seed: int
    seconds: float
    sizes: Sizes = Sizes()
    speed: HostSpeed = field(default_factory=HostSpeed)


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, dict] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)   # digests of primary outputs

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def line(self, text: str) -> None:
        self.report.append(text)


# --- shared helpers -------------------------------------------------------------


def run_cli(argv: list[str], span=None) -> tuple[int, float]:
    """``dagplan.cli.main`` in-process with stdout captured; (exit code, seconds).

    Garbage left by the previous command is collected first, so that no
    command pays for another's.  ``span``, a traced run's span, covers the
    command alone.
    """
    sink = io.StringIO()
    gc.collect()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), span or contextlib.nullcontext():
        code = cli.main(argv)
    return code, time.perf_counter() - start


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tail(values: list[float]) -> tuple[float, float]:
    """Highest of a few fixed percentiles with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0):
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def quantiles(values: list[float]) -> str:
    q = statistics.quantiles(values, n=100, method="inclusive")
    return f"p50={q[49]:.2f} p90={q[89]:.2f} p99={q[98]:.2f} max={max(values):.2f}"


SETUP_CODE = r"""
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import dagplan
t1 = time.perf_counter()
spec = json.loads(sys.argv[2])
catalog = 0.0
if spec.get("catalog"):
    c0 = time.perf_counter()
    dagplan.load_library(spec["catalog"])
    catalog = time.perf_counter() - c0
for path in spec.get("records", []):
    dagplan.load_records(path)
for path in spec.get("cassettes", []):
    dagplan.FixtureClient(path)
print(json.dumps({"import_s": t1 - t0, "catalog_s": catalog, "total_s": time.perf_counter() - t0}))
"""


def measure_setup(ctx: Ctx, spec: dict, repeats: int, res: Result) -> dict[str, float]:
    """Median, over fresh processes, of importing dagplan and loading the inputs (scaled)."""
    samples, raw = [], []
    for _ in range(repeats):
        proc, factor = ctx.speed.around(
            subprocess.run, [sys.executable, "-c", SETUP_CODE, str(ctx.src), json.dumps(spec)],
            cwd=ctx.root, capture_output=True, text=True, timeout=120, check=True,
        )
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(sample["total_s"])
        samples.append({key: value * factor for key, value in sample.items()})
    res.line(f"setup: raw median {statistics.median(raw):.4f} s over {repeats} fresh processes")
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def tracing_replacements(rec: Recorder) -> list[tuple]:
    """Module bindings rebound to span wrappers for a traced run."""
    wrapped = [
        (reward, "parse_plan", "plan.parse"), (executor, "parse_plan", "plan.parse"),
        (cli, "parse_plan", "plan.parse"), (pipeline, "parse_plan", "plan.parse"),
        (reward, "detect_cycle", "plan.check"), (reward, "check_connectivity", "plan.check"),
        (executor, "detect_cycle", "plan.check"), (executor, "check_connectivity", "plan.check"),
        (pipeline, "serialize_plan", "plan.serialize"),
        (curation, "score_plan", "reward.score"),
        (curation, "replan_prompt", "prompts.replan"), (executor, "replan_prompt", "prompts.replan"),
        (executor, "synthesis_prompt", "prompts.synthesis"),
        (executor, "execute", "executor.execute"), (executor, "preflight", "executor.preflight"),
        (cli, "curate", "curation.curate"),
        (cli, "build_dataset", "pipeline.build"), (cli, "save_records", "pipeline.save"),
        (cli, "load_records", "pipeline.load"),
        (cli, "score_pair", "metrics.score_pair"), (cli, "summarize", "metrics.summarize"),
        (cli, "synth_library", "catalog.synth"),
    ]
    out = [(module, attr, rec.wrap(getattr(module, attr), name)) for module, attr, name in wrapped]

    profile_task = curation.profile_task

    def traced_profile(record, *args, **kwargs):
        with rec.span("curation.profile", trace=record.record_id):
            return profile_task(record, *args, **kwargs)

    def traced_fixture(*args, **kwargs):
        return TracedClient(clients.FixtureClient(*args, **kwargs), rec)

    pool = rec.pool_class()
    out += [
        (curation, "profile_task", traced_profile),
        (cli, "FixtureClient", traced_fixture),
        (curation, "ThreadPoolExecutor", pool),
        (executor, "ThreadPoolExecutor", pool),
    ]
    return out


def spans_named(rec: Recorder, name: str, trace: str | None = None) -> list:
    """Spans with this name, of one query or record when ``trace`` is given."""
    return [s for s in rec.spans if s.name == name and (trace is None or s.trace == trace)]


def mean_dur(spans: list, scale: float) -> float:
    return statistics.fmean(s.dur for s in spans) * scale if spans else 0.0


def common_layers(rec: Recorder, res: Result) -> None:
    """Per-layer metrics every traced run reports (zero where a layer did no work)."""
    for name, span in (("plan.parse", "plan.parse"), ("plan.check", "plan.check"),
                       ("reward.score", "reward.score"), ("clients.complete", "clients.complete")):
        found = spans_named(rec, span)
        res.metric(f"{name}_calls", len(found), "count")
        res.metric(f"{name}_us", mean_dur(found, 1e6), "us")
    res.metric("plan.serialize_us", mean_dur(spans_named(rec, "plan.serialize"), 1e6), "us")
    res.metric("reward.advantages_us", mean_dur(spans_named(rec, "reward.advantages"), 1e6), "us")
    res.metric("clients.errors", rec.counters["clients.errors"], "count")
    res.metric("prompts.replan_us", mean_dur(spans_named(rec, "prompts.replan"), 1e6), "us")
    res.metric("trace.spans", len(rec.spans), "count")
    for name, unit in PER_LAYER.items():
        res.metrics.setdefault(name, {"value": 0.0, "unit": unit})
    totals = self_times_by_layer(rec.spans)
    res.line("self time by layer (s): " + ", ".join(f"{k}={v:.3f}" for k, v in sorted(totals.items())))


def setup_layers(res: Result, setup: dict[str, float]) -> None:
    res.metric("import_s", setup["import_s"], "s")
    res.metric("catalog.load_ms", setup["catalog_s"] * 1e3, "ms")


def finish_trace(ctx: Ctx, rec: Recorder, res: Result) -> None:
    common_layers(rec, res)
    path = ctx.work / "spans.jsonl.gz"
    rec.dump(path)
    res.line(f"spans written: {len(rec.spans)} to {path}")


# --- curate-replay ------------------------------------------------------------------


@dataclass
class CurateInputs:
    dataset: Path
    cassette: Path
    records: list[inputs.Record]
    groups: list[list[inputs.Rollout]]
    kept: list[str]
    histogram: dict[str, int]


def curate_inputs(ctx: Ctx) -> CurateInputs:
    rng = random.Random(f"curate-replay:{ctx.seed}")
    tool_ids = [t["id"] for t in inputs.catalog_doc()]
    n = ctx.sizes.curate_records
    records = inputs.make_records(rng, tool_ids, {"Medium": n - n // 2, "Hard": n // 2}, "cr")
    groups = inputs.make_rollout_groups(rng, records)
    entries = {}
    for record, group in zip(records, groups):
        prompt = replan_prompt(record.query, record.candidates)
        for i, rollout in enumerate(group):
            entries[fixture_key(prompt, i)] = rollout.text
    dataset, cassette = ctx.work / "dataset.jsonl", ctx.work / "cassette.json"
    inputs.write_jsonl(dataset, (r.to_doc() for r in records))
    inputs.write_json(cassette, {"entries": entries})
    solves = [sum(r.label == "exact" for r in g) for g in groups]
    kept = [r.rid for r, k in zip(records, solves) if 0 < k < inputs.ROLLOUTS]
    histogram = Counter(f"{k}/{inputs.ROLLOUTS}" for k in solves)
    return CurateInputs(dataset, cassette, records, groups, kept, dict(histogram))


def _ids(path: Path) -> list[str]:
    return [json.loads(line)["id"] for line in path.read_text(encoding="utf-8").splitlines() if line]


def curate_once(ctx: Ctx, ci: CurateInputs, res: Result, jobs: int, tag: str) -> tuple[float, str]:
    out = ctx.work / f"kept-{tag}.jsonl"
    train, test = ctx.work / f"train-{tag}.jsonl", ctx.work / f"test-{tag}.jsonl"
    argv = ["curate", "--dataset", str(ci.dataset), "--fixture", str(ci.cassette),
            "--rollouts", str(inputs.ROLLOUTS), "--jobs", str(jobs), "--seed", str(ctx.seed),
            "--out", str(out), "--train-out", str(train), "--test-out", str(test)]
    code, seconds = run_cli(argv)
    try:
        stats = json.loads((ctx.work / f"kept-{tag}.jsonl.stats.json").read_text(encoding="utf-8"))
        ok = (
            code == 0
            and _ids(out) == ci.kept
            and stats["histogram"] == dict(sorted(ci.histogram.items()))
            and stats["unprofiled"] == 0
            and sorted(_ids(train) + _ids(test)) == sorted(ci.kept)
            and len(_ids(test)) == int(len(ci.kept) * 0.2)
        )
        digest = hashlib.sha256((sha(out) + sha(train) + sha(test)).encode()).hexdigest()
    except (OSError, ValueError, KeyError) as exc:
        ok, digest = False, f"unreadable output: {exc}"
    res.op(ok, f"curate ({tag}): exit {code}; kept ids, histogram or split differ from the planted labels")
    return seconds, digest


def trainer_pass(golds, groups, score: Callable = score_plan, advantages: Callable = group_advantages):
    start = time.perf_counter()
    results = []
    for gold, texts in zip(golds, groups):
        breakdowns = [score(text, gold) for text in texts]
        results.append((breakdowns, advantages([b.value for b in breakdowns])))
    return time.perf_counter() - start, results


def check_trainer(ci: CurateInputs, results, res: Result) -> Counter:
    branches: Counter = Counter()
    for record, group, (breakdowns, adv) in zip(ci.records, ci.groups, results):
        expected_adv = inputs.advantages([r.value for r in group])
        ok = all(
            b.branch.value == r.branch and abs(b.value - r.value) <= 1e-12
            and (r.label != "exact" or b.value == 10.0)
            for b, r in zip(breakdowns, group)
        ) and all(abs(a - e) <= 1e-9 for a, e in zip(adv.advantages, expected_adv))
        res.op(ok, f"trainer step {record.rid}: branches or advantages differ from the planted labels")
        branches.update(b.branch.value for b in breakdowns)
    return branches


def curate_properties(ci: CurateInputs, res: Result) -> float:
    texts = [[r.text for r in g] for g in ci.groups]
    rollouts = sum(len(t) for t in texts)
    repeated = sum(r.repeated for g in ci.groups for r in g)
    distinct = sum(len(set(t)) for t in texts) / rollouts
    labels = Counter(r.label for g in ci.groups for r in g)
    props = inputs.plan_properties([r.plan for r in ci.records])
    res.line(f"input: {len(ci.records)} records (Medium/Hard), {rollouts} rollouts, "
             f"repeated-text share {repeated / rollouts:.3f}, distinct-text ratio {distinct:.3f}")
    res.line("input: planted label mix " + ", ".join(f"{k}={v / rollouts:.3f}" for k, v in sorted(labels.items())))
    res.line("input: solve-rate histogram " + json.dumps(dict(sorted(ci.histogram.items()))))
    res.line("input: plans " + json.dumps({k: round(v, 3) for k, v in props.items()}))
    res.line(f"input: dataset {ci.dataset.stat().st_size} bytes, cassette {ci.cassette.stat().st_size} bytes")
    return distinct


def curate_replay(ctx: Ctx, traced: bool) -> Result:
    res = Result()
    ci = curate_inputs(ctx)
    setup = measure_setup(ctx, {"records": [str(ci.dataset)], "cassettes": [str(ci.cassette)]},
                          ctx.sizes.setup_repeats, res)
    distinct = curate_properties(ci, res)
    golds = [r.gold_plan for r in load_records(ci.dataset)]
    texts = [[r.text for r in g] for g in ci.groups]
    rollouts = sum(len(t) for t in texts)
    digests = set()

    if not traced:
        curate_s, score_s, raw_curate, raw_score = [], [], [], []
        deadline = time.perf_counter() + ctx.seconds
        while not curate_s or time.perf_counter() < deadline:
            (seconds, digest), factor = ctx.speed.around(curate_once, ctx, ci, res, JOBS, "run")
            raw_curate.append(seconds)
            curate_s.append(seconds * factor)
            digests.add(digest)
            (seconds, results), factor = ctx.speed.around(trainer_pass, golds, texts)
            raw_score.append(seconds)
            score_s.append(seconds * factor)
            check_trainer(ci, results, res)
        res.op(len(digests) == 1, "curate outputs differ between invocations")
        res.metric("setup_s", setup["total_s"], "s")
        res.metric("throughput_per_s", rollouts / statistics.median(curate_s), "1/s")
        res.metric("aux_throughput_per_s", rollouts / statistics.median(score_s), "1/s")
        res.metric("latency_p50_ms", statistics.median(curate_s) * 1e3, "ms")
        res.line(f"curate_rollouts_per_s = {rollouts / statistics.median(curate_s):.1f} 1/s "
                 f"(higher is better; median of {len(curate_s)} `dagplan curate --jobs {JOBS}` runs)")
        res.line(f"score_rollouts_per_s = {rollouts / statistics.median(score_s):.1f} 1/s "
                 f"(higher is better; median of {len(score_s)} trainer passes of {rollouts} rollouts)")
        res.line(f"raw (unscaled): curate {rollouts / statistics.median(raw_curate):.1f} rollouts/s, "
                 f"trainer {rollouts / statistics.median(raw_score):.1f} rollouts/s")
        res.line(ctx.speed.summary())
        res.outputs["curate"] = digests.pop()
        return res

    def scaled_curate(jobs: int, tag: str) -> float:
        (seconds, _), factor = ctx.speed.around(curate_once, ctx, ci, res, jobs, tag)
        return seconds * factor

    untraced = [scaled_curate(JOBS, "untraced") for _ in range(ctx.sizes.traced_curate_runs)]
    serial = [scaled_curate(1, "serial") for _ in range(ctx.sizes.traced_curate_runs)]
    rec = Recorder()
    score = rec.wrap(score_plan, "reward.score")
    advantages = rec.wrap(group_advantages, "reward.advantages")
    traced_s = []
    branches: Counter = Counter()
    with rec.patched(tracing_replacements(rec)):
        for _ in range(ctx.sizes.traced_curate_runs):
            (seconds, digest), factor = ctx.speed.around(curate_once, ctx, ci, res, JOBS, "traced")
            traced_s.append(seconds * factor)
            digests.add(digest)
            _, results = trainer_pass(golds, texts, score, advantages)
            branches = check_trainer(ci, results, res)
    res.outputs["curate"] = digests.pop()
    res.op(not digests, "traced curate outputs differ between invocations")
    setup_layers(res, setup)
    for branch in ("syntax", "cycle", "connectivity", "fidelity"):
        res.metric(f"reward.branch.{branch}", branches[branch], "count")
    res.metric("reward.distinct_text_ratio", distinct, "ratio")
    res.metric("curation.profile_ms", mean_dur(spans_named(rec, "curation.profile"), 1e3), "ms")
    res.metric("curation.threads_peak", rec.threads_peak, "count")
    res.metric("curation.pool_threads", sum(w for _, w in rec.pools) / len(traced_s), "count")
    helpers = spans_named(rec, "clients.complete") + spans_named(rec, "reward.score")
    waits = []
    for run in spans_named(rec, "curation.curate"):
        inside = [(s.start, s.end) for s in helpers if run.start <= s.start <= run.end]
        waits.append(1.0 - covered(inside, run.start, run.end) / run.dur)
    res.metric("curation.pool_wait_share", statistics.median(waits), "ratio")
    res.metric("curation.serial_rollouts_per_s", rollouts / statistics.median(serial), "1/s")
    res.metric("trace.overhead_share", statistics.median(traced_s) / statistics.median(untraced) - 1.0, "ratio")
    res.line(f"jobs={JOBS}: {rollouts / statistics.median(untraced):.1f} rollouts/s untraced; "
             f"jobs=1: {rollouts / statistics.median(serial):.1f} rollouts/s; live threads peak {rec.threads_peak}")
    finish_trace(ctx, rec, res)
    return res


# --- agent-skewed and agent-local ------------------------------------------------------


@dataclass
class AgentInputs:
    catalog: Path
    queries: Path
    planner: Path
    synth: Path
    records: list[inputs.Record]
    answers: list[str]
    latency: dict[str, float]
    critical: list[float]   # seconds, from the benchmark's own latency table


def agent_inputs(ctx: Ctx, name: str, counts: dict[str, int], skewed: bool) -> AgentInputs:
    rng = random.Random(f"{name}:{ctx.seed}")
    catalog = ctx.work / "catalog.json"
    catalog.write_text(json.dumps(inputs.catalog_doc()), encoding="utf-8")
    library = load_library(catalog)
    tool_ids = library.ids()
    records = inputs.make_records(rng, tool_ids, counts, name[:2])
    latency = inputs.latency_table(rng, tool_ids) if skewed else {}
    planner, synth, answers = {}, {}, []
    for record in records:
        specs = library.subset(list(record.candidates))
        plan = json.dumps(inputs.plan_doc(record.plan, args=inputs.agent_args(record.plan)))
        planner[fixture_key(replan_prompt(record.query, specs))] = plan
        leaves = inputs.expected_leaves(record.plan)
        answer = f"answer {record.rid} " + hashlib.sha256(
            json.dumps(leaves, sort_keys=True).encode()).hexdigest()[:16]
        synth[fixture_key(synthesis_prompt(record.query, leaves))] = answer
        answers.append(answer)
    paths = AgentInputs(catalog, ctx.work / "queries.jsonl", ctx.work / "planner.json",
                        ctx.work / "synth.json", records, answers, latency,
                        [r.plan.critical_path(latency) for r in records])
    inputs.write_jsonl(paths.queries, (r.to_doc() for r in records))
    inputs.write_json(paths.planner, {"entries": planner})
    inputs.write_json(paths.synth, {"entries": synth})
    return paths


def agent_properties(ai: AgentInputs, res: Result) -> None:
    props = inputs.plan_properties([r.plan for r in ai.records])
    bands = Counter(r.difficulty for r in ai.records)
    res.line(f"input: {len(ai.records)} distinct queries {dict(sorted(bands.items()))}, closed loop, 1 client")
    res.line("input: plans " + json.dumps({k: round(v, 3) for k, v in props.items()}))
    if ai.latency:
        ms = [v * 1e3 for v in ai.latency.values()]
        res.line(f"input: tool latency ms {quantiles(ms)} (Pareto alpha {inputs.PARETO_ALPHA}, "
                 f"cap {inputs.LATENCY_CAP_S * 1e3:.0f} ms)")
        res.line(f"input: critical path ms {quantiles([c * 1e3 for c in ai.critical])}, "
                 f"summed {sum(ai.critical):.3f} s")


def agent_queries(ai: AgentInputs, count: int | None, deadline: float | None, res: Result,
                  planner, synth, registry, library, rec: Recorder | None = None, seed: int = 0,
                  speed: HostSpeed | None = None):
    """Closed loop over the query set in a seeded order.

    Returns per-query samples ``[index, latency, trace, raw latency]`` (trace is
    None for a query that raised); with ``speed``, latencies are scaled per
    window of SPEED_WINDOW queries.
    """
    rng = random.Random(f"order:{seed}")
    order = list(range(len(ai.records)))
    rng.shuffle(order)
    specs = [library.subset(list(r.candidates)) for r in ai.records]
    samples: list[list] = []
    pending: list[list] = []
    answers = set()
    n = 0

    def rescale() -> None:
        factor = speed.factor()
        for sample in pending:
            sample[1] *= factor
        pending.clear()

    if speed:
        speed.mark()
    while (count is not None and n < count) or (deadline is not None and (not n or time.perf_counter() < deadline)):
        i = order[n % len(order)]
        record = ai.records[i]
        span = rec.span("agent.query", trace=f"q{n}") if rec else contextlib.nullcontext()
        answer = trace = None
        start = time.perf_counter()
        try:
            with span:
                answer, trace = run_end_to_end(record.query, specs[i], planner, registry, synth)
        except Exception as exc:   # a failed query is counted with its latency, and the loop goes on
            res.op(False, f"query {record.rid}: {type(exc).__name__}: {exc}")
        else:
            ok = (answer == ai.answers[i] and trace.inference_steps == 2
                  and all(node.status == "ok" for node in trace.nodes.values()))
            res.op(ok, f"query {record.rid}: answer or trace differs from the oracle")
            answers.add(answer)
        latency = time.perf_counter() - start
        samples.append([i, latency, trace, latency])
        n += 1
        if speed:
            pending.append(samples[-1])
            if len(pending) >= SPEED_WINDOW:
                rescale()
    if speed and pending:
        rescale()
    return samples, hashlib.sha256("\n".join(sorted(answers)).encode()).hexdigest()


def agent(ctx: Ctx, traced: bool, name: str, skewed: bool) -> Result:
    res = Result()
    if skewed:
        q = ctx.sizes.skewed_queries
        counts = {"Medium": q - q // 2, "Hard": q // 2}
    else:
        q = ctx.sizes.local_queries
        counts = {"Easy": q // 3, "Medium": q // 3, "Hard": q - 2 * (q // 3)}
    ai = agent_inputs(ctx, name, counts, skewed)
    setup = measure_setup(ctx, {"catalog": str(ai.catalog), "records": [str(ai.queries)],
                                "cassettes": [str(ai.planner), str(ai.synth)]}, ctx.sizes.setup_repeats, res)
    agent_properties(ai, res)
    library = load_library(ai.catalog)
    planner, synth = FixtureClient(ai.planner), FixtureClient(ai.synth)
    registry = MockRegistry(latency=ai.latency) if skewed else MockRegistry()

    # Tool sleeps dominate agent-skewed and do not slow down with the host, so
    # only agent-local latencies are scaled to the reference host speed.
    speed = None if skewed else ctx.speed
    if not traced:
        deadline = time.perf_counter() + ctx.seconds
        samples, digest = agent_queries(ai, None, deadline, res, planner, synth, registry, library,
                                        seed=ctx.seed, speed=speed)
        latencies = [s[1] for s in samples]
        busy = sum(latencies)
        tools = sum(len(ai.records[s[0]].plan.tools) for s in samples if s[2] is not None)
        res.metric("setup_s", setup["total_s"], "s")
        res.metric("throughput_per_s", len(samples) / busy, "1/s")
        res.metric("aux_throughput_per_s", tools / busy, "1/s")
        res.metric("latency_p50_ms", statistics.median(latencies) * 1e3, "ms")
        pct, worst = tail(latencies)
        res.line(f"queries_per_s = {len(samples) / busy:.2f} 1/s (higher is better; {len(samples)} queries)")
        res.line(f"query_p50_ms = {statistics.median(latencies) * 1e3:.3f} ms (lower is better; n={len(samples)})")
        res.line(f"query_tail_ms = {worst * 1e3:.3f} ms at p{pct:g} (lower is better; n={len(samples)})")
        if skewed:
            stretch = [t.wall_time / ai.critical[i] for i, _, t, _ in samples if t is not None]
            if stretch:
                res.line(f"stretch_p50 = {statistics.median(stretch):.4f} (execute wall / critical path; "
                         f"lower is better; n={len(stretch)})")
        else:
            raw = [s[3] for s in samples]
            res.line(f"raw (unscaled): {len(raw) / sum(raw):.2f} queries/s, "
                     f"p50 {statistics.median(raw) * 1e3:.3f} ms")
            res.line(ctx.speed.summary())
        res.outputs["answers"] = digest
        return res

    count = ctx.sizes.traced_skewed if skewed else ctx.sizes.traced_local
    plain, digest = agent_queries(ai, count, None, res, planner, synth, registry, library,
                                  seed=ctx.seed, speed=speed)
    rec = Recorder()
    with rec.patched(tracing_replacements(rec)):
        samples, traced_digest = agent_queries(
            ai, count, None, res, TracedClient(planner, rec), TracedClient(synth, rec),
            TracedRegistry(registry, rec), library, rec, seed=ctx.seed, speed=speed)
    res.op(digest == traced_digest, "traced answers differ from untraced answers")
    res.outputs["answers"] = traced_digest
    setup_layers(res, setup)
    by_trace: dict[str, list] = defaultdict(list)
    for s in rec.spans:
        by_trace[s.trace].append(s)
    overhead, idle, busy, threads = [], [], [], []
    for n, (i, _, trace, _) in enumerate(samples):
        if trace is None:
            continue
        spans = by_trace[f"q{n}"]
        run = next(s for s in spans if s.name == "executor.execute")
        tools = [s for s in spans if s.name == "executor.tool"]
        overhead.append(run.dur - covered(((s.start, s.end) for s in tools), run.start, run.end))
        idle.append(run.dur - ai.critical[i])
        busy.append(sum(s.dur for s in tools))
        threads.append(len({s.thread for s in tools}))
    res.metric("executor.preflight_us", mean_dur(spans_named(rec, "executor.preflight"), 1e6), "us")
    res.metric("executor.overhead_us", statistics.median(overhead) * 1e6, "us")
    res.metric("executor.threads_per_query", statistics.fmean(threads), "count")
    res.metric("executor.idle_ms", statistics.median(idle) * 1e3, "ms")
    res.metric("executor.tool_calls", len(spans_named(rec, "executor.tool")), "count")
    res.metric("executor.tool_busy_ms", statistics.median(busy) * 1e3, "ms")
    res.metric("executor.waves", statistics.fmean(s[2].waves for s in samples if s[2] is not None), "count")
    untraced_s = sum(s[1] for s in plain)
    res.metric("trace.overhead_share", sum(s[1] for s in samples) / untraced_s - 1.0, "ratio")
    finish_trace(ctx, rec, res)
    return res


def agent_skewed(ctx: Ctx, traced: bool) -> Result:
    return agent(ctx, traced, "agent-skewed", skewed=True)


def agent_local(ctx: Ctx, traced: bool) -> Result:
    return agent(ctx, traced, "agent-local", skewed=False)


# --- dataset-eval ---------------------------------------------------------------------


@dataclass
class EvalInputs:
    dataset: Path
    predictions: Path
    labels: dict[str, str]          # planted prediction label per record id
    difficulty: dict[str, str]      # difficulty per record id
    counts: dict[str, int]
    dataset_bytes: int

    def planted(self, ids=None) -> dict[str, Counter]:
        out: dict[str, Counter] = defaultdict(Counter)
        for rid, label in self.labels.items():
            if ids is None or rid in ids:
                out[self.difficulty[rid]][label] += 1
        return dict(out)


def band_counts(total: int) -> dict[str, int]:
    third = total // 3
    return {"Easy": third, "Medium": third, "Hard": total - 2 * third}


def eval_inputs(ctx: Ctx) -> EvalInputs:
    rng = random.Random(f"dataset-eval:{ctx.seed}")
    tool_ids = [t["id"] for t in inputs.catalog_doc()]
    counts = band_counts(ctx.sizes.eval_records)
    records = inputs.make_records(rng, tool_ids, counts, "de")
    lines, labels = inputs.make_predictions(rng, records)
    dataset, predictions = ctx.work / "dataset.jsonl", ctx.work / "predictions.jsonl"
    size = inputs.write_jsonl(dataset, (r.to_doc() for r in records))
    predictions.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return EvalInputs(dataset, predictions, labels, {r.rid: r.difficulty for r in records}, counts, size)


def gen_path(ctx: Ctx, tag: str) -> Path:
    return ctx.work / f"gen-{tag}.jsonl"


def gen_once(ctx: Ctx, res: Result, counts: dict[str, int], tag: str, span=None) -> tuple[float, str]:
    out = gen_path(ctx, tag)
    spec = ",".join(f"{d}={n}" for d, n in counts.items())
    code, seconds = run_cli(["gen", "--offline", "--counts", spec, "--seed", str(ctx.seed), "--out", str(out)],
                            span)
    try:
        stats = json.loads((ctx.work / f"gen-{tag}.jsonl.stats.json").read_text(encoding="utf-8"))
        bands = Counter(json.loads(line)["difficulty"] for line in out.read_text(encoding="utf-8").splitlines())
        ok = code == 0 and dict(bands) == counts and stats["generated"] == counts
        digest = sha(out)
    except (OSError, ValueError, KeyError) as exc:
        ok, digest = False, f"unreadable output: {exc}"
    res.op(ok, f"gen ({tag}): exit {code}; band counts differ from {counts}")
    return seconds, digest


def eval_once(ctx: Ctx, ei: EvalInputs, res: Result, tag: str, dataset: Path | None = None,
              predictions: Path | None = None, ids: set[str] | None = None, span=None) -> tuple[float, str]:
    out = ctx.work / f"eval-{tag}.json"
    code, seconds = run_cli(["eval", "--predictions", str(predictions or ei.predictions),
                             "--dataset", str(dataset or ei.dataset), "--out", str(out)], span)
    planted = ei.planted(ids)
    expect = dict(planted)
    expect["Overall"] = sum(planted.values(), Counter())
    try:
        doc = json.loads(out.read_text(encoding="utf-8"))
        ok = code == 0
        for group, labels in expect.items():
            got = doc["overall"] if group == "Overall" else doc["groups"].get(group, {})
            n = sum(labels.values())
            ok = ok and got.get("count") == n and got.get("failures") == labels["unparseable"] + labels["missing"]
            ok = ok and abs(got.get("exact_match", -1.0) - labels["exact"] / n) <= 1e-9
        digest = sha(out)
    except (OSError, ValueError, KeyError) as exc:
        ok, digest = False, f"unreadable output: {exc}"
    res.op(ok, f"eval ({tag}): exit {code}; failures or exact_match differ from the planted predictions")
    return seconds, digest


def _subset(source: Path, target: Path, ids: set[str]) -> None:
    lines = source.read_text(encoding="utf-8").splitlines()
    target.write_text("".join(line + "\n" for line in lines if json.loads(line)["id"] in ids), encoding="utf-8")


def _band_lines(path: Path) -> dict[str, list[str]]:
    out: dict[str, list[str]] = defaultdict(list)
    for line in path.read_text(encoding="utf-8").splitlines():
        out[json.loads(line)["difficulty"]].append(line)
    return out


def check_gen_prefix(res: Result, small: Path, full: Path) -> None:
    """A smaller gen of the same seed must equal the head of every band of the full one."""
    try:
        head, whole = _band_lines(small), _band_lines(full)
        ok = all(whole[band][: len(lines)] == lines for band, lines in head.items())
    except (OSError, ValueError, KeyError):
        ok = False
    res.op(ok, "gen output of one seed differs between sizes")


def dataset_eval(ctx: Ctx, traced: bool) -> Result:
    res = Result()
    ei = eval_inputs(ctx)
    setup = measure_setup(ctx, {"records": [str(ei.dataset)]}, ctx.sizes.eval_setup_repeats, res)
    n = sum(ei.counts.values())
    labels = Counter(ei.labels.values())
    res.line(f"input: dataset {n} records {ei.counts}, {ei.dataset_bytes} bytes; predictions "
             f"{ei.predictions.stat().st_size} bytes, planted " + json.dumps(dict(sorted(labels.items()))))
    small_counts = band_counts(max(3, n // 10))

    if not traced:
        gen_s, eval_s, raw_gen, raw_eval, gens, evals = [], [], [], [], set(), set()
        deadline = time.perf_counter() + ctx.seconds
        while not eval_s or time.perf_counter() < deadline:
            (seconds, digest), factor = ctx.speed.around(gen_once, ctx, res, ei.counts, "full")
            raw_gen.append(seconds)
            gen_s.append(seconds * factor)
            gens.add(digest)
            (seconds, digest), factor = ctx.speed.around(eval_once, ctx, ei, res, "full")
            raw_eval.append(seconds)
            eval_s.append(seconds * factor)
            evals.add(digest)
        res.op(len(gens) == 1 and len(evals) == 1, "gen or eval output differs between runs of one seed")
        gen_once(ctx, res, small_counts, "small")
        check_gen_prefix(res, gen_path(ctx, "small"), gen_path(ctx, "full"))
        res.metric("setup_s", setup["total_s"], "s")
        res.metric("throughput_per_s", n / statistics.median(eval_s), "1/s")
        res.metric("aux_throughput_per_s", n / statistics.median(gen_s), "1/s")
        res.metric("latency_p50_ms", statistics.median(eval_s) * 1e3, "ms")
        res.line(f"eval_records_per_s = {n / statistics.median(eval_s):.1f} 1/s "
                 f"(higher is better; median of {len(eval_s)} `dagplan eval` runs on {n} records)")
        res.line(f"gen_records_per_s = {n / statistics.median(gen_s):.1f} 1/s "
                 f"(higher is better; median of {len(gen_s)} `dagplan gen --offline` runs of {n} records)")
        res.line(f"raw (unscaled): eval {n / statistics.median(raw_eval):.1f} records/s, "
                 f"gen {n / statistics.median(raw_gen):.1f} records/s")
        res.line("samples (s, scaled/raw): eval " + ", ".join(f"{a:.3f}/{b:.3f}" for a, b in zip(eval_s, raw_eval))
                 + "; gen " + ", ".join(f"{a:.3f}/{b:.3f}" for a, b in zip(gen_s, raw_gen)))
        res.line(ctx.speed.summary())
        res.outputs["gen"] = gens.pop()
        res.outputs["eval"] = evals.pop()
        return res

    (untraced_s, untraced_digest), factor = ctx.speed.around(eval_once, ctx, ei, res, "untraced")
    untraced_s *= factor
    (untraced_gen_s, untraced_gen_digest), factor = ctx.speed.around(gen_once, ctx, res, ei.counts, "untraced")
    untraced_gen_s *= factor
    # The small scale point: the head of every band, with its predictions.
    small_ids = {rid for rid, band in ei.difficulty.items() if int(rid.rsplit("-", 1)[1]) < small_counts[band]}
    small_dataset, small_predictions = ctx.work / "dataset-small.jsonl", ctx.work / "predictions-small.jsonl"
    _subset(ei.dataset, small_dataset, small_ids)
    _subset(ei.predictions, small_predictions, small_ids)

    rec = Recorder()
    with rec.patched(tracing_replacements(rec)):
        for scale, counts in (("small", small_counts), ("full", ei.counts)):
            _, traced_gen_digest = gen_once(ctx, res, counts, f"traced-{scale}",
                                            span=rec.span("cli.gen", trace=f"gen-{scale}"))
            eval_span = rec.span("cli.eval", trace=f"eval-{scale}")
            if scale == "small":
                eval_once(ctx, ei, res, "traced-small", small_dataset, small_predictions, small_ids, eval_span)
            else:
                (traced_s, traced_digest), factor = ctx.speed.around(
                    eval_once, ctx, ei, res, "traced-full", span=eval_span)
                traced_s *= factor
    res.op(traced_digest == untraced_digest and traced_gen_digest == untraced_gen_digest,
           "traced gen or eval output differs from untraced output")
    res.outputs["gen"] = untraced_gen_digest
    res.outputs["eval"] = traced_digest
    setup_layers(res, setup)
    res.metric("catalog.load_ms", mean_dur(spans_named(rec, "catalog.synth"), 1e3), "ms")
    children = children_of(rec.spans)
    for scale, suffix in (("small", ".small"), ("full", "")):
        size = sum(small_counts.values()) if scale == "small" else n
        gen_run = spans_named(rec, "cli.gen", f"gen-{scale}")[0]
        eval_run = spans_named(rec, "cli.eval", f"eval-{scale}")[0]
        loads = [s for s in spans_named(rec, "pipeline.load", f"eval-{scale}")]
        res.metric(f"pipeline.gen_us_per_record{suffix}", gen_run.dur / size * 1e6, "us")
        res.metric(f"pipeline.load_us_per_record{suffix}", sum(s.dur for s in loads) / size * 1e6, "us")
        # cmd_eval's own time: the CLI span minus load, parse, score and summarize spans.
        # It holds the per-record list building and the predictions file read.
        res.metric(f"cli.eval_aggregate_ms{suffix}", self_time(eval_run, children) * 1e3, "ms")
    build = spans_named(rec, "pipeline.build", "gen-full")[0]
    save = spans_named(rec, "pipeline.save", "gen-full")[0]
    stats = json.loads((ctx.work / "gen-traced-full.jsonl.stats.json").read_text(encoding="utf-8"))
    res.metric("pipeline.build_records_per_s", n / build.dur, "1/s")
    res.metric("pipeline.attempts_per_record", stats["attempts"] / n, "ratio")
    res.metric("pipeline.save_us_per_record", save.dur / n * 1e6, "us")
    res.metric("metrics.score_pair_us", mean_dur(spans_named(rec, "metrics.score_pair", "eval-full"), 1e6), "us")
    res.metric("metrics.summarize_ms", mean_dur(spans_named(rec, "metrics.summarize", "eval-full"), 1e3), "ms")
    res.metric("trace.overhead_share", traced_s / untraced_s - 1.0, "ratio")
    res.line(f"untraced: eval {n / untraced_s:.1f} records/s, gen {n / untraced_gen_s:.1f} records/s")
    finish_trace(ctx, rec, res)
    return res


WORKLOADS: dict[str, Callable[[Ctx, bool], Result]] = {
    "curate-replay": curate_replay,
    "agent-skewed": agent_skewed,
    "agent-local": agent_local,
    "dataset-eval": dataset_eval,
}
