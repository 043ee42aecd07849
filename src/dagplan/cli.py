"""Command-line entry point wiring the library into reproducible workflows.

Subcommands: validate, score, eval, gen, curate, exec, run, report.

Exit codes are a stable scripting contract: 0 success, 1 domain rejection
(invalid plan, failed filter, failed nodes), 2 usage or IO error.  Every
command that writes a primary output also writes a ``<output>.manifest.json``
recording its config (every parsed option but the output paths, with resolved
values in place of raw ones), the config's hash, the seed, and tool versions.
Primary outputs are byte-reproducible for identical config/seed/fixtures, bar trace
times and which nodes a ``fail_fast`` run of many jobs skips (a thread race).
Manifests carry the only timestamp.

Every command runs with the cycle collector paused, and ``main`` restores it
after; library calls keep the collector as their caller left it.  No command
leaves cyclic garbage that grows with its input or its failures (tests pin
this), so a collection would only walk every record held and free next to
nothing.  The pause is process-wide: a host that runs ``main`` in a thread sees
the collector paused for the length of the command.

Client settings resolve as: CLI flag > environment variable (DAGPLAN_BASE_URL,
DAGPLAN_MODEL; the secret always comes from the environment, DAGPLAN_API_KEY
by default) > config file (--client-config JSON) > built-in default.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import sys
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from . import __version__
from .catalog import ToolLibrary, load_library, synth_library
from .clients import (ClientError, CompletionClient, FixtureClient, HttpCompletionClient, valid_timeout,
                      valid_url)
from .curation import curate, split_train_test
from .executor import (
    HttpRegistry,
    MockRegistry,
    PlanRejectedError,
    ToolRegistry,
    execute,
    run_end_to_end,
    trace_to_dot,
)
# score_pair and summarize stay bound for perfbench's traced runs.
from .metrics import METRIC_FIELDS, evaluate_groups, score_pair, summarize  # noqa: F401
from .pipeline import (
    DIFFICULTIES,
    DifficultyConfig,
    build_dataset,
    iter_records,
    load_records,
    save_records,
)
from .plan import (FormatError, PlanSyntaxError, _field, decode_json, parse_plan, read_config,
                   read_lines, read_text, to_dot, validate_text)
from .reward import score_plan


class UsageError(Exception):
    """A command cannot act on the arguments it was given; ``main`` exits 2."""


def _err(message: str) -> None:
    print(f"dagplan: {message}", file=sys.stderr)


def _write_json(path: str | Path, doc: Any) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# Parsed options that are not config: the dispatch and the paths a command writes
# to, so two runs that differ only in where they write hash the same.
_NOT_CONFIG = ("func", "command", "out", "trace_out", "dot", "train_out", "test_out")


def _write_manifest(out_path: str | Path, args: argparse.Namespace, **resolved: Any) -> None:
    """Write ``<out_path>.manifest.json``; its config is every option in ``args``
    but ``_NOT_CONFIG``, with each ``resolved`` value replacing its raw option."""
    config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    config.update(resolved)
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    manifest = {
        "subcommand": args.command,
        "config": config,
        "config_hash": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "seed": config.get("seed"),
        "versions": {"dagplan": __version__, "python": sys.version.split()[0]},
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    _write_json(str(out_path) + ".manifest.json", manifest)


def _client_config(doc: Any) -> dict[str, Any]:
    """The settings a client config document holds; FormatError naming a field of the wrong kind."""
    if not isinstance(doc, dict):
        raise FormatError("top-level value is not an object")
    kinds = {"base_url": (valid_url, "a string starting http:// or https://"), "model": str,
             "api_key_env": str, "timeout": (valid_timeout, "a number of seconds above 0")}
    return {key: _field(doc, key, kind) for key, kind in kinds.items() if key in doc}


def _resolve_client(args: argparse.Namespace) -> CompletionClient | None:
    if args.offline:
        return None
    if args.fixture:
        return FixtureClient(args.fixture)
    file_cfg = read_config(args.client_config, _client_config) if args.client_config else {}
    # The resolved settings go back onto args, so the manifest records what was used.
    args.base_url = args.base_url or os.environ.get("DAGPLAN_BASE_URL") or file_cfg.get("base_url")
    if not args.base_url:
        return None
    args.model = args.model or os.environ.get("DAGPLAN_MODEL") or file_cfg.get("model") or "default"
    settings = {k: file_cfg[k] for k in ("api_key_env", "timeout") if k in file_cfg}
    return HttpCompletionClient(args.base_url, args.model, **settings)


def _resolve_library(args: argparse.Namespace) -> ToolLibrary:
    if args.library:
        return load_library(args.library)
    return synth_library(args.synth_tools, args.seed)


def _resolve_registry(args: argparse.Namespace) -> ToolRegistry:
    if args.registry:
        return HttpRegistry.from_file(args.registry)
    fail = tuple(t for t in args.fail.split(",") if t)
    return MockRegistry(latency=args.latency, fail=fail)


def _parse_counts(spec: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, value = part.partition("=")
        name = name.strip().capitalize()
        if name not in DIFFICULTIES:
            raise UsageError(f"unknown difficulty {name!r} in --counts")
        try:
            counts[name] = int(value)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if not counts:
        raise UsageError("--counts is empty")
    return counts


# --- validate ----------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    report = validate_text(read_text(args.plan), self_loops=args.self_loop)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    if not report.syntax_ok:
        if not args.json:
            print(f"syntax error: {report.reason}")
        return 2
    if args.dot:
        Path(args.dot).write_text(to_dot(report.graph), encoding="utf-8")
    if not args.json:
        if report.first_cycle:
            print("cycle: " + " -> ".join(report.first_cycle))
        if not report.is_connected:
            isolated = ", ".join(report.isolated_nodes) or "none isolated, multiple components"
            print(f"disconnected ({isolated})")
        if report.fully_valid:
            print("valid")
    return 0 if report.fully_valid else 1


# --- score ---------------------------------------------------------------


def _plan_line(line: str) -> tuple[Any, Any]:
    """(id, plan) of a line of a JSONL plan file, decoded once.

    An object's "candidate", or a dataset record's "gold_plan", is the plan,
    with the object's "id".  Any other line is its own plan, with no id: its
    document, or the raw line when it is not JSON or decodes to a string, so
    ``parse_plan`` reads it as text.
    """
    try:
        doc = decode_json(line)
    except FormatError:
        doc = line
    if isinstance(doc, dict) and "candidate" in doc:
        return doc.get("id"), doc["candidate"]
    if isinstance(doc, dict) and "gold_plan" in doc:
        return doc.get("id"), doc["gold_plan"]
    return None, line if isinstance(doc, str) else doc


def _gold_line(line: str) -> tuple[Any, Any]:
    """(id, parsed gold) of a golds line; FormatError with the reason it is not a plan."""
    gold_id, plan = _plan_line(line)
    try:
        return gold_id, parse_plan(plan)
    except PlanSyntaxError as exc:
        raise FormatError(exc.reason) from None


def cmd_score(args: argparse.Namespace) -> int:
    candidates = list(read_lines(args.candidates, _plan_line))
    golds = list(read_lines(args.golds, _gold_line))
    if len(candidates) != len(golds):
        raise UsageError(f"{len(candidates)} candidates vs {len(golds)} golds; counts must match")
    rows = []
    for (cand_id, candidate), (gold_id, gold) in zip(candidates, golds):
        breakdown = score_plan(candidate, gold, self_loops=args.self_loop)
        rows.append({"id": cand_id or gold_id, **breakdown.to_dict()})
    summary = {
        "count": len(rows),
        "branches": dict(sorted(Counter(row["branch"] for row in rows).items())),
        "mean_value": (sum(r["value"] for r in rows) / len(rows)) if rows else 0.0,
    }
    out_lines = "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)
    if args.out:
        Path(args.out).write_text(out_lines, encoding="utf-8")
        _write_json(str(args.out) + ".summary.json", summary)
        _write_manifest(args.out, args)
    else:
        sys.stdout.write(out_lines)
    print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    return 0


# --- eval ---------------------------------------------------------------


def _print_metrics_table(doc: dict[str, Any]) -> None:
    """Print an eval document's per-group rows, then its overall row."""
    print(" ".join([f"{'group':<10}", f"{'n':>5}", f"{'fail':>5}"]
                   + [f"{c:>8}" for c in METRIC_FIELDS]))
    for name, group in {**doc["groups"], "Overall": doc.get("overall", {})}.items():
        if not group:
            continue
        cells = [f"{name:<10}", f"{group.get('count', 0):>5}", f"{group.get('failures', 0):>5}"]
        cells += [f"{group.get(c, 0.0):>8.3f}" for c in METRIC_FIELDS]
        print(" ".join(cells))


def _prediction_line(line: str) -> tuple[str, Any]:
    """(id, candidate) of a predictions object; a dataset record's "gold_plan" serves as its candidate."""
    doc = decode_json(line)
    if not isinstance(doc, dict):
        raise FormatError("prediction is not an object")
    key = "gold_plan" if "gold_plan" in doc and "candidate" not in doc else "candidate"
    return _field(doc, "id", str), _field(doc, key, lambda candidate: candidate)


def cmd_eval(args: argparse.Namespace) -> int:
    predictions = dict(read_lines(args.predictions, _prediction_line))

    # The dataset streams: each record is scored as it is read, then dropped.
    records = iter_records(args.dataset)
    groups, overall = evaluate_groups(
        ((r.difficulty, predictions.get(r.record_id), r.gold_plan) for r in records),
        self_loops=args.self_loop,
    )
    doc: dict[str, Any] = {
        # The three known difficulties first, then any other, in order of first appearance.
        "groups": {d: groups[d].to_dict() for d in (*DIFFICULTIES, *groups) if d in groups},
        "overall": overall.to_dict(),
    }
    _print_metrics_table(doc)
    if args.out:
        _write_json(args.out, doc)
        _write_manifest(args.out, args)
    return 0


# --- gen ---------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    counts = _parse_counts(args.counts)
    client = _resolve_client(args)
    if client is None and not args.offline:
        raise UsageError("no client configured; pass --offline for local generation, "
                         "--fixture for replay, or a base URL")
    library = _resolve_library(args)
    config = DifficultyConfig.from_file(args.difficulty_config) if args.difficulty_config else DifficultyConfig()
    records, stats = build_dataset(
        library, counts, args.seed,
        config=config, client=client, mode=args.mode,
        threshold=args.threshold, jobs=args.jobs,
    )
    out = Path(args.out)
    append = args.resume and out.exists()
    existing = {record.record_id for record in iter_records(out)} if append else set()
    new_records = [r for r in records if r.record_id not in existing]
    save_records(new_records, out, append=append)
    stats_doc = stats.to_dict()
    stats_doc["written"] = len(new_records)
    stats_doc["skipped_existing"] = len(records) - len(new_records)
    _write_json(str(out) + ".stats.json", stats_doc)
    _write_manifest(out, args, counts=counts, difficulty_config=config.to_dict())
    print(json.dumps(stats_doc, sort_keys=True))
    requested = sum(counts.values())
    return 0 if sum(stats.generated.values()) == requested else 1


# --- curate ---------------------------------------------------------------


def cmd_curate(args: argparse.Namespace) -> int:
    records = load_records(args.dataset)
    planner = _resolve_client(args)
    if planner is None:
        raise UsageError("curation needs a planner: pass --fixture or client settings")
    kept, stats = curate(
        records, planner, args.rollouts, (args.low, args.high),
        jobs=args.jobs,
    )
    save_records(kept, args.out)
    train, test = split_train_test(kept, args.seed)
    if args.train_out:
        save_records(train, args.train_out)
    if args.test_out:
        save_records(test, args.test_out)
    stats_doc = stats.to_dict()
    stats_doc["train_size"] = len(train)
    stats_doc["test_size"] = len(test)
    _write_json(str(args.out) + ".stats.json", stats_doc)
    _write_manifest(args.out, args)
    print(json.dumps(stats_doc, sort_keys=True))
    return 0


# --- exec ---------------------------------------------------------------


def cmd_exec(args: argparse.Namespace) -> int:
    try:
        plan = parse_plan(read_text(args.plan), self_loops=args.self_loop)
    except PlanSyntaxError as exc:
        raise FormatError(f"{args.plan}: cannot parse plan: {exc.reason}") from None
    trace = execute(plan, _resolve_registry(args), args.policy, max_workers=args.jobs)
    for nid, result in trace.nodes.items():
        line = f"wave {result.wave}  {result.status:<8} {nid} ({result.tool})"
        if result.error:
            line += f"  error: {result.error}"
        print(line)
    print(f"waves={trace.waves} wall_time={trace.wall_time:.3f}s policy={trace.policy}")
    if args.trace_out:
        _write_json(args.trace_out, trace.to_dict())
        _write_manifest(args.trace_out, args)
    if args.dot:
        Path(args.dot).write_text(trace_to_dot(plan, trace), encoding="utf-8")
    return 0 if trace.ok() else 1


# --- run ---------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    planner = _resolve_client(args)
    if planner is None:
        raise UsageError("run needs a planner: pass --fixture or client settings")
    library = _resolve_library(args)
    if args.candidates:
        candidate_ids = [t for t in args.candidates.split(",") if t]
    else:
        candidate_ids = library.ids()
    try:
        specs = library.subset(candidate_ids)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None
    registry = _resolve_registry(args)
    synthesizer = planner if args.synthesize else None
    try:
        answer, trace = run_end_to_end(
            args.query, specs, planner, registry, synthesizer,
            policy=args.policy, max_workers=args.jobs, self_loops=args.self_loop,
        )
    except PlanRejectedError as exc:
        _err(f"plan rejected ({exc.branch.value}): {exc.reason}")
        print(exc.raw_text, file=sys.stderr)
        return 1
    print(answer)
    print(
        f"inference_steps={trace.inference_steps} waves={trace.waves} "
        f"wall_time={trace.wall_time:.3f}s",
        file=sys.stderr,
    )
    if args.trace_out:
        _write_json(args.trace_out, trace.to_dict())
        _write_manifest(args.trace_out, args)
    return 0 if trace.ok() else 1


# --- report ---------------------------------------------------------------


_NUMBERS = (lambda v: isinstance(v, dict) and all(isinstance(n, (int, float)) for n in v.values()),
            "an object of numbers")


def _print_summary(doc: Any) -> None:
    """Print a summary document as the table its sections call for, or as JSON;
    FormatError naming a section or count of the wrong type, before anything is printed."""
    fields = doc if isinstance(doc, dict) else {}
    if "groups" in fields:
        groups = _field(doc, "groups", dict)
        for name in groups:
            _field(groups, name, _NUMBERS, where="groups.")
        _field(doc, "overall", _NUMBERS, {})
        _print_metrics_table(doc)
    elif "branches" in fields:
        branches = _field(doc, "branches", _NUMBERS)
        mean_value = _field(doc, "mean_value", (int, float), 0.0)
        print(f"{'branch':<14}{'count':>7}")
        for branch, count in branches.items():
            print(f"{branch:<14}{count:>7}")
        print(f"{'mean_value':<14}{mean_value:>7.3f}")
    elif "histogram" in fields:
        histogram = _field(doc, "histogram", _NUMBERS)
        kept, inputs, easy, hard, unprofiled = (_field(doc, name, (int, float), None) for name in (
            "kept", "input_count", "excluded_easy", "excluded_hard", "unprofiled"))
        print(f"kept {kept} / {inputs} (easy {easy}, hard {hard}, unprofiled {unprofiled})")
        print(f"{'solve rate':<12}{'tasks':>7}")
        for rate, count in histogram.items():
            print(f"{rate:<12}{count:>7}")
    elif "generated" in fields:
        requested = _field(doc, "requested", _NUMBERS, {})
        generated = _field(doc, "generated", _NUMBERS)
        print(f"{'difficulty':<12}{'requested':>10}{'generated':>10}")
        for difficulty in DIFFICULTIES:
            if difficulty in requested:
                print(f"{difficulty:<12}{requested[difficulty]:>10}"
                      f"{generated.get(difficulty, 0):>10}")
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))


def cmd_report(args: argparse.Namespace) -> int:
    read_config(args.summary, _print_summary)
    return 0


# --- parser ---------------------------------------------------------------


def _int_at_least(low: int):
    """argparse type: an int no smaller than ``low``; anything else is a usage error."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return convert


# Built once: parsing leaves it unchanged, and a parser per call leaves cycles to the collector.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dagplan", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"dagplan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Options that several subcommands share, each declared once and taken as parents.
    self_loop = argparse.ArgumentParser(add_help=False)
    self_loop.add_argument("--self-loop", choices=("reject", "cycle"), default="reject")
    library = argparse.ArgumentParser(add_help=False)
    library.add_argument("--library", help="tool catalog file (JSON array)")
    library.add_argument("--synth-tools", type=int, default=120,
                         help="size of the synthetic library when no catalog is given")
    client = argparse.ArgumentParser(add_help=False)
    client.add_argument("--offline", action="store_true", help="no model calls; local/offline modes")
    client.add_argument("--fixture", help="replay cassette file for model calls")
    client.add_argument("--client-config", help="JSON client config file")
    client.add_argument("--base-url", help="chat-completion endpoint base URL")
    client.add_argument("--model", help="model name sent to the endpoint")
    execution = argparse.ArgumentParser(add_help=False)
    execution.add_argument("--registry", help="HTTP registry bindings file; mock registry otherwise")
    execution.add_argument("--latency", type=float, default=0.0, help="mock tool latency (seconds)")
    execution.add_argument("--fail", default="", help="comma-separated tool ids the mock fails")
    execution.add_argument("--policy", choices=("fail_fast", "continue"), default="fail_fast")
    execution.add_argument("--jobs", type=_int_at_least(1), default=None,
                           help="cap on nodes in flight (default and maximum: 32; "
                                "wider plans queue)")
    execution.add_argument("--trace-out")

    p = sub.add_parser("validate", parents=[self_loop], help="structurally check one plan file")
    p.add_argument("plan")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--dot", help="write a DOT rendering here")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("score", parents=[self_loop],
                       help="hierarchical reward for candidate/gold streams")
    p.add_argument("--candidates", required=True)
    p.add_argument("--golds", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", parents=[self_loop], help="planning-quality metrics table")
    p.add_argument("--predictions", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gen", parents=[library, client], help="build a benchmark dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--counts", default="Easy=10,Medium=10,Hard=10",
                   help='per-difficulty record counts, e.g. "Easy=100,Hard=50"')
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--difficulty-config", help="JSON difficulty-band config file")
    p.add_argument("--mode", choices=("strict", "lenient"), default="strict")
    p.add_argument("--threshold", type=float, default=0.8)
    p.add_argument("--jobs", type=_int_at_least(1), default=1,
                   help="records built at once, in this thread and on the shared pool (at most 33)")
    p.add_argument("--resume", action="store_true",
                   help="append records whose ids are not already in --out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("curate", parents=[client], help="rollout-variance filter + train/test split")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rollouts", type=_int_at_least(2), default=5)
    p.add_argument("--low", type=float, default=0.0)
    p.add_argument("--high", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0, help="seed of the train/test split")
    p.add_argument("--train-out")
    p.add_argument("--test-out")
    p.add_argument("--jobs", type=_int_at_least(1), default=1,
                   help="tasks profiled at once: min(jobs x rollouts, 33) planner calls in flight, "
                        "in this thread and on the shared pool")
    p.set_defaults(func=cmd_curate)

    p = sub.add_parser("exec", parents=[execution, self_loop],
                       help="execute a plan file over a tool registry")
    p.add_argument("--plan", required=True)
    p.add_argument("--dot", help="write wave-annotated DOT here")
    p.set_defaults(func=cmd_exec)

    p = sub.add_parser("run", parents=[execution, self_loop, library, client],
                       help="query -> plan -> execute -> answer")
    p.add_argument("--query", required=True)
    p.add_argument("--candidates", help="comma-separated tool ids offered to the planner")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--synthesize", action="store_true",
                   help="compose the final answer with a synthesizer call")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="pretty-print a summary/stats document")
    p.add_argument("summary")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand, with the cycle collector paused; the one place a raised
    error becomes an exit code: usage, format and OS errors exit 2, other
    ValueErrors and ClientError 1."""
    args = build_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (OSError, FormatError, UsageError) as exc:
        _err(str(exc))
        return 2
    except (ValueError, ClientError) as exc:
        _err(str(exc))
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
