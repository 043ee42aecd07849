"""Command-line entry point wiring the library into reproducible workflows.

Subcommands: validate, score, eval, gen, curate, exec, run, report.

Exit codes are a stable scripting contract: 0 success, 1 domain rejection
(invalid plan, failed filter, failed nodes), 2 usage or IO error.  Every
command that writes a primary output also writes a ``<output>.manifest.json``
recording the resolved config, its hash, the seed, and tool versions; primary
outputs are byte-reproducible for identical config/seed/fixtures, manifests
carry the only timestamp.

Client settings resolve as: CLI flag > environment variable (DAGPLAN_BASE_URL,
DAGPLAN_MODEL; the secret always comes from the environment, DAGPLAN_API_KEY
by default) > config file (--client-config JSON) > built-in default.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterator

from . import __version__
from .catalog import ToolLibrary, load_library, synth_library
from .clients import ClientError, CompletionClient, FixtureClient, HttpCompletionClient
from .curation import curate, split_train_test
from .executor import (
    HttpRegistry,
    MockRegistry,
    PlanRejectedError,
    PreflightError,
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
    load_records,
    save_records,
)
from .plan import (FormatError, PlanSyntaxError, decode_json, parse_plan, plan_from_doc,
                   read_json, to_dot, validate_text)
from .reward import score_plan


def _err(message: str) -> None:
    print(f"dagplan: {message}", file=sys.stderr)


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write_json(path: str | Path, doc: Any) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_manifest(out_path: str | Path, subcommand: str, config: dict[str, Any]) -> None:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "config_hash": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "seed": config.get("seed"),
        "versions": {"dagplan": __version__, "python": sys.version.split()[0]},
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    _write_json(str(out_path) + ".manifest.json", manifest)


def _resolve_client(args: argparse.Namespace) -> CompletionClient | None:
    if getattr(args, "offline", False):
        return None
    if getattr(args, "fixture", None):
        return FixtureClient(args.fixture)
    file_cfg: dict[str, Any] = {}
    if getattr(args, "client_config", None):
        file_cfg = read_json(args.client_config)
        kinds = {"base_url": str, "model": str, "api_key_env": str, "timeout": (int, float)}
        if not isinstance(file_cfg, dict) or any(
                k in file_cfg and not isinstance(file_cfg[k], t) for k, t in kinds.items()):
            raise FormatError(f'{args.client_config}: not an object of strings and a numeric "timeout"')
    base_url = (
        getattr(args, "base_url", None)
        or os.environ.get("DAGPLAN_BASE_URL")
        or file_cfg.get("base_url")
    )
    if not base_url:
        return None
    model = (
        getattr(args, "model", None)
        or os.environ.get("DAGPLAN_MODEL")
        or file_cfg.get("model")
        or "default"
    )
    return HttpCompletionClient(
        base_url,
        model,
        api_key_env=file_cfg.get("api_key_env", "DAGPLAN_API_KEY"),
        timeout=float(file_cfg.get("timeout", 60.0)),
    )


def _resolve_library(args: argparse.Namespace) -> ToolLibrary:
    if getattr(args, "library", None):
        return load_library(args.library)
    return synth_library(args.synth_tools, args.seed)


def _resolve_registry(args: argparse.Namespace) -> ToolRegistry:
    if getattr(args, "registry", None):
        return HttpRegistry.from_file(args.registry)
    fail = tuple(t for t in (getattr(args, "fail", "") or "").split(",") if t)
    return MockRegistry(latency=getattr(args, "latency", 0.0), fail=fail)


def _parse_counts(spec: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, value = part.partition("=")
        name = name.strip().capitalize()
        if name not in DIFFICULTIES:
            raise ValueError(f"unknown difficulty {name!r} in --counts")
        counts[name] = int(value)
    if not counts:
        raise ValueError("--counts is empty")
    return counts


# --- validate ----------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    report = validate_text(_read_text(args.plan), self_loops=args.self_loop)
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


def _iter_plan_lines(path: str) -> Iterator[tuple[str | None, Any, str | None]]:
    """Yield (id, plan, text) per non-blank line of a JSONL plan file, decoded once.

    An object's "candidate", or a dataset record's "gold_plan", is the plan,
    with the object's "id" and no text.  Any other line is its own text, with no
    id and as plan its document, or the FormatError saying it is not JSON.
    """
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            try:
                doc = decode_json(line)
            except FormatError as exc:
                doc = FormatError(f"{path} line {number}: {exc}")
            if isinstance(doc, dict) and "candidate" in doc:
                yield doc.get("id"), doc["candidate"], None
            elif isinstance(doc, dict) and "gold_plan" in doc:
                yield doc.get("id"), doc["gold_plan"], None
            else:
                yield None, doc, line


def _candidate_texts(path: str) -> Iterator[tuple[str | None, str]]:
    """(id, text) per line: the line, a candidate string, or an encoded plan."""
    for cand_id, plan, text in _iter_plan_lines(path):
        if text is None:
            text = plan if isinstance(plan, str) else json.dumps(plan)
        yield cand_id, text


def cmd_score(args: argparse.Namespace) -> int:
    candidates = list(_candidate_texts(args.candidates))
    golds = list(_iter_plan_lines(args.golds))
    if len(candidates) != len(golds):
        _err(f"{len(candidates)} candidates vs {len(golds)} golds; counts must match")
        return 2
    rows = []
    histogram: Counter[str] = Counter()
    for (cand_id, text), (gold_id, plan, _) in zip(candidates, golds):
        if isinstance(plan, FormatError):
            raise plan
        breakdown = score_plan(text, plan_from_doc(plan), self_loops=args.self_loop)
        histogram[breakdown.branch.value] += 1
        row = {"id": cand_id or gold_id, **breakdown.to_dict()}
        rows.append(row)
    summary = {
        "count": len(rows),
        "branches": dict(sorted(histogram.items())),
        "mean_value": (sum(r["value"] for r in rows) / len(rows)) if rows else 0.0,
    }
    out_lines = "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)
    if args.out:
        Path(args.out).write_text(out_lines, encoding="utf-8")
        _write_json(str(args.out) + ".summary.json", summary)
        _write_manifest(args.out, "score", {"candidates": args.candidates, "golds": args.golds,
                                            "self_loop": args.self_loop, "seed": None})
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


def cmd_eval(args: argparse.Namespace) -> int:
    dataset = load_records(args.dataset)
    predictions: dict[str, str] = {}
    for pred_id, text in _candidate_texts(args.predictions):
        if pred_id is None:
            _err("eval predictions must be JSONL objects with an 'id' field")
            return 2
        if not isinstance(pred_id, str):
            raise FormatError(f'{args.predictions}: a prediction "id" is not a string')
        predictions[pred_id] = text

    groups, overall = evaluate_groups(
        ((r.difficulty, predictions.get(r.record_id), r.gold_plan) for r in dataset),
        self_loops=args.self_loop,
    )
    doc: dict[str, Any] = {
        "groups": {d: groups[d].to_dict() for d in DIFFICULTIES if d in groups},
        "overall": overall.to_dict(),
    }
    _print_metrics_table(doc)
    if args.out:
        _write_json(args.out, doc)
        _write_manifest(args.out, "eval", {"predictions": args.predictions,
                                           "dataset": args.dataset,
                                           "self_loop": args.self_loop, "seed": None})
    return 0


# --- gen ---------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        counts = _parse_counts(args.counts)
    except ValueError as exc:
        _err(str(exc))
        return 2
    client = _resolve_client(args)
    if client is None and not args.offline:
        _err("no client configured; pass --offline for local generation, "
             "--fixture for replay, or a base URL")
        return 2
    library = _resolve_library(args)
    config = DifficultyConfig.from_file(args.difficulty_config) if args.difficulty_config else DifficultyConfig()
    records, stats = build_dataset(
        library, counts, args.seed,
        config=config, client=client, mode=args.mode,
        threshold=args.threshold, jobs=args.jobs,
    )
    out = Path(args.out)
    existing: set[str] = set()
    if args.resume and out.exists():
        for record in load_records(out):
            existing.add(record.record_id)
        new_records = [r for r in records if r.record_id not in existing]
        save_records(new_records, out, append=True)
    else:
        new_records = records
        save_records(records, out)
    stats_doc = stats.to_dict()
    stats_doc["written"] = len(new_records)
    stats_doc["skipped_existing"] = len(records) - len(new_records)
    _write_json(str(out) + ".stats.json", stats_doc)
    _write_manifest(out, "gen", {
        "counts": counts, "seed": args.seed, "offline": args.offline,
        "mode": args.mode, "threshold": args.threshold,
        "library": args.library or f"synthetic:{args.synth_tools}",
        "difficulty_config": config.to_dict(), "jobs": args.jobs,
    })
    print(json.dumps(stats_doc, sort_keys=True))
    requested = sum(counts.values())
    return 0 if sum(stats.generated.values()) == requested else 1


# --- curate ---------------------------------------------------------------


def cmd_curate(args: argparse.Namespace) -> int:
    records = load_records(args.dataset)
    planner = _resolve_client(args)
    if planner is None:
        _err("curation needs a planner: pass --fixture or client settings")
        return 2
    kept, stats = curate(
        records, planner, args.rollouts, (args.low, args.high),
        jobs=args.jobs,
    )
    save_records(kept, args.out)
    train, test = split_train_test(kept, args.split_seed if args.split_seed is not None else args.seed)
    if args.train_out:
        save_records(train, args.train_out)
    if args.test_out:
        save_records(test, args.test_out)
    stats_doc = stats.to_dict()
    stats_doc["train_size"] = len(train)
    stats_doc["test_size"] = len(test)
    _write_json(str(args.out) + ".stats.json", stats_doc)
    _write_manifest(args.out, "curate", {
        "dataset": args.dataset, "rollouts": args.rollouts,
        "bounds": [args.low, args.high], "seed": args.seed,
        "split_seed": args.split_seed, "jobs": args.jobs,
    })
    print(json.dumps(stats_doc, sort_keys=True))
    return 0


# --- exec ---------------------------------------------------------------


def cmd_exec(args: argparse.Namespace) -> int:
    try:
        plan = parse_plan(_read_text(args.plan), self_loops=args.self_loop)
    except PlanSyntaxError as exc:
        _err(f"cannot parse plan: {exc.reason}")
        return 2
    registry = _resolve_registry(args)
    try:
        trace = execute(plan, registry, args.policy, max_workers=args.jobs)
    except PreflightError as exc:
        _err(str(exc))
        return 1
    for nid, result in trace.nodes.items():
        line = f"wave {result.wave}  {result.status:<8} {nid} ({result.tool})"
        if result.error:
            line += f"  error: {result.error}"
        print(line)
    print(f"waves={trace.waves} wall_time={trace.wall_time:.3f}s policy={trace.policy}")
    if args.trace_out:
        _write_json(args.trace_out, trace.to_dict())
        _write_manifest(args.trace_out, "exec", {"plan": args.plan, "policy": args.policy,
                                                 "latency": args.latency, "seed": None})
    if args.dot:
        Path(args.dot).write_text(trace_to_dot(plan, trace), encoding="utf-8")
    return 0 if trace.ok() else 1


# --- run ---------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    planner = _resolve_client(args)
    if planner is None:
        _err("run needs a planner: pass --fixture or client settings")
        return 2
    library = _resolve_library(args)
    if args.candidates:
        candidate_ids = [t for t in args.candidates.split(",") if t]
    else:
        candidate_ids = library.ids()
    try:
        specs = library.subset(candidate_ids)
    except KeyError as exc:
        _err(str(exc))
        return 2
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
    except (PreflightError, ClientError) as exc:
        _err(str(exc))
        return 1
    print(answer)
    print(
        f"inference_steps={trace.inference_steps} waves={trace.waves} "
        f"wall_time={trace.wall_time:.3f}s",
        file=sys.stderr,
    )
    if args.trace_out:
        _write_json(args.trace_out, trace.to_dict())
        _write_manifest(args.trace_out, "run", {"query": args.query, "policy": args.policy,
                                                "synthesize": args.synthesize, "seed": args.seed})
    return 0 if trace.ok() else 1


# --- report ---------------------------------------------------------------


def _numbers(value: Any, field: str) -> dict[str, Any]:
    """``value`` if it is an object of numbers; FormatError naming ``field`` otherwise."""
    if not isinstance(value, dict) or not all(isinstance(v, (int, float)) for v in value.values()):
        raise FormatError(f'field "{field}" is not an object of numbers')
    return value


def cmd_report(args: argparse.Namespace) -> int:
    doc = read_json(args.summary)
    fields = doc if isinstance(doc, dict) else {}
    if "groups" in fields:
        if not isinstance(doc["groups"], dict):
            raise FormatError('field "groups" is not an object')
        for name, group in doc["groups"].items():
            _numbers(group, f"groups.{name}")
        _numbers(doc.get("overall", {}), "overall")
        _print_metrics_table(doc)
    elif "branches" in fields:
        branches = _numbers(doc["branches"], "branches")
        mean_value = doc.get("mean_value", 0.0)
        if not isinstance(mean_value, (int, float)):
            raise FormatError('field "mean_value" is not a number')
        print(f"{'branch':<14}{'count':>7}")
        for branch, count in branches.items():
            print(f"{branch:<14}{count:>7}")
        print(f"{'mean_value':<14}{mean_value:>7.3f}")
    elif "histogram" in fields:
        histogram = _numbers(doc["histogram"], "histogram")
        print(f"kept {doc.get('kept')} / {doc.get('input_count')} "
              f"(easy {doc.get('excluded_easy')}, hard {doc.get('excluded_hard')}, "
              f"unprofiled {doc.get('unprofiled')})")
        print(f"{'solve rate':<12}{'tasks':>7}")
        for rate, count in histogram.items():
            print(f"{rate:<12}{count:>7}")
    elif "generated" in fields:
        requested = _numbers(doc.get("requested", {}), "requested")
        generated = _numbers(doc["generated"], "generated")
        print(f"{'difficulty':<12}{'requested':>10}{'generated':>10}")
        for difficulty in DIFFICULTIES:
            if difficulty in requested:
                print(f"{difficulty:<12}{requested[difficulty]:>10}"
                      f"{generated.get(difficulty, 0):>10}")
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


# --- parser ---------------------------------------------------------------


def _add_client_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--offline", action="store_true", help="no model calls; local/offline modes")
    p.add_argument("--fixture", help="replay cassette file for model calls")
    p.add_argument("--client-config", help="JSON client config file")
    p.add_argument("--base-url", help="chat-completion endpoint base URL")
    p.add_argument("--model", help="model name sent to the endpoint")


def _add_library_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--library", help="tool catalog file (JSON array)")
    p.add_argument("--synth-tools", type=int, default=120,
                   help="size of the synthetic library when no catalog is given")


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dagplan", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"dagplan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structurally check one plan file")
    p.add_argument("plan")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--dot", help="write a DOT rendering here")
    p.add_argument("--self-loop", choices=("reject", "cycle"), default="reject", dest="self_loop")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("score", help="hierarchical reward for candidate/gold streams")
    p.add_argument("--candidates", required=True)
    p.add_argument("--golds", required=True)
    p.add_argument("--out")
    p.add_argument("--self-loop", choices=("reject", "cycle"), default="reject", dest="self_loop")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="planning-quality metrics table")
    p.add_argument("--predictions", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out")
    p.add_argument("--self-loop", choices=("reject", "cycle"), default="reject", dest="self_loop")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gen", help="build a benchmark dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--counts", default="Easy=10,Medium=10,Hard=10",
                   help='per-difficulty record counts, e.g. "Easy=100,Hard=50"')
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--difficulty-config", help="JSON difficulty-band config file")
    p.add_argument("--mode", choices=("strict", "lenient"), default="strict")
    p.add_argument("--threshold", type=float, default=0.8)
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.add_argument("--resume", action="store_true",
                   help="append records whose ids are not already in --out")
    _add_library_options(p)
    _add_client_options(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("curate", help="rollout-variance filter + train/test split")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rollouts", type=_int_at_least(2), default=5)
    p.add_argument("--low", type=float, default=0.0)
    p.add_argument("--high", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split-seed", type=int, default=None)
    p.add_argument("--train-out")
    p.add_argument("--test-out")
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    _add_client_options(p)
    p.set_defaults(func=cmd_curate)

    p = sub.add_parser("exec", help="execute a plan file over a tool registry")
    p.add_argument("--plan", required=True)
    p.add_argument("--registry", help="HTTP registry bindings file; mock registry otherwise")
    p.add_argument("--latency", type=float, default=0.0, help="mock tool latency (seconds)")
    p.add_argument("--fail", default="", help="comma-separated tool ids the mock fails")
    p.add_argument("--policy", choices=("fail_fast", "continue"), default="fail_fast")
    p.add_argument("--jobs", type=_int_at_least(1), default=None,
                   help="cap on nodes in flight (default and maximum: 32)")
    p.add_argument("--trace-out")
    p.add_argument("--dot", help="write wave-annotated DOT here")
    p.add_argument("--self-loop", choices=("reject", "cycle"), default="reject", dest="self_loop")
    p.set_defaults(func=cmd_exec)

    p = sub.add_parser("run", help="query -> plan -> execute -> answer")
    p.add_argument("--query", required=True)
    p.add_argument("--candidates", help="comma-separated tool ids offered to the planner")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--registry")
    p.add_argument("--latency", type=float, default=0.0)
    p.add_argument("--fail", default="")
    p.add_argument("--policy", choices=("fail_fast", "continue"), default="fail_fast")
    p.add_argument("--jobs", type=_int_at_least(1), default=None)
    p.add_argument("--synthesize", action="store_true",
                   help="compose the final answer with a synthesizer call")
    p.add_argument("--trace-out")
    p.add_argument("--self-loop", choices=("reject", "cycle"), default="reject", dest="self_loop")
    _add_library_options(p)
    _add_client_options(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="pretty-print a summary/stats document")
    p.add_argument("summary")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, FormatError) as exc:
        _err(str(exc))
        return 2
    except (ValueError, ClientError) as exc:
        _err(str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
