"""Package-level properties: the import has no third-party dependencies, the
public API is the fixed list of names below, and the README states the limits
the code sets."""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import dagplan
from dagplan import executor, plan

def modules_loaded_by(module: str) -> set[str]:
    """The modules a fresh interpreter loads to import ``module``."""
    src = str(Path(dagplan.__file__).resolve().parent.parent)
    probe = (f"import json, sys\nbefore = set(sys.modules)\nimport {module}\n"
             "print(json.dumps(sorted(set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60).stdout
    return set(json.loads(out))


def scopes_of(match) -> set[tuple[str, str]]:
    """``(file, enclosing function or "<module>")`` of each AST node in
    ``src/dagplan`` that ``match`` accepts."""
    found = set()
    for path in sorted(Path(dagplan.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in filter(match, ast.walk(tree)):
            scope = node
            while scope in parents and not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = parents[scope]
            found.add((path.name, getattr(scope, "name", "<module>")))
    return found


def test_import_loads_only_the_standard_library():
    loaded = {name.partition(".")[0] for name in modules_loaded_by("dagplan")}
    foreign = sorted(loaded - set(sys.stdlib_module_names) - {"dagplan"})
    assert foreign == [], f"import dagplan loaded non-stdlib modules: {foreign}"


@pytest.mark.parametrize("module", ["dagplan", "dagplan.cli"])
def test_import_loads_no_http_stack(module):
    # Offline runs (replay, curation, eval, gen --offline) never speak HTTP, so
    # the HTTP stack loads at the first live request, not at import.
    http_stack = ["urllib.request", "urllib.error", "http.client", "email", "ssl", "socket"]
    assert sorted(set(http_stack) & modules_loaded_by(module)) == []


def test_only_http_request_imports_the_http_stack():
    # One owner: `clients.http_request` imports urllib.request and urllib.error
    # in its body, so they load at the first request and never at import.
    def imports_http_stack(node):
        names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                 else [f"{node.module}.{alias.name}" for alias in node.names]
                 if isinstance(node, ast.ImportFrom) and node.module else [])
        return any(name.startswith(("urllib.request", "urllib.error")) for name in names)

    assert scopes_of(imports_http_stack) == {("clients.py", "http_request")}


def test_only_the_field_checker_words_a_field_error():
    # One checker: `plan._field` is the one place a message names a config
    # field, so every config reader words a bad field the same way.
    def words_a_field_error(node):
        if isinstance(node, ast.JoinedStr) and node.values:
            node = node.values[0]
        return (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value.startswith(('field "', 'missing field "')))

    assert scopes_of(words_a_field_error) == {("plan.py", "_field")}


def test_only_the_jsonl_reader_words_a_line_location():
    # One reader: `plan.read_lines` is the one place that numbers the lines of a
    # JSONL file, so every line error starts `<path> line N: ` the same way.
    def words_a_line_location(node):
        return isinstance(node, ast.JoinedStr) and any(
            isinstance(value, ast.FormattedValue) and isinstance(after, ast.Constant)
            and str(after.value).startswith(" line ")
            for value, after in zip(node.values, node.values[1:]))

    assert scopes_of(words_a_line_location) == {("plan.py", "read_lines")}


def test_only_the_file_writer_opens_a_file_to_write():
    # One writer: `plan.write_lines` is the one place that opens a file to
    # write, so every output is replaced, not truncated in place, the same way.
    def writes_a_file(node):
        if not isinstance(node, ast.Call):
            return False
        name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
        if name in ("write_text", "write_bytes"):
            return True
        if name != "open":
            return False
        # open(path, mode) or Path(path).open(mode); a mode that is no literal may write.
        position = 1 if isinstance(node.func, ast.Name) else 0
        modes = node.args[position:position + 1] + [kw.value for kw in node.keywords if kw.arg == "mode"]
        literals = [n.value for mode in modes for n in ast.walk(mode)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str)]
        return any(set(text) & set("wax+") for text in literals) or len(literals) < len(modes)

    assert scopes_of(writes_a_file) == {("plan.py", "write_lines")}


# The public API, fixed by the ROADMAP: every name `dagplan/__init__.py` exports.
PUBLIC_NAMES = {
    "AuthorExhaustedError", "Band", "BandUnsatisfiableError", "BuildStats", "CONNECTIVITY_PENALTY",
    "CYCLE_PENALTY", "ClientError", "CompletionClient", "CurationStats", "CycleError", "DIFFICULTIES",
    "DatasetRecord", "DifficultyConfig", "DuplicateToolIdError", "EDGE_F1_SCALE", "EmptyResponseError",
    "ExecutionTrace", "FixtureClient", "GroupAdvantages", "HttpCompletionClient", "HttpRegistry",
    "InvalidGoldError", "MalformedCatalogError", "MetricsSummary", "MockRegistry", "NodeResult",
    "PERFECT_MATCH_BONUS", "PlanEdge", "PlanGraph", "PlanMetrics", "PlanNode", "PlanRejectedError",
    "PlanSyntaxError", "PreflightError", "Provenance", "REWARD_MAX", "REWARD_MIN", "RecordingClient",
    "ReplanOutcome", "RewardBranch", "RewardBreakdown", "RolloutProfile", "SYNTAX_PENALTY",
    "ScriptedClient", "ToolError", "ToolLibrary", "ToolParam", "ToolRegistry", "ToolSpec",
    "ValidationReport", "build_dataset", "check_connectivity", "count_waves", "curate", "detect_cycle",
    "edge_f1", "evaluate_set", "execute", "fixture_key", "generate_workflow", "group_advantages",
    "iter_records", "leaf_outputs", "load_library", "load_records", "parse_plan", "profile_task",
    "replan_and_filter", "reverse_engineer_query", "run_end_to_end", "save_cassette", "save_library",
    "save_records", "score_group", "score_pair", "score_plan", "serialize_library", "serialize_plan",
    "set_prf", "split_train_test", "summarize", "synth_library", "to_dot", "topo_order", "trace_to_dot",
    "validate_graph", "validate_text",
}


def test_public_api_is_the_fixed_list():
    exported = {name for name, value in vars(dagplan).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_NAMES


def test_traced_benchmark_rebinds_only_names_that_exist(monkeypatch):
    # perfbench's traced runs replace module attributes by name, so an internal
    # cleanup that drops one breaks the benchmark; its own tests run apart.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from dagbench.tracing import Recorder
    from dagbench.workloads import tracing_replacements

    for module, attr, _ in tracing_replacements(Recorder()):
        assert hasattr(module, attr), f"{module.__name__}.{attr}"


def test_every_unused_import_is_one_the_traced_benchmark_rebinds(monkeypatch):
    # No linter runs here, so this stands in for one: an import a module never
    # uses is dead, unless perfbench's traced runs rebind that name on it.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from dagbench.tracing import Recorder
    from dagbench.workloads import tracing_replacements

    rebound: dict[str, set[str]] = {}
    for module, attr, _ in tracing_replacements(Recorder()):
        rebound.setdefault(module.__name__, set()).add(attr)
    dead = {}
    for path in sorted(Path(dagplan.__file__).resolve().parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"]
        imported = {(alias.asname or alias.name).partition(".")[0] for node in imports for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = imported - used - rebound.get(f"dagplan.{path.stem}", set())
        if unused:
            dead[path.name] = sorted(unused)
    assert dead == {}, f"imported but never used: {dead}"


def test_readme_states_the_limits_the_code_sets():
    # The README quotes these constants in prose; a changed constant must change it too.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    text = " ".join(readme.split())
    number = r"(\d+(?:,\d{3})*)"
    stated = {
        rf"nest at most {number} containers deep": plan.MAX_ARGS_DEPTH,
        rf"at most {number} nodes \(`dagplan\.plan\.MAX_PLAN_NODES`\)": plan.MAX_PLAN_NODES,
        rf"at most {number} characters \(`dagplan\.plan\.MAX_PLAN_CHARS`": plan.MAX_PLAN_CHARS,
        rf"pool of {number}": executor.MAX_WORKERS,
        rf"`MAX_WORKERS` = {number}": executor.MAX_WORKERS,
        rf"wider than {number} nodes": executor.MAX_WORKERS,
        rf"min\(jobs × n, {number}\)": executor.MAX_WORKERS + 1,
        rf"default {number} retries": executor.DEFAULT_HTTP_RETRIES,
        rf"retries, {number} s timeout": executor.DEFAULT_HTTP_TIMEOUT,
    }
    for pattern, value in stated.items():
        found = [int(n.replace(",", "")) for n in re.findall(pattern, text)]
        assert found and set(found) == {value}, (pattern, found, value)


def test_only_cli_main_names_the_cycle_collector():
    # The CLI pauses the collector around a command; a pause in a library
    # function would reach every library caller too.
    def names_gc(node):
        return (isinstance(node, ast.Name) and node.id == "gc"
                or isinstance(node, ast.alias) and node.name.partition(".")[0] == "gc"
                or isinstance(node, ast.ImportFrom) and node.module == "gc")

    assert scopes_of(names_gc) == {("cli.py", "<module>"), ("cli.py", "main")}


def test_no_module_names_functools_cached_property():
    # Before Python 3.12 every cached_property holds one lock shared by all the
    # instances of its class; PlanGraph's views are computed once per graph
    # without one, and a returning cached_property would bring the lock back.
    def names_cached_property(node):
        return (isinstance(node, ast.Name) and node.id == "cached_property"
                or isinstance(node, ast.Attribute) and node.attr == "cached_property"
                or isinstance(node, ast.alias) and node.name == "cached_property")

    assert scopes_of(names_cached_property) == set()
