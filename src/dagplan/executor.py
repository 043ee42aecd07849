"""Plan-then-execute runtime: run a validated plan as parallel waves.

Wave w contains every node all of whose predecessors completed in earlier
waves; nodes within a wave run concurrently on a thread pool.  Outputs are
materialized before dependents start, and argument values of the form
``"$<node-id>.<field-path>"`` are resolved from predecessor outputs (a leading
``$$`` escapes a literal dollar sign).  An edge carrying no reference is a
pure ordering constraint.

Two failure policies: ``fail_fast`` stops scheduling new waves after the
first failure (everything not yet run is skipped); ``continue`` keeps running
every node whose predecessors all succeeded and skips the rest.  There is no
re-planning: the plan gets exactly one shot.

``inference_steps`` counts model calls only — 1 for the planner plus 1 for
the optional synthesizer in ``run_end_to_end``; tool invocations never count.
A bare ``execute`` therefore reports 0.
"""

from __future__ import annotations

import abc
import hashlib
import json
import math
import time
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

from .catalog import ToolSpec
from .clients import CompletionClient, http_request
# check_connectivity, detect_cycle and parse_plan stay bound for perfbench's traced runs.
from .plan import (  # noqa: F401
    CycleError, FormatError, PlanGraph, check_connectivity, detect_cycle, parse_plan, read_json,
    to_dot, topo_order, validate_text,
)
from .prompts import replan_prompt, synthesis_prompt
from .reward import RewardBranch


class ToolError(RuntimeError):
    """A tool invocation failed; recorded in the trace, never thrown past it."""


class PreflightError(ValueError):
    """The plan cannot start: invalid structure, unresolved tool, bad reference."""


class PlanRejectedError(RuntimeError):
    """The planner's output failed validation before execution."""

    def __init__(self, branch: RewardBranch, reason: str, raw_text: str):
        super().__init__(f"plan rejected ({branch.value}): {reason}")
        self.branch = branch
        self.reason = reason
        self.raw_text = raw_text


class ToolRegistry(abc.ABC):
    """Binds tool ids to invocable endpoints."""

    @abc.abstractmethod
    def resolves(self, tool_id: str) -> bool:
        raise NotImplementedError

    @abc.abstractmethod
    def invoke(self, tool_id: str, args: Mapping[str, Any]) -> Any:
        """Run one tool; must tolerate concurrent calls. Raises ToolError."""
        raise NotImplementedError


class MockRegistry(ToolRegistry):
    """Deterministic simulated tools with configurable latency and failures.

    Output is a digest of (tool id, resolved args), so downstream nodes see
    reproducible values and timing tests need no network.  ``latency`` is a
    scalar or a per-tool mapping (seconds); tools listed in ``fail`` raise.
    """

    def __init__(
        self,
        latency: float | Mapping[str, float] = 0.0,
        fail: Sequence[str] = (),
    ):
        self._latency = latency
        self._fail = frozenset(fail)

    def resolves(self, tool_id: str) -> bool:
        return True

    def _delay(self, tool_id: str) -> float:
        if isinstance(self._latency, Mapping):
            return float(self._latency.get(tool_id, 0.0))
        return float(self._latency)

    def invoke(self, tool_id: str, args: Mapping[str, Any]) -> Any:
        delay = self._delay(tool_id)
        if delay > 0:
            time.sleep(delay)
        if tool_id in self._fail:
            raise ToolError(f"injected failure: {tool_id}")
        material = json.dumps([tool_id, args], sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]
        return {"tool": tool_id, "digest": digest, "args": dict(args)}


DEFAULT_HTTP_TIMEOUT = 30.0
DEFAULT_HTTP_RETRIES = 2


class HttpRegistry(ToolRegistry):
    """Tools behind HTTP endpoints.

    Bindings map tool id to ``{"url": template, "method": "POST"|"GET",
    "timeout": seconds, "headers": {...}}``; ``{tool}`` in the template is
    replaced with the tool id.  POST sends args as a JSON body, GET as query
    parameters.  Transient failures retry with backoff before ToolError.
    """

    def __init__(
        self,
        bindings: Mapping[str, Mapping[str, Any]],
        *,
        retries: int = DEFAULT_HTTP_RETRIES,
        backoff: float = 0.2,
    ):
        self._bindings = {k: dict(v) for k, v in bindings.items()}
        self._retries = retries
        self._backoff = backoff

    @classmethod
    def from_file(cls, path: str | Path) -> "HttpRegistry":
        """Load bindings from JSON; FormatError unless it is an object of
        objects, each with a string ``url``."""
        doc = read_json(path)
        if not isinstance(doc, dict):
            raise FormatError(f"{path}: bindings are an object of tool id -> binding")
        for tool_id, binding in doc.items():
            if not isinstance(binding, dict) or not isinstance(binding.get("url"), str):
                raise FormatError(f'{path}: binding {tool_id!r} has no string "url"')
        return cls(doc)

    def resolves(self, tool_id: str) -> bool:
        return tool_id in self._bindings

    def invoke(self, tool_id: str, args: Mapping[str, Any]) -> Any:
        try:
            binding = self._bindings[tool_id]
        except KeyError:
            raise ToolError(f"no binding for tool {tool_id!r}") from None
        url = str(binding["url"]).replace("{tool}", urllib.parse.quote(tool_id, safe=""))
        method = str(binding.get("method", "POST")).upper()
        timeout = float(binding.get("timeout", DEFAULT_HTTP_TIMEOUT))
        headers = {"Content-Type": "application/json", **binding.get("headers", {})}
        data = None
        if method == "GET":
            flat = {k: json.dumps(v) if isinstance(v, (dict, list)) else str(v) for k, v in args.items()}
            if flat:
                url += ("&" if "?" in url else "?") + urllib.parse.urlencode(flat)
        else:
            data = json.dumps(dict(args)).encode("utf-8")
        body = http_request(
            urllib.request.Request(url, data=data, headers=headers, method=method), timeout,
            attempts=self._retries + 1, backoff=self._backoff, max_backoff=math.inf,
            error=ToolError, label=tool_id,
        )
        try:
            return json.loads(body)
        except json.JSONDecodeError:
            return {"text": body}


# --- argument references ------------------------------------------------------


def _iter_reference_targets(value: Any) -> Iterator[str]:
    """Yield the node id of every "$node.path" reference inside a value."""
    if isinstance(value, str) and value.startswith("$") and not value.startswith("$$"):
        yield value[1:].partition(".")[0]
    elif isinstance(value, Mapping):
        for v in value.values():
            yield from _iter_reference_targets(v)
    elif isinstance(value, list):
        for v in value:
            yield from _iter_reference_targets(v)


def _resolve_value(value: Any, outputs: Mapping[str, Any]) -> Any:
    if isinstance(value, str) and value.startswith("$"):
        if value.startswith("$$"):
            return value[1:]
        target = value[1:]
        node_id, _, path = target.partition(".")
        current = outputs[node_id]
        for part in path.split(".") if path else []:
            if isinstance(current, Mapping) and part in current:
                current = current[part]
            elif (isinstance(current, list) and part.lstrip("-").isdigit()
                  and -len(current) <= int(part) < len(current)):
                current = current[int(part)]
            else:
                raise ToolError(f"reference {value!r}: no field {part!r} in upstream output")
        return current
    if isinstance(value, Mapping):
        return {k: _resolve_value(v, outputs) for k, v in value.items()}
    if isinstance(value, list):
        return [_resolve_value(v, outputs) for v in value]
    return value


def _ancestors(plan: PlanGraph, order: Sequence[str]) -> dict[str, set[str]]:
    ancestors: dict[str, set[str]] = {}
    for nid in order:
        acc: set[str] = set()
        for pred in plan.predecessors[nid]:
            acc.add(pred)
            acc |= ancestors[pred]
        ancestors[nid] = acc
    return ancestors


# --- execution ----------------------------------------------------------------


@dataclass
class NodeResult:
    """One node's execution record; timestamps are perf-counter seconds."""

    node_id: str
    tool: str
    wave: int
    status: str  # "ok" | "failed" | "skipped"
    output: Any = None
    error: str | None = None
    started: float | None = None
    finished: float | None = None

    @property
    def latency(self) -> float | None:
        if self.started is None or self.finished is None:
            return None
        return self.finished - self.started

    def to_dict(self) -> dict[str, Any]:
        return {
            "node_id": self.node_id,
            "tool": self.tool,
            "wave": self.wave,
            "status": self.status,
            "output": self.output,
            "error": self.error,
            "latency": self.latency,
        }


@dataclass
class ExecutionTrace:
    """What happened: per-node results, wave count, step count, wall time."""

    nodes: dict[str, NodeResult]
    waves: int
    inference_steps: int
    wall_time: float
    policy: str

    def statuses(self) -> dict[str, str]:
        return {nid: r.status for nid, r in self.nodes.items()}

    def ok(self) -> bool:
        return all(r.status == "ok" for r in self.nodes.values())

    def to_dict(self) -> dict[str, Any]:
        return {
            "nodes": {nid: r.to_dict() for nid, r in self.nodes.items()},
            "waves": self.waves,
            "inference_steps": self.inference_steps,
            "wall_time": self.wall_time,
            "policy": self.policy,
        }


def _static_waves(plan: PlanGraph, order: Sequence[str]) -> dict[str, int]:
    wave_of: dict[str, int] = {}
    for nid in order:
        preds = plan.predecessors[nid]
        wave_of[nid] = max((wave_of[p] for p in preds), default=-1) + 1
    return wave_of


def count_waves(plan: PlanGraph) -> int:
    """Critical-path depth in nodes, computed without executing anything."""
    order = topo_order(plan)  # CycleError propagates
    if not order:
        return 0
    return max(_static_waves(plan, order).values()) + 1


def preflight(plan: PlanGraph, registry: ToolRegistry) -> list[str]:
    """Validate executability: acyclic, tools resolve, references well-formed.

    Disconnected plans are executable (independent components simply share
    waves); rejecting them is the planner-validation gate's job, not the
    runtime's — see run_end_to_end.
    """
    try:
        order = topo_order(plan)
    except CycleError as exc:
        raise PreflightError(f"invalid plan: {exc}") from None
    unresolved = sorted({n.tool for n in plan.nodes if not registry.resolves(n.tool)})
    if unresolved:
        raise PreflightError(f"unresolved tools: {unresolved}")
    ancestors = _ancestors(plan, order)
    for node in plan.nodes:
        for target in _iter_reference_targets(node.args):
            if target not in plan.node_index:
                raise PreflightError(
                    f"node {node.id!r} references unknown node {target!r}"
                )
            if target not in ancestors[node.id]:
                raise PreflightError(
                    f"node {node.id!r} references {target!r}, which is not a predecessor"
                )
    return order


def execute(
    plan: PlanGraph,
    registry: ToolRegistry,
    policy: str = "fail_fast",
    *,
    max_workers: int | None = None,
) -> ExecutionTrace:
    """Run the plan in parallel waves over the registry.

    ``max_workers`` caps intra-wave concurrency (1 reproduces a sequential
    replay).  Per-node failures are recorded, never raised: a ToolError, a
    reference into upstream output that does not exist, or any other exception
    the registry raises (its ``error`` then names the exception type).
    Structural problems raise PreflightError before anything runs.
    """
    if policy not in ("fail_fast", "continue"):
        raise ValueError(f"policy must be 'fail_fast' or 'continue', got {policy!r}")
    order = preflight(plan, registry)
    wave_of = _static_waves(plan, order)
    wave_groups: dict[int, list[str]] = {}
    for nid in order:
        wave_groups.setdefault(wave_of[nid], []).append(nid)

    results: dict[str, NodeResult] = {}
    outputs: dict[str, Any] = {}
    started_at = time.perf_counter()
    aborted = False
    pool_size = max_workers or max((len(g) for g in wave_groups.values()), default=1)

    def run_node(nid: str) -> NodeResult:
        node = plan.node_index[nid]
        start = time.perf_counter()
        try:
            args = _resolve_value(dict(node.args), outputs)
            output = registry.invoke(node.tool, args)
            return NodeResult(nid, node.tool, wave_of[nid], "ok", output,
                              started=start, finished=time.perf_counter())
        except Exception as exc:  # an untrusted registry's failure is this node's failure
            error = str(exc) if isinstance(exc, ToolError) else f"{type(exc).__name__}: {exc}"
            return NodeResult(nid, node.tool, wave_of[nid], "failed", error=error,
                              started=start, finished=time.perf_counter())

    with ThreadPoolExecutor(max_workers=pool_size) as pool:
        for wave_index in sorted(wave_groups):
            group = wave_groups[wave_index]
            if aborted:
                for nid in group:
                    node = plan.node_index[nid]
                    results[nid] = NodeResult(nid, node.tool, wave_index, "skipped")
                continue
            runnable: list[str] = []
            for nid in group:
                if all(results[p].status == "ok" for p in plan.predecessors[nid]):
                    runnable.append(nid)
                else:
                    node = plan.node_index[nid]
                    results[nid] = NodeResult(nid, node.tool, wave_index, "skipped")
            for nid, result in zip(runnable, pool.map(run_node, runnable)):
                results[nid] = result
                if result.status == "ok":
                    outputs[nid] = result.output
            if policy == "fail_fast" and any(
                results[nid].status == "failed" for nid in runnable
            ):
                aborted = True

    executed = [r.wave for r in results.values() if r.status in ("ok", "failed")]
    ordered = {nid: results[nid] for nid in sorted(results, key=lambda n: (wave_of[n], n))}
    return ExecutionTrace(
        nodes=ordered,
        waves=max(executed, default=-1) + 1,
        inference_steps=0,
        wall_time=time.perf_counter() - started_at,
        policy=policy,
    )


def trace_to_dot(plan: PlanGraph, trace: ExecutionTrace) -> str:
    """DOT rendering of the plan annotated with wave indices."""
    return to_dot(plan, waves={nid: r.wave for nid, r in trace.nodes.items()})


def leaf_outputs(plan: PlanGraph, trace: ExecutionTrace) -> dict[str, Any]:
    """Outputs of sink nodes (out-degree 0) that completed successfully."""
    return {
        nid: trace.nodes[nid].output
        for nid in sorted(plan.node_index)
        if not plan.successors[nid] and trace.nodes[nid].status == "ok"
    }


def run_end_to_end(
    query: str,
    candidate_tools: Sequence[ToolSpec | str],
    planner: CompletionClient,
    registry: ToolRegistry,
    synthesizer: CompletionClient | None = None,
    *,
    policy: str = "fail_fast",
    max_workers: int | None = None,
    self_loops: str = "reject",
) -> tuple[str, ExecutionTrace]:
    """Query -> plan -> validate -> execute -> answer.

    The planner gets one shot; its output must parse and pass both structural
    checks or PlanRejectedError (carrying the failed reward branch and the raw
    text) is raised.  With a synthesizer the answer is its composition of the
    leaf outputs and the trace reports 2 inference steps; without one, the
    answer is the serialized leaf outputs and the trace reports 1.
    """
    raw = planner.complete(replan_prompt(query, candidate_tools))
    report = validate_text(raw, self_loops=self_loops)
    if not report.fully_valid:
        raise PlanRejectedError(RewardBranch(report.failed_check), report.detail, raw)
    plan = report.graph

    trace = execute(plan, registry, policy, max_workers=max_workers)
    leaves = leaf_outputs(plan, trace)
    if synthesizer is not None:
        answer = synthesizer.complete(synthesis_prompt(query, leaves))
        trace.inference_steps = 2
    else:
        answer = json.dumps(leaves, sort_keys=True, ensure_ascii=False)
        trace.inference_steps = 1
    return answer, trace
