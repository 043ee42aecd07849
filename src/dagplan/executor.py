"""Plan-then-execute runtime: run a validated plan with a ready-set scheduler.

Each node waits for a count of unfinished predecessors; when it reaches zero
the node is ready, and a ready node starts as soon as a slot is free, the
earliest in topological order first.  One private loop, ``_drive``, schedules
both the nodes of ``execute`` and the jobs of ``_map_jobs`` (which ``curate``
and ``build_dataset`` use): the calling thread runs ready entries itself, and
for each further ready entry asks one thread pool, shared by the whole process
and created on first use with ``MAX_WORKERS`` (32) threads, for a helper that
runs them the same way; no call starts threads of its own, and a plan wider
than 32 nodes queues.  A plan of fast tools thus runs mostly in the calling
thread, which waits on another thread only for a node that thread is running,
while slow tools run side by side on the helpers.  A call that returns leaves
no reference cycles behind, so all it built is freed by reference counting,
never left for the cycle collector.  Outputs are materialized
before dependents start, and argument values of the form
``"$<node-id>.<field-path>"`` are resolved from predecessor outputs (a leading
``$$`` escapes a literal dollar sign).  An edge carrying no reference is a
pure ordering constraint.  A node's ``wave`` is its static depth (the longest
chain of predecessors above it), not the moment it ran.

``preflight`` runs once per call, in memory linear in the plan and its
references: the topological order, which a ``PlanGraph`` computes once with
its cycle check (so a plan that passed ``validate_graph`` is sorted and
checked for cycles once, however often it runs), tool resolution, and one
walk down from each node referenced by a node that is not its direct
successor.  A node's args hold only dicts and lists (``PlanNode`` copies them
so), so they are walked with concrete type checks; a field path into an
upstream output also reads any other ``collections.abc.Mapping`` a registry
returns.

Two failure policies: ``fail_fast`` starts no node after the first failure
(nodes already in flight finish and keep their result; every other node is
skipped); ``continue`` keeps running every node whose predecessors all
succeeded and skips the rest.  Either way each node gets one result, and one
to skip is skipped by ``run_node``, at once.  There is no re-planning: the
plan gets exactly one shot.

``inference_steps`` counts model calls only — 1 for the planner plus 1 for
the optional synthesizer in ``run_end_to_end``; tool invocations never count.
A bare ``execute`` therefore reports 0.
"""

from __future__ import annotations

import abc
import collections
import collections.abc
import contextvars
import hashlib
import heapq
import json
import math
import os
import threading
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from .catalog import ToolSpec
from .clients import CompletionClient, http_request, valid_timeout, valid_url
# check_connectivity, detect_cycle and parse_plan stay bound for perfbench's traced runs.
from .plan import (  # noqa: F401
    CycleError, FormatError, PlanGraph, _field, check_connectivity, decode_json, detect_cycle, parse_plan,
    read_config, to_dot, topo_order, validate_text,
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


# Shared: ``json.dumps`` with these options would build an encoder per call.
_DIGEST_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


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
        self._per_tool = isinstance(latency, collections.abc.Mapping)
        self._fail = frozenset(fail)

    def resolves(self, tool_id: str) -> bool:
        return True

    def invoke(self, tool_id: str, args: Mapping[str, Any]) -> Any:
        delay = float(self._latency.get(tool_id, 0.0) if self._per_tool else self._latency)
        if delay > 0:
            time.sleep(delay)
        if tool_id in self._fail:
            raise ToolError(f"injected failure: {tool_id}")
        material = _DIGEST_ENCODER.encode([tool_id, args])
        digest = hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]
        return {"tool": tool_id, "digest": digest, "args": dict(args)}


DEFAULT_HTTP_TIMEOUT = 30.0
DEFAULT_HTTP_RETRIES = 2
# A binding's "method" and "headers", as ``HttpRegistry`` reads them.
_METHOD = (lambda m: isinstance(m, str) and m.upper() in ("GET", "POST"), "GET or POST")
_HEADERS = (lambda h: isinstance(h, collections.abc.Mapping)
            and all(isinstance(k, str) and isinstance(v, str) for k, v in h.items()), "an object of strings")


class HttpRegistry(ToolRegistry):
    """Tools behind HTTP endpoints.

    Bindings map tool id to ``{"url": template, "method": "POST"|"GET",
    "timeout": seconds, "headers": {...}}``; ``{tool}`` in the template is
    replaced with the tool id.  POST sends args as a JSON body, GET as query
    parameters.  Transient failures retry with backoff before ToolError;
    ``retries`` counts tries after the first (by default at most 3 requests).
    ``__init__`` checks each binding, in memory or from ``from_file``, and
    resolves it once; a bad one is a FormatError that names the binding and field.
    """

    def __init__(
        self,
        bindings: Mapping[str, Mapping[str, Any]],
        *,
        retries: int = DEFAULT_HTTP_RETRIES,
        backoff: float = 0.2,
    ):
        if not isinstance(bindings, collections.abc.Mapping):
            raise FormatError("bindings are an object of tool id -> binding")
        self._bindings: dict[str, tuple[str, str, float, dict[str, str]]] = {}
        for tool_id in bindings:
            binding, where = _field(bindings, tool_id, collections.abc.Mapping), f"{tool_id}."
            url = _field(binding, "url", (valid_url, "a string starting http:// or https://"), where=where)
            method = _field(binding, "method", _METHOD, "POST", where)
            timeout = _field(binding, "timeout", (valid_timeout, "a number of seconds above 0"),
                             DEFAULT_HTTP_TIMEOUT, where)
            headers = _field(binding, "headers", _HEADERS, {}, where)
            self._bindings[tool_id] = (url.replace("{tool}", urllib.parse.quote(tool_id, safe="")),
                                       method.upper(), float(timeout), {"Content-Type": "application/json", **headers})
        self._retries = retries
        self._backoff = backoff

    @classmethod
    def from_file(cls, path: str | Path) -> "HttpRegistry":
        """Load bindings from JSON; a FormatError names the file."""
        return read_config(path, cls)

    def resolves(self, tool_id: str) -> bool:
        return tool_id in self._bindings

    def invoke(self, tool_id: str, args: Mapping[str, Any]) -> Any:
        try:
            url, method, timeout, headers = self._bindings[tool_id]
        except KeyError:
            raise ToolError(f"no binding for tool {tool_id!r}") from None
        data = None
        if method == "GET":
            flat = {k: json.dumps(v) if isinstance(v, (dict, list)) else str(v) for k, v in args.items()}
            if flat:
                url += ("&" if "?" in url else "?") + urllib.parse.urlencode(flat)
        else:
            data = json.dumps(dict(args)).encode("utf-8")
        body = http_request(
            url, data, headers, method, timeout,
            attempts=self._retries + 1, backoff=self._backoff, max_backoff=math.inf,
            error=ToolError, label=tool_id,
        )
        try:
            return decode_json(body)
        except FormatError:
            return {"text": body}


# --- argument references ------------------------------------------------------


def _reference_targets(args: dict | list, found: list[str]) -> list[str]:
    """Append the node id of every "$node.path" reference inside args."""
    for v in args.values() if isinstance(args, dict) else args:
        if isinstance(v, str):
            if v[:1] == "$" and v[:2] != "$$":
                found.append(v[1:].partition(".")[0])
        elif isinstance(v, (dict, list)):
            _reference_targets(v, found)
    return found


def _resolve_value(value: Any, results: Mapping[str, NodeResult]) -> Any:
    """A copy of an args value with every reference replaced by the field it
    names of an upstream node's output and every ``$$`` escape unescaped."""
    if isinstance(value, str):
        if value[:1] != "$":
            return value
        if value[:2] == "$$":
            return value[1:]
        node_id, _, path = value[1:].partition(".")
        current = results[node_id].output
        for part in path.split(".") if path else ():
            if isinstance(current, dict) and part in current:
                current = current[part]
            elif (isinstance(current, list) and part.lstrip("-").isdigit()
                  and -len(current) <= int(part) < len(current)):
                current = current[int(part)]
            elif isinstance(current, collections.abc.Mapping) and part in current:
                current = current[part]
            else:
                raise ToolError(f"reference {value!r}: no field {part!r} in upstream output")
        return current
    if isinstance(value, dict):
        return {k: _resolve_value(v, results) for k, v in value.items()}
    if isinstance(value, list):
        return [_resolve_value(v, results) for v in value]
    return value


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


def _unreached(plan: PlanGraph, target: str, referrers: set[str], position: Mapping[str, int]) -> set[str]:
    """The ``referrers`` that are not descendants of ``target``, by one walk down
    from ``target`` through nodes no later in topological order than the last
    referrer."""
    bound = max(position[nid] for nid in referrers)
    missing = set(referrers)
    seen = {target}
    stack = [target]
    while stack and missing:
        for succ in plan.successors[stack.pop()]:
            if position[succ] <= bound and succ not in seen:
                seen.add(succ)
                missing.discard(succ)
                stack.append(succ)
    return missing


def preflight(plan: PlanGraph, registry: ToolRegistry) -> list[str]:
    """Validate executability: acyclic, tools resolve, references well-formed.

    A reference must name an ancestor of its node.  A direct predecessor is
    accepted at once; for every other referenced node one walk marks the
    descendants it needs, so memory is linear in the plan and its references,
    and so is time when many nodes reference one distant node.
    Disconnected plans are executable (independent components simply run side
    by side); rejecting them is the planner-validation gate's job, not the
    runtime's — see run_end_to_end.
    """
    try:
        order = topo_order(plan)
    except CycleError as exc:
        raise PreflightError(f"invalid plan: {exc}") from None
    unresolved = sorted({n.tool for n in plan.nodes if not registry.resolves(n.tool)})
    if unresolved:
        raise PreflightError(f"unresolved tools: {unresolved}")
    position = {nid: i for i, nid in enumerate(order)}
    refs: list[tuple[str, str]] = []  # (node, referenced node), in plan order
    far: dict[str, set[str]] = {}     # referenced node -> nodes it is not a direct predecessor of
    for node in plan.nodes:
        if node.args:
            for target in _reference_targets(node.args, []):
                refs.append((node.id, target))
                if target in position and target not in plan.predecessors[node.id]:
                    far.setdefault(target, set()).add(node.id)
    unreached = {(nid, target) for target, referrers in far.items()
                 for nid in _unreached(plan, target, referrers, position)}
    for nid, target in refs:
        if target not in position:
            raise PreflightError(f"node {nid!r} references unknown node {target!r}")
        if (nid, target) in unreached:
            raise PreflightError(f"node {nid!r} references {target!r}, which is not a predecessor")
    return order


MAX_WORKERS = 32


class _Helpers:
    """The process-wide pool of ``MAX_WORKERS`` threads and the calls that want
    its help, one entry per ready node or job that no thread has taken.  A
    helper serves whichever call asks when it starts, so one left over from a
    call that finished on its own serves the next call instead of another
    being woken."""

    def __init__(self) -> None:
        self.pool = ThreadPoolExecutor(MAX_WORKERS, thread_name_prefix="dagplan-execute")
        self.lock = threading.Lock()
        self.asks: collections.deque[Callable[[], None]] = collections.deque()
        self.queued = 0  # helpers submitted to the pool that have not started

    def ask(self, work: Callable[[], None], n: int) -> None:
        with self.lock:
            self.asks.extend([work] * n)
            wanted = len(self.asks) - self.queued
            self.queued += max(wanted, 0)
        for _ in range(wanted):
            self.pool.submit(self.serve)

    def withdraw(self, work: Callable[[], None]) -> None:
        """Drop the asks of a call that has finished."""
        with self.lock:
            self.asks = collections.deque(w for w in self.asks if w is not work)

    def serve(self) -> None:
        with self.lock:
            self.queued -= 1
        while True:
            with self.lock:
                if not self.asks:
                    return
                work = self.asks.popleft()
            work()


_helpers: dict[int, _Helpers] = {}


def _shared_helpers() -> _Helpers:
    """Created on first use; a forked child, whose pid differs, builds its own.
    ``setdefault`` is atomic, so concurrent first calls agree on one (a losing
    pool never started a thread)."""
    pid = os.getpid()
    return _helpers.get(pid) or _helpers.setdefault(pid, _Helpers())


def _drive(ready: list[int], run: Callable[[int], Any], done: Callable[[int, Any], None], slots: int) -> None:
    """The one caller-runs loop: run the entries of the heap ``ready``, smallest
    first and at most ``slots`` at once, in the calling thread and in helpers
    asked from the shared pool while more are ready (each in a copy of the
    caller's context), until none is ready or in flight.  ``done(i, run(i))``
    runs under the loop's lock and may push more entries, each run in turn.
    The caller waits only for entries in flight, never for a helper to start,
    so a loop driven from the pool cannot deadlock it."""
    running = 0  # entries in flight, on any thread
    asked = 0    # asks for a helper that no helper has taken yet
    state = threading.Condition(threading.Lock())  # guards the above and ``ready``
    context = contextvars.copy_context()

    def work(helping: bool) -> None:
        """Run ready entries until none is ready or no slot is free, with
        ``state`` held, released around each ``run``; a helper wakes the
        caller, the only thread that ever waits, after each of its entries."""
        nonlocal running, asked
        while ready and running < slots:
            index = heapq.heappop(ready)
            running += 1
            more = min(len(ready), slots - running) - asked
            if more > 0:
                asked += more
                _shared_helpers().ask(helper, more)
            state.release()
            try:
                result = run(index)
            finally:
                state.acquire()
                running -= 1
                if helping:
                    state.notify()
            done(index, result)

    def helper() -> None:
        nonlocal asked
        with state:
            asked -= 1
            context.copy().run(work, True)

    with state:
        work(False)
        while running or ready:
            state.wait()
            work(False)
        if asked:
            _shared_helpers().withdraw(helper)
    # ``work`` and ``helper`` refer to each other, so this binding would keep
    # them, and all they hold, for the cycle collector; dropped, reference
    # counting frees them on return.  A helper that took an ask before the
    # withdraw finds nothing ready and never asks again.
    del helper


def _map_jobs(fn: Callable[[Any], Any], items: Sequence[Any], workers: int) -> list[Any]:
    """``[fn(item) for item in items]`` through ``_drive``, with at most
    ``workers`` (capped at ``MAX_WORKERS`` + 1) calls in flight, taken in input
    order by the calling thread and helpers from the shared pool.  After an
    exception no further item calls ``fn``; once those in flight have
    finished, the one from the earliest item is raised."""
    results: list[Any] = [None] * len(items)
    failures: dict[int, BaseException] = {}

    def run(index: int) -> Any:
        try:
            return None if failures else fn(items[index])
        except BaseException as exc:
            failures[index] = exc

    _drive(list(range(len(items))), run, results.__setitem__, min(max(workers, 1), MAX_WORKERS + 1))
    if failures:
        # Each failure's traceback reaches ``failures`` through ``run``'s closure,
        # and a local naming the raised one would reach it from its own traceback.
        first = failures[min(failures)]
        failures.clear()
        try:
            raise first
        finally:
            del first
    return results


def execute(
    plan: PlanGraph,
    registry: ToolRegistry,
    policy: str = "fail_fast",
    *,
    max_workers: int | None = None,
) -> ExecutionTrace:
    """Run the plan over the registry, each node as soon as its predecessors finish.

    Nodes are ``_drive``'s entries, by topological position, and each settles
    once: a node whose predecessor failed or was skipped, or any node taken
    after a ``fail_fast`` failure, is skipped by ``run_node``, at once.
    ``max_workers`` caps this call's nodes in flight, the calling thread's
    included (1 reproduces a sequential replay in topological order in the
    calling thread); None, or a value above the shared pool's ``MAX_WORKERS``
    = 32 threads, means 32.  Under ``fail_fast`` no node starts after the
    first failure.  Per-node failures are recorded, never raised: a
    ToolError, a reference into upstream output that does not exist, or any
    other exception the registry raises (its ``error`` then names the
    exception type).  Structural problems raise PreflightError before
    anything runs; ``max_workers`` below 1 raises ValueError.
    """
    if policy not in ("fail_fast", "continue"):
        raise ValueError(f"policy must be 'fail_fast' or 'continue', got {policy!r}")
    if max_workers is not None and max_workers < 1:
        raise ValueError(f"max_workers must be at least 1, got {max_workers}")
    order = preflight(plan, registry)
    wave_of = _static_waves(plan, order)
    position = {nid: i for i, nid in enumerate(order)}
    unfinished = {nid: len(plan.predecessors[nid]) for nid in order}
    ready = [i for i, nid in enumerate(order) if not unfinished[nid]]  # sorted, so a heap
    results: dict[str, NodeResult] = {}
    blocked: set[str] = set()  # nodes with a failed or skipped predecessor
    halted = False  # set by the first failure under fail_fast
    started_at = time.perf_counter()

    def run_node(index: int) -> NodeResult:
        nonlocal halted
        nid = order[index]
        node = plan.node_index[nid]
        start = time.perf_counter()
        # Checked after taking ``start``, and set before taking ``finished``, so
        # no node's start is later than the first failure's finish.
        if halted or nid in blocked:
            return NodeResult(nid, node.tool, wave_of[nid], "skipped")
        try:
            output = registry.invoke(node.tool, _resolve_value(node.args, results))
            return NodeResult(nid, node.tool, wave_of[nid], "ok", output,
                              started=start, finished=time.perf_counter())
        except Exception as exc:  # an untrusted registry's failure is this node's failure
            if policy == "fail_fast":
                halted = True
            try:
                message = str(exc)
            except Exception:  # an exception's own __str__ is registry code too
                message = f"<unprintable {type(exc).__name__}>"
            error = message if isinstance(exc, ToolError) else f"{type(exc).__name__}: {message}"
            return NodeResult(nid, node.tool, wave_of[nid], "failed", error=error,
                              started=start, finished=time.perf_counter())

    def settle(index: int, result: NodeResult) -> None:
        """Record a result; block the successors of one that is not ok, and
        push each successor it leaves ready."""
        nid = result.node_id
        results[nid] = result
        if result.status != "ok":
            blocked.update(plan.successors[nid])
        for succ in plan.successors[nid]:
            unfinished[succ] -= 1
            if not unfinished[succ]:
                heapq.heappush(ready, position[succ])

    _drive(ready, run_node, settle, min(max_workers or MAX_WORKERS, MAX_WORKERS))

    ordered = {nid: results[nid] for nid in sorted(order, key=lambda n: (wave_of[n], n))}
    return ExecutionTrace(
        nodes=ordered,
        waves=max((r.wave for r in ordered.values() if r.status != "skipped"), default=-1) + 1,
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
