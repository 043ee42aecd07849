"""DAG plan representation: parsing, canonical serialization, structural checks.

A plan is a directed graph whose nodes are tool invocations and whose edges are
data/ordering dependencies.  Candidate plans arrive as raw text emitted by a
planner and may be arbitrarily broken; everything downstream (reward, metrics,
executor) relies on a clean separation between *syntax* failures (the text
cannot be interpreted as a graph at all) and *structural* defects (cycles,
disconnection) of an otherwise well-formed graph.  Cyclic graphs are therefore
representable on purpose: they must survive parsing so they can be penalized.

Wire format::

    {"nodes": [{"id": "a", "tool": "cat0.tool1", "args": {...}}, ...],
     "edges": [{"from": "a", "to": "b"}, ...]}

``parse_plan`` requires the ``"nodes"`` key and tolerates a missing
``"edges"`` key; anything else that cannot be read as the schema above is a
syntax failure.  Canonical serialization sorts nodes by id and edges by
(from, to), so two graphs that are equal as node/edge sets serialize to
byte-identical text.

All types are immutable after construction and all functions but the
``read_*`` file readers are pure.
"""

from __future__ import annotations

import collections.abc
import heapq
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping


class PlanSyntaxError(ValueError):
    """Raised when text cannot be interpreted as a plan graph."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class CycleError(ValueError):
    """Raised by operations that require an acyclic plan."""

    def __init__(self, cycle: list[str]):
        super().__init__("plan contains a cycle: " + " -> ".join(cycle))
        self.cycle = list(cycle)


@dataclass(frozen=True, slots=True)
class PlanNode:
    """One tool invocation: a plan-local id, the tool it calls, and its args.

    Argument values are either literals or references of the form
    ``"$<node-id>.<field-path>"`` into a predecessor's output (resolved by the
    executor; ignored by reward and metrics).  The node keeps a deep copy of
    ``args`` in which every mapping is a ``dict`` and every list a ``list``, so
    it shares nothing mutable with the caller; args nested deeper than
    ``MAX_ARGS_DEPTH`` levels raise PlanSyntaxError.
    """

    id: str
    tool: str
    args: Mapping[str, Any] = field(default_factory=dict)

    def __init__(self, id: str, tool: str, args: Mapping[str, Any] | None = None):
        # Slots, not an instance dict: a loaded node is one object less for the cycle collector.
        _set(self, "id", id)
        _set(self, "tool", tool)
        _set(self, "args", _copy_args(args, 1, id) if args else {})


@dataclass(frozen=True, slots=True)
class PlanEdge:
    """A directed dependency: ``dst`` consumes after ``src`` completes."""

    src: str
    dst: str


@dataclass(frozen=True, eq=False)
class PlanGraph:
    """A plan as node and edge collections.

    Invariants enforced at construction: node ids unique, at most one node per
    tool, edge endpoints name existing nodes, no duplicate (src, dst) pairs.
    Acyclicity is deliberately NOT an invariant; self-loops are likewise
    representable (the parser rejects them unless told to keep them for
    cycle-penalty classification).

    The node count is not bounded here: ``MAX_PLAN_NODES`` is the parser's
    limit on plans it reads, and a graph built in memory may be larger, so a
    caller that builds one from untrusted input bounds it itself.

    Equality is set-based: two graphs are equal iff their node sets (id, tool,
    args) and edge sets (src, dst) coincide, regardless of storage order.

    The structural verdict (topological order, or a witness cycle) is computed
    once per graph; ``topo_order``, ``detect_cycle`` and ``validate_graph``
    all read it.
    """

    nodes: tuple[PlanNode, ...]
    edges: tuple[PlanEdge, ...]

    def __post_init__(self) -> None:
        _set(self, "nodes", tuple(self.nodes))
        _set(self, "edges", tuple(self.edges))
        ids = set()
        tools = set()
        for node in self.nodes:
            if not node.id:
                raise ValueError("node with empty id")
            if node.id in ids:
                raise ValueError(f"duplicate node id {node.id!r}")
            if node.tool in tools:
                raise ValueError(f"tool {node.tool!r} used by more than one node")
            ids.add(node.id)
            tools.add(node.tool)
        pairs = set()
        for edge in self.edges:
            if edge.src not in ids:
                raise ValueError(f"unknown endpoint {edge.src!r}")
            if edge.dst not in ids:
                raise ValueError(f"unknown endpoint {edge.dst!r}")
            if (edge.src, edge.dst) in pairs:
                raise ValueError(f"duplicate edge ({edge.src!r}, {edge.dst!r})")
            pairs.add((edge.src, edge.dst))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlanGraph):
            return NotImplemented
        mine = {n.id: (n.tool, dict(n.args)) for n in self.nodes}
        theirs = {n.id: (n.tool, dict(n.args)) for n in other.nodes}
        return mine == theirs and self.edge_pairs == other.edge_pairs

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[PlanNode]:
        return iter(self.nodes)

    @cached_property
    def node_index(self) -> Mapping[str, PlanNode]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def edge_pairs(self) -> frozenset[tuple[str, str]]:
        """Edges as (src node id, dst node id) pairs."""
        return frozenset((e.src, e.dst) for e in self.edges)

    @cached_property
    def successors(self) -> Mapping[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {n.id: [] for n in self.nodes}
        for e in self.edges:
            out[e.src].append(e.dst)
        return {nid: tuple(sorted(dsts)) for nid, dsts in out.items()}

    @cached_property
    def predecessors(self) -> Mapping[str, tuple[str, ...]]:
        inc: dict[str, list[str]] = {n.id: [] for n in self.nodes}
        for e in self.edges:
            inc[e.dst].append(e.src)
        return {nid: tuple(sorted(srcs)) for nid, srcs in inc.items()}

    @cached_property
    def tool_set(self) -> frozenset[str]:
        """The tools this plan invokes; node identity for scoring purposes."""
        return frozenset(n.tool for n in self.nodes)

    @cached_property
    def _verdict(self) -> tuple[tuple[str, ...], tuple[str, ...] | None]:
        """Kahn's order, ties broken by ascending id, and the DFS witness cycle,
        searched for only when the order comes up short (else None)."""
        indegree = {n.id: 0 for n in self.nodes}
        for e in self.edges:
            indegree[e.dst] += 1
        ready = [nid for nid, d in indegree.items() if not d]
        heapq.heapify(ready)
        order: list[str] = []
        succ = self.successors
        while ready:
            nid = heapq.heappop(ready)
            order.append(nid)
            for nxt in succ[nid]:
                indegree[nxt] -= 1
                if not indegree[nxt]:
                    heapq.heappush(ready, nxt)
        return tuple(order), None if len(order) == len(indegree) else _witness_cycle(succ)

    @cached_property
    def edge_tool_pairs(self) -> frozenset[tuple[str, str]]:
        """Edges as (source tool, target tool) pairs.

        Node ids are planner-local labels, so cross-plan edge comparison is
        done on the tools being wired, not on the labels.
        """
        tool_of = {n.id: n.tool for n in self.nodes}
        return frozenset((tool_of[e.src], tool_of[e.dst]) for e in self.edges)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the three structural checks on one piece of plan text.

    This is the single verdict on a plan: the reward, the executor's gate and
    the dataset pipeline all read it.  When ``syntax_ok`` is False there is no
    graph to inspect, so the structural flags are vacuously true and carry no
    witnesses; check ``syntax_ok`` before trusting them.  ``reason`` holds the
    parser's complaint in that case.  ``graph`` is the parsed plan (None on a
    syntax failure); it is not part of equality or of ``to_dict``.
    """

    syntax_ok: bool
    is_acyclic: bool
    is_connected: bool
    first_cycle: tuple[str, ...] | None = None
    isolated_nodes: tuple[str, ...] = ()
    reason: str | None = None
    graph: PlanGraph | None = field(default=None, compare=False, repr=False)

    @property
    def fully_valid(self) -> bool:
        return self.syntax_ok and self.is_acyclic and self.is_connected

    @property
    def failed_check(self) -> str | None:
        """The first failing check, as the reward's ``RewardBranch`` value
        (``"syntax"``, ``"cycle"`` or ``"connectivity"``); None when valid."""
        if not self.syntax_ok:
            return "syntax"
        if not self.is_acyclic:
            return "cycle"
        if not self.is_connected:
            return "connectivity"
        return None

    @property
    def detail(self) -> str | None:
        """The witness of ``failed_check``: the parser's reason, the cycle path
        (``a -> b -> a``), or the isolated nodes; None when valid."""
        if not self.syntax_ok:
            return self.reason
        if not self.is_acyclic:
            return " -> ".join(self.first_cycle or ())
        if self.is_connected:
            return None
        if self.isolated_nodes:
            return "isolated nodes: " + ", ".join(self.isolated_nodes)
        return "multiple components"

    def to_dict(self) -> dict[str, Any]:
        return {
            "syntax_ok": self.syntax_ok,
            "is_acyclic": self.is_acyclic,
            "is_connected": self.is_connected,
            "first_cycle": list(self.first_cycle) if self.first_cycle else None,
            "isolated_nodes": list(self.isolated_nodes),
            "reason": self.reason,
        }


# Deepest container nesting allowed in a node's args, the args object itself
# counting as level 1.  Serialization, equality and the executor's reference
# resolution all recurse over args, so deeper values are syntax failures.
MAX_ARGS_DEPTH = 100
# Most nodes a plan may hold; preflight's reference check grows with the
# square of the plan, so larger plans are syntax failures too.
MAX_PLAN_NODES = 1000
# Longest plan text, in characters, ``parse_plan`` decodes; longer text is a
# syntax failure found before any decoding, since ``len`` of a str is O(1).
MAX_PLAN_CHARS = 1_000_000


class FormatError(ValueError):
    """An untrusted JSON file (dataset, catalog, cassette, any config, report)
    is not JSON or breaks its documented schema; the message says where."""


def _finite_number(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"number {literal} is not finite")
    return value


# NaN, Infinity and overflowing floats would parse but cannot be serialized
# back to valid JSON, so the decoder rejects them.
_DECODER = json.JSONDecoder(parse_constant=_finite_number, parse_float=_finite_number)


def decode_json(text: str, error: type[ValueError] = FormatError) -> Any:
    """Decode JSON; ``error`` for bad syntax, ``NaN``/``Infinity``, numbers
    that overflow to them, and nesting too deep to decode."""
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise error(f"not valid JSON: {exc.msg} at position {exc.pos}") from None
    except (ValueError, RecursionError) as exc:
        raise error(f"not valid JSON: {exc}") from None


def is_unicode(value: Any) -> bool:
    """Whether every string in a decoded JSON value, keys included, encodes as
    UTF-8; a lone surrogate escape such as ``"\\ud800"`` decodes to one that
    does not.  The walk keeps its own stack, so no depth of nesting overflows."""
    if isinstance(value, str):
        if value.isascii():
            return True
    elif not isinstance(value, (dict, list)):
        return True
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            if not item.isascii():
                try:
                    item.encode("utf-8")
                except UnicodeEncodeError:
                    return False
        elif isinstance(item, dict):
            stack += item
            stack += item.values()
        elif isinstance(item, list):
            stack += item
    return True


def _not_utf8(path: str | Path, exc: UnicodeDecodeError) -> FormatError:
    return FormatError(f"{path}: not valid UTF-8 ({exc.reason}, byte 0x{exc.object[exc.start]:02x})")


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file; a FormatError names the file when it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def read_lines(path: str | Path, build: Callable[[str], Any]) -> Iterator[Any]:
    """``build`` of each non-blank line of a UTF-8 JSONL file, minus its newline,
    read as they are consumed; a FormatError from ``build`` names the file and
    the 1-based line and keeps its class, and one names the file when it is not UTF-8."""
    with open(path, encoding="utf-8") as handle:
        try:
            for number, line in enumerate(handle, 1):
                try:
                    if not line.isspace():
                        yield build(line.rstrip("\n"))
                except FormatError as exc:
                    exc.args = (f"{path} line {number}: {exc}",)
                    raise
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None


def read_config(path: str | Path, build: Callable[[Any], Any]) -> Any:
    """``build`` of a JSON config file's decoded document; a FormatError from
    reading, decoding or ``build`` names the file and keeps its class."""
    text = read_text(path)
    try:
        return build(decode_json(text))
    except FormatError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


_REQUIRED = object()
# How a message names each type ``_field`` reads; a Mapping in memory reads as a JSON object.
_PHRASES = {dict: "an object", collections.abc.Mapping: "an object", list: "an array", str: "a string",
            bool: "a boolean", (int, float): "a number", (str, type(None)): "a string or null"}
_OBJECTS = (dict, collections.abc.Mapping)


def _field(doc: Mapping[str, Any], name: str, kind: Any, default: Any = _REQUIRED, where: str = "") -> Any:
    """Field ``name`` of a config document read as ``kind``, or ``default`` when it is absent;
    a FormatError names it as ``where + name`` when it is absent and required, is not ``kind``,
    or holds, or is named by, a string that is not valid Unicode.  ``kind`` is a type in
    ``_PHRASES``, a ``(test, phrase)`` pair, or a reader that returns what the value reads
    as, raising TypeError naming what it is not, ValueError with the reason, or UnicodeError."""
    if name not in doc:
        if default is _REQUIRED:
            raise FormatError(f'missing field "{where}{name}"')
        return default
    value = doc[name]
    phrase = _PHRASES.get(kind)
    if phrase:
        valid = isinstance(value, kind)
    elif isinstance(kind, tuple):
        test, phrase = kind
        valid = test(value)
    else:
        try:
            return kind(value)
        except TypeError as exc:
            valid, phrase = False, str(exc)
        except UnicodeError:
            valid, phrase = False, "valid Unicode"
        except ValueError as exc:
            raise FormatError(f'field "{where}{name}": {exc}') from None
    # An object read by type is not checked whole, as its fields are read, and checked,
    # one by one; the name of any object is, as it may be a key taken from the document.
    if valid and (not (kind in _OBJECTS or is_unicode(value))
                  or isinstance(value, dict) and not is_unicode(name)):
        valid, phrase = False, "valid Unicode"
    if not valid:
        raise FormatError(f'field "{where}{name}" is not {phrase}')
    return value


_SCALARS = (str, int, float, type(None))
_set = object.__setattr__  # how a frozen type's constructor sets its fields


def _copy_args(value: Any, level: int, nid: str) -> Any:
    """A deep copy of a value at nesting ``level`` of node ``nid``'s args:
    mappings and lists are rebuilt as ``dict`` and ``list``, other values kept."""
    if isinstance(value, (dict, collections.abc.Mapping, list)):
        if level > MAX_ARGS_DEPTH:
            raise PlanSyntaxError(f"node {nid!r} args nest deeper than {MAX_ARGS_DEPTH} levels")
        if isinstance(value, list):
            return [v if isinstance(v, _SCALARS) else _copy_args(v, level + 1, nid) for v in value]
        return {k: v if isinstance(v, _SCALARS) else _copy_args(v, level + 1, nid)
                for k, v in value.items()}
    return value


def parse_plan(plan: Any, *, self_loops: str = "reject") -> PlanGraph:
    """Interpret planner output as a PlanGraph: ``plan_from_doc`` of a decoded
    plan document, where a ``str`` is plan text and is decoded first and any
    other value is the document; any rejection raised as PlanSyntaxError.
    Text longer than ``MAX_PLAN_CHARS`` is rejected without being decoded."""
    if isinstance(plan, str):
        if len(plan) > MAX_PLAN_CHARS:
            raise PlanSyntaxError(f"plan text has {len(plan)} characters, more than {MAX_PLAN_CHARS}")
        plan = decode_json(plan, PlanSyntaxError)
    return plan_from_doc(plan, self_loops=self_loops)


def plan_from_doc(doc: Any, *, self_loops: str = "reject") -> PlanGraph:
    """Build a PlanGraph, sharing nothing mutable, from a decoded plan document.

    ``self_loops`` is ``"reject"`` (a self-edge is a syntax failure, the
    default) or ``"cycle"`` (keep it so the cycle check reports it instead).
    Raises PlanSyntaxError for a non-object document, missing/ill-typed
    fields, more than ``MAX_PLAN_NODES`` nodes, args nested deeper than
    ``MAX_ARGS_DEPTH`` levels, or a graph that breaks a PlanGraph invariant
    (duplicate node ids, two nodes sharing a tool, edge endpoints that name
    no node).  Repeated (from, to) pairs collapse to one edge.
    """
    if self_loops not in ("reject", "cycle"):
        raise ValueError(f"self_loops must be 'reject' or 'cycle', got {self_loops!r}")
    if not isinstance(doc, dict):
        raise PlanSyntaxError("top-level value is not an object")
    if "nodes" not in doc:
        raise PlanSyntaxError('missing "nodes" array')
    raw_nodes = doc["nodes"]
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_nodes, list):
        raise PlanSyntaxError('"nodes" is not an array')
    if len(raw_nodes) > MAX_PLAN_NODES:
        raise PlanSyntaxError(f"plan has {len(raw_nodes)} nodes, more than {MAX_PLAN_NODES}")
    if not isinstance(raw_edges, list):
        raise PlanSyntaxError('"edges" is not an array')

    nodes: list[PlanNode] = []
    for i, obj in enumerate(raw_nodes):
        if not isinstance(obj, dict):
            raise PlanSyntaxError(f"node #{i} is not an object")
        nid = obj.get("id")
        tool = obj.get("tool")
        args = obj.get("args", {})
        if not isinstance(nid, str) or not nid:
            raise PlanSyntaxError(f"node #{i} has no usable id")
        if not isinstance(tool, str) or not tool:
            raise PlanSyntaxError(f"node {nid!r} has no usable tool")
        if not isinstance(args, dict):
            raise PlanSyntaxError(f"node {nid!r} args is not an object")
        nodes.append(PlanNode(nid, tool, args))

    pairs: dict[tuple[str, str], None] = {}
    for i, obj in enumerate(raw_edges):
        if not isinstance(obj, dict):
            raise PlanSyntaxError(f"edge #{i} is not an object")
        src = obj.get("from")
        dst = obj.get("to")
        if not isinstance(src, str) or not src or not isinstance(dst, str) or not dst:
            raise PlanSyntaxError(f"edge #{i} lacks usable from/to endpoints")
        pairs[src, dst] = None

    try:
        graph = PlanGraph(tuple(nodes), tuple(PlanEdge(src, dst) for src, dst in pairs))
    except ValueError as exc:
        raise PlanSyntaxError(str(exc)) from None
    if self_loops == "reject":
        for edge in graph.edges:
            if edge.src == edge.dst:
                raise PlanSyntaxError(f"self-loop on node {edge.src!r}")
    return graph


def _canonical_args(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: _canonical_args(value[k]) for k in sorted(value)}
    if isinstance(value, list):
        return [_canonical_args(v) for v in value]
    return value


def plan_doc(g: PlanGraph) -> dict[str, Any]:
    """The canonical plan document of ``g``, sharing nothing mutable with it."""
    return {
        "nodes": [
            {"id": n.id, "tool": n.tool, "args": _canonical_args(dict(n.args))}
            for n in sorted(g.nodes, key=lambda n: n.id)
        ],
        "edges": [
            {"from": e.src, "to": e.dst}
            for e in sorted(g.edges, key=lambda e: (e.src, e.dst))
        ],
    }


def serialize_plan(g: PlanGraph) -> str:
    """Canonical wire form, ``plan_doc(g)`` as compact JSON: nodes sorted by id,
    edges by (from, to), args keys sorted.  ``parse_plan(serialize_plan(g)) ==
    g`` for every valid graph; graphs equal as sets serialize byte-identically."""
    return json.dumps(plan_doc(g), separators=(",", ":"), ensure_ascii=False)


def detect_cycle(g: PlanGraph) -> list[str] | None:
    """Return one witness cycle as node ids (first repeated last), or None.

    Deterministic: nodes and neighbors are explored in ascending id order, so
    the same graph always yields the same witness.  A self-loop reports as
    ``[a, a]``.
    """
    cycle = g._verdict[1]
    return list(cycle) if cycle else None


def _witness_cycle(succ: Mapping[str, tuple[str, ...]]) -> tuple[str, ...] | None:
    """``detect_cycle``'s depth-first search over the successor lists."""
    state: dict[str, int] = {}  # 1 = on current path, 2 = fully explored
    for start in sorted(succ):
        if state.get(start):
            continue
        state[start] = 1
        path = [start]
        stack: list[tuple[str, Iterator[str]]] = [(start, iter(succ[start]))]
        while stack:
            node, neighbors = stack[-1]
            advanced = False
            for nxt in neighbors:
                seen = state.get(nxt)
                if seen == 2:
                    continue
                if seen == 1:
                    return (*path[path.index(nxt):], nxt)
                state[nxt] = 1
                path.append(nxt)
                stack.append((nxt, iter(succ[nxt])))
                advanced = True
                break
            if not advanced:
                stack.pop()
                state[node] = 2
                path.pop()
    return None


def check_connectivity(g: PlanGraph) -> tuple[bool, list[str]]:
    """Whether the underlying undirected graph is weakly connected.

    Plans with zero or one node are connected by convention.  The second
    element lists all degree-0 (isolated) node ids, sorted; a two-component
    plan with no isolated nodes still reports connected=False.
    """
    ids = [n.id for n in g.nodes]
    if len(ids) <= 1:
        return True, []
    undirected: dict[str, set[str]] = {nid: set() for nid in ids}
    for e in g.edges:
        undirected[e.src].add(e.dst)
        undirected[e.dst].add(e.src)
    isolated = sorted(nid for nid in ids if not undirected[nid])
    seen = {ids[0]}
    frontier = [ids[0]]
    while frontier:
        nid = frontier.pop()
        for other in undirected[nid]:
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return len(seen) == len(ids), isolated


def topo_order(g: PlanGraph) -> list[str]:
    """Deterministic topological order (Kahn's algorithm), ties broken by
    ascending node id.

    Raises CycleError carrying ``detect_cycle``'s witness when the plan is
    cyclic; only then does it search for a cycle.
    """
    order, cycle = g._verdict
    if cycle:
        raise CycleError(cycle)
    return list(order)


def validate_graph(g: PlanGraph) -> ValidationReport:
    """Run the cycle and connectivity checks on an already-parsed graph."""
    cycle = detect_cycle(g)
    connected, isolated = check_connectivity(g)
    return ValidationReport(
        syntax_ok=True,
        is_acyclic=cycle is None,
        is_connected=connected,
        first_cycle=tuple(cycle) if cycle else None,
        isolated_nodes=tuple(isolated),
        graph=g,
    )


def validate_text(plan: Any, *, self_loops: str = "reject") -> ValidationReport:
    """Parse and structurally check plan text or a decoded plan document, as
    ``parse_plan`` reads them, never raising on the plan."""
    try:
        g = parse_plan(plan, self_loops=self_loops)
    except PlanSyntaxError as exc:
        return ValidationReport(
            syntax_ok=False, is_acyclic=True, is_connected=True, reason=exc.reason
        )
    return validate_graph(g)


def _dot_quote(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(g: PlanGraph, waves: Mapping[str, int] | None = None) -> str:
    """Render the plan as escaped GraphViz DOT, optionally annotated with wave indices."""
    lines = ["digraph plan {", "  rankdir=LR;"]
    for n in sorted(g.nodes, key=lambda n: n.id):
        label = f"{_dot_quote(n.id)}\\n{_dot_quote(n.tool)}"
        if waves is not None and n.id in waves:
            label += f"\\nwave {waves[n.id]}"
        lines.append(f'  "{_dot_quote(n.id)}" [label="{label}"];')
    for e in sorted(g.edges, key=lambda e: (e.src, e.dst)):
        lines.append(f'  "{_dot_quote(e.src)}" -> "{_dot_quote(e.dst)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
