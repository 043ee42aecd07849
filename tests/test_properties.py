"""Properties of the structural checks over random graphs, cyclic or not.

``topo_order`` is compared with a Kahn's algorithm written here, and
``preflight``'s reference check with ancestor sets computed here by a walk up
the test's own edge list.  The structural verdict a graph computes once and
caches is compared with that Kahn's algorithm and with an uncached copy of
``detect_cycle``'s depth-first search, also when eight threads compute it at
once, and ``check_connectivity`` with components found by union-find here.
``execute`` records whatever exception a registry raises as its node's failure.
"""

from __future__ import annotations

import builtins
import copy
import heapq
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagplan import (
    CycleError, MockRegistry, PlanEdge, PlanGraph, PlanNode, ToolError, check_connectivity, detect_cycle,
    execute, parse_plan, topo_order, validate_graph,
)
from dagplan.executor import PreflightError, preflight
from helpers import plan_text

MAX_NODES = 8


@st.composite
def edge_lists(draw, acyclic: bool) -> tuple[int, list[tuple[int, int]]]:
    """A node count and directed edges between distinct nodes; with ``acyclic``,
    every edge goes from a lower to a higher index."""
    n = draw(st.integers(1, MAX_NODES))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n, unique=True))
    return n, [(a, b) for a, b in pairs if (a < b if acyclic else a != b)]


def node_id(i: int) -> str:
    # Index order differs from id order, so ties are not broken by index.
    return f"n{(i * 5) % MAX_NODES}{i}"


def build(n: int, edges, args=None) -> PlanGraph:
    args = args or {}
    nodes = tuple(PlanNode(node_id(i), f"t{i}", args.get(i, {})) for i in range(n))
    return PlanGraph(nodes, tuple(PlanEdge(node_id(a), node_id(b)) for a, b in edges))


def reference_kahn(n: int, edges) -> list[str] | None:
    """Kahn's algorithm with a heap of ids; None when some node is never freed."""
    indegree = {node_id(i): 0 for i in range(n)}
    out = {node_id(i): [] for i in range(n)}
    for a, b in edges:
        out[node_id(a)].append(node_id(b))
        indegree[node_id(b)] += 1
    ready = [nid for nid, d in indegree.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        nid = heapq.heappop(ready)
        order.append(nid)
        for nxt in out[nid]:
            indegree[nxt] -= 1
            if not indegree[nxt]:
                heapq.heappush(ready, nxt)
    return order if len(order) == n else None


def ancestors(n: int, edges, i: int) -> set[int]:
    found: set[int] = set()
    stack = [i]
    while stack:
        j = stack.pop()
        for a, b in edges:
            if b == j and a not in found:
                found.add(a)
                stack.append(a)
    return found


@settings(max_examples=300, deadline=None)
@given(st.booleans().flatmap(edge_lists))
def test_topo_order_is_kahn_or_a_cycle_error_with_detect_cycles_witness(graph):
    n, edges = graph
    g = build(n, edges)
    expected = reference_kahn(n, edges)
    if expected is not None:
        assert topo_order(g) == expected
    else:
        with pytest.raises(CycleError) as err:
            topo_order(g)
        assert err.value.cycle == detect_cycle(g)


def uncached_cycle(g: PlanGraph) -> list[str] | None:
    """Depth-first search in ascending id order; the first cycle closed."""
    succ = g.successors
    state: dict[str, int] = {}  # 1 = on current path, 2 = fully explored
    for start in sorted(succ):
        if state.get(start):
            continue
        state[start] = 1
        path = [start]
        stack = [(start, iter(succ[start]))]
        while stack:
            node, neighbors = stack[-1]
            advanced = False
            for nxt in neighbors:
                seen = state.get(nxt)
                if seen == 2:
                    continue
                if seen == 1:
                    return path[path.index(nxt):] + [nxt]
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


@st.composite
def looped_edge_lists(draw) -> tuple[int, list[tuple[int, int]]]:
    """A node count and directed edges, self-loops included."""
    n = draw(st.integers(1, MAX_NODES))
    return n, draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                            max_size=3 * n, unique=True))


@settings(max_examples=300, deadline=None)
@given(looped_edge_lists(), st.permutations(["detect_cycle", "topo_order", "validate_graph"]))
def test_the_cached_verdict_matches_the_uncached_checks_in_any_call_order(graph, calls):
    n, edges = graph
    text = plan_text([(node_id(i), f"t{i}") for i in range(n)],
                     [(node_id(a), node_id(b)) for a, b in edges])
    g = parse_plan(text, self_loops="cycle")
    cycle = uncached_cycle(g)
    order = reference_kahn(n, edges)
    assert (cycle is None) == (order is not None)
    connected, isolated = check_connectivity(g)
    # Each check twice, in the drawn order; every list returned is then mutated.
    for name in calls + calls:
        if name == "detect_cycle":
            got = detect_cycle(g)
            assert got == cycle
        elif name == "validate_graph":
            report = validate_graph(g)
            assert (report.is_acyclic, report.first_cycle) == (cycle is None, tuple(cycle or ()) or None)
            assert (report.is_connected, report.isolated_nodes) == (connected, tuple(isolated))
            got = None
        elif cycle is None:
            got = topo_order(g)
            assert got == order
        else:
            with pytest.raises(CycleError) as err:
                topo_order(g)
            got = err.value.cycle
            assert got == cycle
        if got:
            got.reverse()
            got.append("mutated")


@settings(max_examples=300, deadline=None)
@given(looped_edge_lists())
def test_check_connectivity_matches_union_find_components_and_degree_zero_nodes(graph):
    n, edges = graph
    parent = list(range(n))

    def root(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    for a, b in edges:
        parent[root(a)] = root(b)
    components = len({root(i) for i in range(n)})
    # A self-loop gives its node degree 2, so only a node on no edge is isolated.
    touched = {i for edge in edges for i in edge}
    isolated = sorted(node_id(i) for i in range(n) if i not in touched) if n > 1 else []
    assert check_connectivity(build(n, edges)) == (components == 1, isolated)


VIEWS = ("node_index", "edge_pairs", "successors", "predecessors", "tool_set", "_verdict", "edge_tool_pairs")


@settings(max_examples=50, deadline=None)
@given(looped_edge_lists())
def test_eight_threads_first_reading_the_cached_views_at_once_all_read_equal_values(graph):
    n, edges = graph
    g = build(n, edges)
    barrier = threading.Barrier(8, timeout=10)
    seen: list[dict] = [{} for _ in range(8)]

    def read(k: int) -> None:
        barrier.wait()
        # Each thread starts at a different view, so every view has a first reader racing others.
        for name in VIEWS[k % len(VIEWS):] + VIEWS[:k % len(VIEWS)]:
            seen[k][name] = getattr(g, name)

    threads = [threading.Thread(target=read, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    fresh = build(n, edges)
    assert all(views == {name: getattr(fresh, name) for name in VIEWS} for views in seen)
    order = reference_kahn(n, edges)
    if order is not None:
        assert topo_order(g) == order
    else:
        assert detect_cycle(g) == uncached_cycle(g)
    for clone in (copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert clone == fresh
        assert {name: getattr(clone, name) for name in VIEWS} == seen[0]
        assert validate_graph(clone) == validate_graph(fresh)


@settings(max_examples=300, deadline=None)
@given(st.booleans().flatmap(edge_lists), st.data())
def test_preflight_accepts_a_reference_exactly_when_it_names_an_ancestor(graph, data):
    n, edges = graph
    refs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    args: dict[int, dict] = {}
    for k, (i, target) in enumerate(refs):
        args.setdefault(i, {})[f"in{k}"] = f"${node_id(target)}.digest"
    g = build(n, edges, args)
    if reference_kahn(n, edges) is None:
        with pytest.raises(PreflightError, match="invalid plan: plan contains a cycle: "
                           + " -> ".join(detect_cycle(g))):
            preflight(g, MockRegistry())
        return
    # The first bad reference in node order, then in args order.
    bad = [(i, target) for i in range(n) for j, target in refs
           if j == i and target not in ancestors(n, edges, i)]
    if not bad:
        assert preflight(g, MockRegistry()) == reference_kahn(n, edges)
    else:
        i, target = bad[0]
        with pytest.raises(PreflightError) as err:
            preflight(g, MockRegistry())
        assert str(err.value) == (f"node {node_id(i)!r} references {node_id(target)!r}, "
                                  "which is not a predecessor")


def _takes_a_message(cls: type) -> bool:
    try:
        cls("boom")
    except Exception:
        return False
    return True


class Unprintable(Exception):
    def __str__(self) -> str:
        raise ValueError("no message")


EXCEPTION_TYPES = sorted(
    (c for c in vars(builtins).values()
     if isinstance(c, type) and issubclass(c, Exception) and _takes_a_message(c)),
    key=lambda c: c.__name__) + [ToolError, Unprintable]


@st.composite
def registry_exceptions(draw) -> Exception:
    """An instance of a builtin Exception type, ToolError or one whose
    ``__str__`` raises, or of a subclass of one of them with a drawn name."""
    cls = draw(st.sampled_from(EXCEPTION_TYPES))
    if draw(st.booleans()):
        cls = type(draw(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,11}", fullmatch=True)), (cls,), {})
    return cls(draw(st.text(max_size=12)))


class RaisingRegistry(MockRegistry):
    def __init__(self, exc: Exception, tool: str):
        super().__init__()
        self.exc, self.tool = exc, tool

    def invoke(self, tool_id, args):
        if tool_id == self.tool:
            raise self.exc
        return super().invoke(tool_id, args)


@settings(max_examples=300, deadline=None)
@given(edge_lists(acyclic=True), registry_exceptions(), st.data())
def test_a_registry_exception_fails_its_node_and_is_never_raised(graph, exc, data):
    n, edges = graph
    i = data.draw(st.integers(0, n - 1))
    policy = data.draw(st.sampled_from(["fail_fast", "continue"]))
    trace = execute(build(n, edges), RaisingRegistry(exc, f"t{i}"), policy)
    result = trace.nodes[node_id(i)]
    assert result.status == "failed"
    name = type(exc).__name__
    if isinstance(exc, ToolError):
        assert result.error == str(exc)
    elif isinstance(exc, Unprintable):
        assert result.error == f"{name}: <unprintable {name}>"
    else:
        assert result.error == f"{name}: {exc}"
