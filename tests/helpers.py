"""Shared input builders for the test suite.

These construct graphs and plan text; expected values always come from the
independent oracles defined inside each test module, never from here.
"""

from __future__ import annotations

import json
import random

from dagplan import PlanEdge, PlanGraph, PlanNode


def plan_text(nodes, edges) -> str:
    """Raw plan JSON from compact specs: nodes [(id, tool[, args])], edges [(src, dst)]."""
    node_docs = []
    for spec in nodes:
        nid, tool, *rest = spec
        node_docs.append({"id": nid, "tool": tool, "args": rest[0] if rest else {}})
    return json.dumps(
        {"nodes": node_docs, "edges": [{"from": a, "to": b} for a, b in edges]}
    )


def make_plan(nodes, edges) -> PlanGraph:
    built_nodes = []
    for spec in nodes:
        nid, tool, *rest = spec
        built_nodes.append(PlanNode(nid, tool, rest[0] if rest else {}))
    return PlanGraph(tuple(built_nodes), tuple(PlanEdge(a, b) for a, b in edges))


def chain_plan(tools) -> PlanGraph:
    nodes = [(f"n{i}", tool) for i, tool in enumerate(tools)]
    edges = [(f"n{i}", f"n{i+1}") for i in range(len(tools) - 1)]
    return make_plan(nodes, edges)


def fan_out_plan(width: int) -> PlanGraph:
    """A root node with ``width`` successors and nothing else."""
    return make_plan([("root", "t0")] + [(f"n{i:02d}", f"t{i + 1}") for i in range(width)],
                     [("root", f"n{i:02d}") for i in range(width)])


def random_gold(rng: random.Random, max_nodes: int = 8, tool_pool=None) -> PlanGraph:
    """Random valid gold: non-empty, acyclic, weakly connected.

    Spanning tree (every node i>0 gets one parent with a smaller index) plus
    extra forward edges; all edges go index-forward.
    """
    n = rng.randint(1, max_nodes)
    pool = list(tool_pool) if tool_pool else [f"t{i}" for i in range(1, 2 * max_nodes + 2)]
    tools = rng.sample(pool, n)
    edges: set[tuple[int, int]] = set()
    for i in range(1, n):
        edges.add((rng.randrange(i), i))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < 0.25:
                edges.add((i, j))
    return make_plan(
        [(f"n{i}", tools[i]) for i in range(n)],
        [(f"n{a}", f"n{b}") for a, b in sorted(edges)],
    )


def random_any_plan(
    rng: random.Random,
    max_nodes: int = 8,
    edge_prob: float = 0.3,
    tool_pool=None,
    min_nodes: int = 0,
) -> PlanGraph:
    """Arbitrary digraph: possibly cyclic, disconnected, or empty (no self-loops)."""
    n = rng.randint(min_nodes, max_nodes)
    pool = list(tool_pool) if tool_pool else [f"t{i}" for i in range(1, 2 * max_nodes + 2)]
    tools = rng.sample(pool, n)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < edge_prob
    ]
    return make_plan(
        [(f"n{i}", tools[i]) for i in range(n)],
        [(f"n{a}", f"n{b}") for a, b in edges],
    )
