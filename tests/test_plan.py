"""Plan parsing, serialization, and structural checks.

Cycle detection is checked against a transitive-closure self-reachability
oracle, connectivity against a union-find component count, and topological
order against a per-edge position check.
"""

from __future__ import annotations

import json
import random
import re

import pytest

from dagplan import (
    CycleError,
    PlanGraph,
    PlanNode,
    PlanSyntaxError,
    RewardBranch,
    check_connectivity,
    detect_cycle,
    parse_plan,
    score_plan,
    serialize_plan,
    to_dot,
    topo_order,
    validate_graph,
    validate_text,
)
from helpers import make_plan, plan_text, random_any_plan, random_gold


# --- independent oracles ------------------------------------------------------


def transitive_closure(ids, edges):
    reach = {i: set() for i in ids}
    for a, b in edges:
        reach[a].add(b)
    for k in ids:
        for i in ids:
            if k in reach[i]:
                reach[i] |= reach[k]
    return reach


def has_cycle_oracle(g: PlanGraph) -> bool:
    ids = [n.id for n in g.nodes]
    reach = transitive_closure(ids, [(e.src, e.dst) for e in g.edges])
    return any(nid in reach[nid] for nid in ids)


def component_count_oracle(g: PlanGraph) -> int:
    parent = {n.id: n.id for n in g.nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in g.edges:
        parent[find(e.src)] = find(e.dst)
    return len({find(n.id) for n in g.nodes})


# --- parsing -------------------------------------------------------------------


def test_parse_minimal_plan():
    g = parse_plan('{"nodes":[{"id":"a","tool":"t1","args":{}}],"edges":[]}')
    assert len(g.nodes) == 1
    assert len(g.edges) == 0
    assert g.nodes[0].id == "a"
    assert g.nodes[0].tool == "t1"


def test_parse_rejects_non_json():
    with pytest.raises(PlanSyntaxError):
        parse_plan("not a plan at all")


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2, 3]",
        '"just a string"',
        "42",
        "{}",
        '{"nodes": 7, "edges": []}',
        '{"nodes": [], "edges": {}}',
        '{"nodes": [[1]], "edges": []}',
        '{"nodes":[{"id":"","tool":"t"}],"edges":[]}',
        '{"nodes":[{"id":"a"}],"edges":[]}',
        '{"nodes":[{"id":"a","tool":"t","args":[1]}],"edges":[]}',
        '{"nodes":[{"id":"a","tool":"t"}],"edges":[7]}',
        '{"nodes":[{"id":"a","tool":"t"}],"edges":[{"from":"a"}]}',
        '{"nodes":[{"id":"a","tool":1}],"edges":[]}',
    ],
)
def test_parse_rejects_malformed_documents(text):
    with pytest.raises(PlanSyntaxError):
        parse_plan(text)


def test_parse_unknown_endpoint_names_offender():
    text = plan_text([("a", "t1"), ("b", "t2")], [("a", "z")])
    with pytest.raises(PlanSyntaxError, match="unknown endpoint 'z'"):
        parse_plan(text)


def test_parse_duplicate_node_id_rejected():
    with pytest.raises(PlanSyntaxError, match="duplicate node id"):
        parse_plan(plan_text([("a", "t1"), ("a", "t2")], []))


def test_parse_duplicate_tool_rejected():
    with pytest.raises(PlanSyntaxError, match="more than one node"):
        parse_plan(plan_text([("a", "t1"), ("b", "t1")], []))


def test_parse_self_loop_is_syntax_failure_by_default():
    text = plan_text([("a", "t1")], [("a", "a")])
    with pytest.raises(PlanSyntaxError, match="self-loop"):
        parse_plan(text)


def test_parse_self_loop_kept_in_cycle_mode():
    text = plan_text([("a", "t1")], [("a", "a")])
    g = parse_plan(text, self_loops="cycle")
    assert detect_cycle(g) == ["a", "a"]


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_parse_rejects_non_finite_numbers(number):
    # json accepts these, but the canonical serialization could not write them back.
    text = '{"nodes":[{"id":"a","tool":"t1","args":{"x":%s}}],"edges":[]}' % number
    with pytest.raises(PlanSyntaxError, match="not finite"):
        parse_plan(text)


def test_parse_duplicate_edges_collapse():
    text = plan_text([("a", "t1"), ("b", "t2")], [("a", "b"), ("a", "b")])
    assert len(parse_plan(text).edges) == 1


def test_parse_missing_edges_key_defaults_empty():
    g = parse_plan('{"nodes":[{"id":"a","tool":"t1"}]}')
    assert g.edges == ()


def test_parse_empty_plan_is_valid():
    g = parse_plan('{"nodes":[],"edges":[]}')
    assert len(g) == 0
    assert detect_cycle(g) is None
    assert check_connectivity(g) == (True, [])


def test_graph_construction_validates_invariants():
    with pytest.raises(ValueError):
        PlanGraph((PlanNode("a", "t1"), PlanNode("a", "t2")), ())
    with pytest.raises(ValueError):
        make_plan([("a", "t1")], [("a", "b")])


# --- cycle detection -----------------------------------------------------------


def test_detect_cycle_absent_on_path():
    g = make_plan([("a", "t1"), ("b", "t2"), ("c", "t3")], [("a", "b"), ("b", "c")])
    assert detect_cycle(g) is None


def test_detect_cycle_two_cycle_witness():
    g = make_plan([("a", "t1"), ("b", "t2")], [("a", "b"), ("b", "a")])
    assert detect_cycle(g) == ["a", "b", "a"]


def test_detect_cycle_witness_is_a_real_cycle():
    rng = random.Random(1234)
    found = 0
    for _ in range(300):
        g = random_any_plan(rng, max_nodes=8, edge_prob=0.35)
        witness = detect_cycle(g)
        if witness is None:
            continue
        found += 1
        assert witness[0] == witness[-1]
        assert len(witness) >= 3  # no self-loops in these graphs
        pairs = g.edge_pairs
        for src, dst in zip(witness, witness[1:]):
            assert (src, dst) in pairs
    assert found > 20


def test_detect_cycle_matches_reachability_oracle_over_seeds():
    for seed in range(100):
        rng = random.Random(seed)
        g = random_any_plan(rng, max_nodes=8, edge_prob=0.3)
        assert (detect_cycle(g) is not None) == has_cycle_oracle(g), f"seed {seed}"


# --- connectivity ---------------------------------------------------------------


def test_connectivity_single_node_by_convention():
    assert check_connectivity(make_plan([("a", "t1")], [])) == (True, [])


def test_connectivity_isolated_node_listed():
    g = make_plan([("a", "t1"), ("b", "t2"), ("c", "t3")], [("a", "b")])
    assert check_connectivity(g) == (False, ["c"])


def test_connectivity_two_components_without_isolated_nodes():
    g = make_plan(
        [("a", "t1"), ("b", "t2"), ("c", "t3"), ("d", "t4")],
        [("a", "b"), ("c", "d")],
    )
    connected, isolated = check_connectivity(g)
    assert connected is False
    assert isolated == []
    assert component_count_oracle(g) == 2


def test_connectivity_matches_union_find_oracle_over_seeds():
    for seed in range(100):
        rng = random.Random(seed)
        g = random_any_plan(rng, max_nodes=8, edge_prob=0.2)
        connected, isolated = check_connectivity(g)
        expected = component_count_oracle(g) <= 1 if len(g) >= 2 else True
        assert connected == expected, f"seed {seed}"
        degree = {n.id: 0 for n in g.nodes}
        for e in g.edges:
            degree[e.src] += 1
            degree[e.dst] += 1
        expected_isolated = sorted(n for n, d in degree.items() if d == 0) if len(g) >= 2 else []
        assert isolated == expected_isolated


# --- topological order -----------------------------------------------------------


def test_topo_order_breaks_ties_by_node_id():
    g = make_plan([("c", "t3"), ("a", "t1"), ("b", "t2")], [("a", "c"), ("b", "c")])
    assert topo_order(g) == ["a", "b", "c"]


def test_topo_order_raises_on_cycle():
    g = make_plan([("a", "t1"), ("b", "t2")], [("a", "b"), ("b", "a")])
    with pytest.raises(CycleError) as err:
        topo_order(g)
    assert err.value.cycle == ["a", "b", "a"]


def test_topo_order_respects_every_edge_over_seeds():
    for seed in range(100):
        rng = random.Random(seed)
        g = random_gold(rng, max_nodes=8)
        order = topo_order(g)
        assert sorted(order) == sorted(n.id for n in g.nodes)
        position = {nid: i for i, nid in enumerate(order)}
        for e in g.edges:
            assert position[e.src] < position[e.dst], f"seed {seed}"


def test_cycle_detection_and_topo_agree():
    for seed in range(100):
        rng = random.Random(10_000 + seed)
        g = random_any_plan(rng, max_nodes=7, edge_prob=0.3)
        cyclic = detect_cycle(g) is not None
        if cyclic:
            with pytest.raises(CycleError):
                topo_order(g)
        else:
            topo_order(g)


# --- serialization ----------------------------------------------------------------


def test_serialize_empty_graph_exact_bytes():
    assert serialize_plan(PlanGraph((), ())) == '{"nodes":[],"edges":[]}'


def test_round_trip_identity_over_seeds():
    for seed in range(100):
        rng = random.Random(seed)
        g = random_any_plan(rng, max_nodes=8, edge_prob=0.3)
        assert parse_plan(serialize_plan(g)) == g


def test_round_trip_preserves_args():
    g = make_plan(
        [("a", "t1", {"z": 1, "a": [1, {"k": "v"}]}), ("b", "t2", {"ref": "$a.digest"})],
        [("a", "b")],
    )
    assert parse_plan(serialize_plan(g)) == g


def test_set_equal_graphs_serialize_byte_identically():
    g1 = make_plan([("a", "t1"), ("b", "t2"), ("c", "t3")], [("a", "b"), ("a", "c")])
    g2 = make_plan([("c", "t3"), ("b", "t2"), ("a", "t1")], [("a", "c"), ("a", "b")])
    assert g1 == g2
    assert serialize_plan(g1) == serialize_plan(g2)


def test_graph_equality_is_set_based():
    g1 = make_plan([("a", "t1"), ("b", "t2")], [("a", "b")])
    g2 = make_plan([("b", "t2"), ("a", "t1")], [("a", "b")])
    g3 = make_plan([("a", "t1"), ("b", "t2")], [])
    assert g1 == g2
    assert g1 != g3


# --- validation reports -------------------------------------------------------------


def test_validate_text_syntax_failure_report():
    report = validate_text("garbage")
    assert report.syntax_ok is False
    assert report.reason
    # Structural flags are vacuous for unparseable text.
    assert report.is_acyclic is True
    assert report.first_cycle is None
    assert report.fully_valid is False


def test_validation_report_invariants_over_seeds():
    for seed in range(100):
        rng = random.Random(seed)
        g = random_any_plan(rng, max_nodes=8, edge_prob=0.25)
        report = validate_graph(g)
        assert report.syntax_ok is True
        assert (report.first_cycle is not None) == (not report.is_acyclic)
        if report.isolated_nodes and len(g) >= 2:
            assert report.is_connected is False
        doc = report.to_dict()
        assert set(doc) == {
            "syntax_ok", "is_acyclic", "is_connected",
            "first_cycle", "isolated_nodes", "reason",
        }


def test_to_dot_mentions_nodes_edges_and_waves():
    g = make_plan([("a", "t1"), ("b", "t2")], [("a", "b")])
    dot = to_dot(g, waves={"a": 0, "b": 1})
    assert '"a" -> "b";' in dot
    assert "wave 1" in dot
    assert dot.startswith("digraph plan {")


def test_parse_plan_rejects_bad_self_loops_flag():
    with pytest.raises(ValueError):
        parse_plan("{}", self_loops="explode")


def test_to_dot_escapes_quotes_and_backslashes():
    g = make_plan([('a"b', "t\\1"), ("c", "t2")], [('a"b', "c")])
    dot = to_dot(g, waves={'a"b': 0, "c": 1})
    assert '"a\\"b" -> "c";' in dot
    quoted = r'"(?:[^"\\]|\\.)*"'
    for line in dot.splitlines()[2:-1]:
        assert re.fullmatch(rf"  {quoted}(?: \[label={quoted}\]| -> {quoted});", line), line


def _nested_args_text(levels, container):
    """A one-node plan whose args nest ``levels`` containers deep, args included."""
    value = 0
    for _ in range(levels - 1):
        value = [value] if container == "list" else {"x": value}
    return plan_text([("a", "t1", {"x": value})], [])


@pytest.mark.parametrize("container", ["list", "dict"])
def test_args_nested_past_the_limit_are_a_syntax_failure(container):
    from dagplan.plan import MAX_ARGS_DEPTH

    at_limit = parse_plan(_nested_args_text(MAX_ARGS_DEPTH, container))
    assert parse_plan(serialize_plan(at_limit)) == at_limit
    # 600 levels decode as JSON, but serializing them would exhaust the stack.
    for levels in (MAX_ARGS_DEPTH + 1, 600):
        text = _nested_args_text(levels, container)
        with pytest.raises(PlanSyntaxError, match="nest deeper"):
            parse_plan(text)
        assert validate_text(text).failed_check == "syntax"


def _chain_text(n):
    return plan_text([(f"n{i}", f"t{i}") for i in range(n)],
                     [(f"n{i}", f"n{i + 1}") for i in range(n - 1)])


def test_plans_over_the_node_limit_are_a_syntax_failure():
    from dagplan.plan import MAX_PLAN_NODES

    assert MAX_PLAN_NODES == 1000
    assert len(parse_plan(_chain_text(MAX_PLAN_NODES)).nodes) == MAX_PLAN_NODES
    text = _chain_text(MAX_PLAN_NODES + 1)
    with pytest.raises(PlanSyntaxError, match="1001 nodes, more than 1000"):
        parse_plan(text)
    assert validate_text(text).failed_check == "syntax"
    gold = make_plan([("a", "t1"), ("b", "t2")], [("a", "b")])
    assert score_plan(text, gold).branch is RewardBranch.SYNTAX


def test_node_limit_binds_the_parser_and_not_a_graph_built_in_memory():
    from dagplan.plan import MAX_PLAN_NODES

    n = MAX_PLAN_NODES + 1
    nodes = [(f"n{i}", f"t{i}") for i in range(n)]
    edges = [(f"n{i}", f"n{i + 1}") for i in range(n - 1)]
    graph = make_plan(nodes, edges)
    assert len(graph.nodes) == n
    with pytest.raises(PlanSyntaxError, match=f"{n} nodes, more than {MAX_PLAN_NODES}"):
        parse_plan(serialize_plan(graph))
    with pytest.raises(PlanSyntaxError, match=f"{n} nodes, more than {MAX_PLAN_NODES}"):
        parse_plan(json.loads(serialize_plan(graph)))


def test_plan_text_over_the_length_limit_is_a_syntax_failure_before_decoding():
    from dagplan.plan import MAX_PLAN_CHARS

    assert MAX_PLAN_CHARS == 1_000_000
    text = plan_text([("a", "t1"), ("b", "t2")], [("a", "b")])
    at_limit = text + " " * (MAX_PLAN_CHARS - len(text))
    assert parse_plan(at_limit) == parse_plan(text)
    message = f"plan text has {MAX_PLAN_CHARS + 1} characters, more than {MAX_PLAN_CHARS}"
    # Not JSON either: the length is checked first.
    for over in (at_limit + " ", "[" * (MAX_PLAN_CHARS + 1)):
        with pytest.raises(PlanSyntaxError) as err:
            parse_plan(over)
        assert err.value.reason == message
        assert validate_text(over).failed_check == "syntax"
        assert score_plan(over, parse_plan(text)).branch is RewardBranch.SYNTAX


def test_plan_node_keeps_its_own_copy_of_args():
    args = {"x": [1, {"k": "v"}], "ref": "$a.digest"}
    g = make_plan([("a", "t1"), ("b", "t2", args)], [("a", "b")])
    before = serialize_plan(g)
    args["x"][1]["k"] = "changed"
    args["x"].append(2)
    args["new"] = True
    assert serialize_plan(g) == before


def test_plan_node_args_nested_past_the_limit_raise():
    from dagplan.plan import MAX_ARGS_DEPTH

    value = 0
    for _ in range(MAX_ARGS_DEPTH):
        value = [value]
    with pytest.raises(PlanSyntaxError, match="nest deeper"):
        PlanNode("a", "t1", {"x": value})
