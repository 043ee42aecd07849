"""Wave scheduling, data flow, failure policies, and end-to-end runs.

Wave counts are checked against an exhaustive longest-path enumeration; wave
soundness against per-edge timestamp comparison.
"""

from __future__ import annotations

import json
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from dagplan import (
    CycleError,
    HttpRegistry,
    MockRegistry,
    PlanGraph,
    PlanRejectedError,
    PreflightError,
    RewardBranch,
    ScriptedClient,
    ToolError,
    ToolRegistry,
    count_waves,
    execute,
    leaf_outputs,
    run_end_to_end,
    serialize_plan,
    trace_to_dot,
)
from helpers import chain_plan, make_plan, random_gold


def longest_path_oracle(g: PlanGraph) -> int:
    """Exhaustive maximum path length in nodes; no memoization on purpose."""
    succ = {n.id: list(g.successors[n.id]) for n in g.nodes}
    best = 0

    def walk(node: str, length: int) -> None:
        nonlocal best
        best = max(best, length)
        for nxt in succ[node]:
            walk(nxt, length + 1)

    for n in g.nodes:
        walk(n.id, 1)
    return best


DIAMOND = make_plan(
    [("a", "t1"), ("b", "t2"), ("c", "t3"), ("d", "t4")],
    [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
)


def test_diamond_runs_in_three_waves():
    trace = execute(DIAMOND, MockRegistry())
    assert trace.waves == 3
    assert trace.nodes["b"].wave == trace.nodes["c"].wave == 1
    assert trace.ok()


def test_linear_chain_runs_in_k_waves():
    plan = chain_plan([f"t{i}" for i in range(1, 6)])
    trace = execute(plan, MockRegistry())
    assert trace.waves == 5


def test_independent_nodes_share_one_wave():
    plan = make_plan([("a", "t1"), ("b", "t2"), ("c", "t3"), ("d", "t4")], [])
    trace = execute(plan, MockRegistry())
    assert trace.waves == 1
    assert {r.wave for r in trace.nodes.values()} == {0}


def test_count_waves_examples():
    assert count_waves(make_plan([("a", "t1")], [])) == 1
    assert count_waves(chain_plan(["t1", "t2", "t3", "t4", "t5"])) == 5
    assert count_waves(DIAMOND) == 3
    assert count_waves(PlanGraph((), ())) == 0


def test_count_waves_raises_on_cycle():
    cyclic = make_plan([("a", "t1"), ("b", "t2")], [("a", "b"), ("b", "a")])
    with pytest.raises(CycleError):
        count_waves(cyclic)


def test_count_waves_matches_exhaustive_oracle_over_seeds():
    for seed in range(100):
        g = random_gold(random.Random(seed), max_nodes=8)
        assert count_waves(g) == longest_path_oracle(g), f"seed {seed}"


def test_trace_waves_equal_static_count_for_successful_runs():
    for seed in range(30):
        g = random_gold(random.Random(seed), max_nodes=8)
        trace = execute(g, MockRegistry())
        assert trace.waves == count_waves(g)
        assert trace.ok()


def test_wave_soundness_timestamps():
    for seed in range(20):
        g = random_gold(random.Random(1000 + seed), max_nodes=8)
        trace = execute(g, MockRegistry())
        for e in g.edges:
            assert trace.nodes[e.dst].started >= trace.nodes[e.src].finished


# --- data flow ----------------------------------------------------------------


def test_mock_outputs_are_deterministic_digests():
    registry = MockRegistry()
    first = registry.invoke("t1", {"x": 1})
    second = registry.invoke("t1", {"x": 1})
    different = registry.invoke("t1", {"x": 2})
    assert first == second
    assert first["digest"] != different["digest"]
    assert first["tool"] == "t1"


def test_argument_references_resolve_along_edges():
    plan = make_plan(
        [
            ("a", "t1", {"seed": 5}),
            ("b", "t2", {"upstream": "$a.digest"}),
            ("c", "t3", {"nested": {"value": "$b.digest"}, "listed": ["$a.digest"]}),
        ],
        [("a", "b"), ("b", "c")],
    )
    trace = execute(plan, MockRegistry())
    a_digest = trace.nodes["a"].output["digest"]
    assert trace.nodes["b"].output["args"]["upstream"] == a_digest
    assert trace.nodes["c"].output["args"]["nested"]["value"] == trace.nodes["b"].output["digest"]
    assert trace.nodes["c"].output["args"]["listed"] == [a_digest]


def test_whole_output_and_escaped_references():
    plan = make_plan(
        [("a", "t1"), ("b", "t2", {"all": "$a", "literal": "$$a.digest"})],
        [("a", "b")],
    )
    trace = execute(plan, MockRegistry())
    assert trace.nodes["b"].output["args"]["all"]["tool"] == "t1"
    assert trace.nodes["b"].output["args"]["literal"] == "$a.digest"


def test_reference_to_non_predecessor_fails_preflight():
    plan = make_plan(
        [("a", "t1"), ("b", "t2", {"bad": "$c.digest"}), ("c", "t3")],
        [("a", "b"), ("a", "c")],
    )
    with pytest.raises(PreflightError, match="not a predecessor"):
        execute(plan, MockRegistry())


def test_reference_to_unknown_node_fails_preflight():
    plan = make_plan(
        [("a", "t1"), ("b", "t2", {"bad": "$zz.digest"})],
        [("a", "b")],
    )
    with pytest.raises(PreflightError, match="unknown node"):
        execute(plan, MockRegistry())


def test_transitive_predecessor_reference_is_allowed():
    plan = make_plan(
        [("a", "t1"), ("b", "t2"), ("c", "t3", {"root": "$a.digest"})],
        [("a", "b"), ("b", "c")],
    )
    trace = execute(plan, MockRegistry())
    assert trace.nodes["c"].output["args"]["root"] == trace.nodes["a"].output["digest"]


def test_missing_field_path_is_a_runtime_node_failure():
    plan = make_plan(
        [("a", "t1"), ("b", "t2", {"bad": "$a.nope.deep"})],
        [("a", "b")],
    )
    trace = execute(plan, MockRegistry())
    assert trace.nodes["a"].status == "ok"
    assert trace.nodes["b"].status == "failed"
    assert "no field" in trace.nodes["b"].error


# --- preflight -----------------------------------------------------------------


def test_unresolved_tool_refuses_to_start():
    class NarrowRegistry(ToolRegistry):
        def resolves(self, tool_id):
            return tool_id == "t1"

        def invoke(self, tool_id, args):
            return {}

    with pytest.raises(PreflightError, match="unresolved tools"):
        execute(DIAMOND, NarrowRegistry())


def test_cyclic_plan_fails_preflight():
    cyclic = make_plan([("a", "t1"), ("b", "t2")], [("a", "b"), ("b", "a")])
    with pytest.raises(PreflightError, match="cycle"):
        execute(cyclic, MockRegistry())


def test_disconnected_plan_is_directly_executable():
    # The runtime accepts any acyclic plan; rejecting disconnected planner
    # output is run_end_to_end's validation gate (see its test below).
    plan = make_plan([("a", "t1"), ("b", "t2"), ("c", "t3")], [("a", "b")])
    trace = execute(plan, MockRegistry())
    assert trace.ok()
    assert trace.waves == 2


# --- failure policies -------------------------------------------------------------


def test_fail_fast_skips_everything_after_first_failure():
    plan = chain_plan(["t1", "t2", "t3", "t4"])
    trace = execute(plan, MockRegistry(fail=("t2",)), policy="fail_fast")
    statuses = trace.statuses()
    assert statuses["n0"] == "ok"
    assert statuses["n1"] == "failed"
    assert statuses["n2"] == statuses["n3"] == "skipped"
    assert trace.waves == 2  # two waves actually executed
    assert not trace.ok()


def test_fail_fast_never_runs_downstream_of_a_failure():
    for seed in range(30):
        rng = random.Random(seed)
        g = random_gold(rng, max_nodes=8)
        victim = rng.choice([n.tool for n in g.nodes])
        trace = execute(g, MockRegistry(fail=(victim,)), policy="fail_fast")
        failed = {nid for nid, r in trace.nodes.items() if r.status == "failed"}
        # Walk downstream of every failed node: none may be ok.
        frontier = list(failed)
        downstream = set()
        while frontier:
            nid = frontier.pop()
            for nxt in g.successors[nid]:
                if nxt not in downstream:
                    downstream.add(nxt)
                    frontier.append(nxt)
        for nid in downstream:
            assert trace.nodes[nid].status != "ok", f"seed {seed}"


def test_continue_policy_runs_unaffected_branches():
    plan = make_plan(
        [("root", "t0"), ("a", "t1"), ("b", "t2"), ("join", "t3")],
        [("root", "a"), ("root", "b"), ("a", "join"), ("b", "join")],
    )
    trace = execute(plan, MockRegistry(fail=("t1",)), policy="continue")
    statuses = trace.statuses()
    assert statuses["root"] == "ok"
    assert statuses["a"] == "failed"
    assert statuses["b"] == "ok"          # unaffected branch still runs
    assert statuses["join"] == "skipped"  # one failed predecessor


def test_policy_validation():
    with pytest.raises(ValueError):
        execute(DIAMOND, MockRegistry(), policy="hope")


def test_deterministic_outputs_regardless_of_worker_count():
    plan = random_gold(random.Random(5), max_nodes=8)
    wide = execute(plan, MockRegistry())
    narrow = execute(plan, MockRegistry(), max_workers=1)
    assert {n: r.output for n, r in wide.nodes.items()} == {
        n: r.output for n, r in narrow.nodes.items()
    }


def test_parallel_speedup_on_diamond():
    registry = MockRegistry(latency=0.05)
    parallel = execute(DIAMOND, registry)
    sequential = execute(DIAMOND, registry, max_workers=1)
    assert parallel.waves == 3
    assert parallel.wall_time < 0.2
    assert sequential.wall_time >= 0.2


def test_trace_export_and_dot():
    trace = execute(DIAMOND, MockRegistry())
    doc = trace.to_dict()
    assert doc["waves"] == 3
    assert set(doc["nodes"]) == {"a", "b", "c", "d"}
    assert doc["nodes"]["a"]["latency"] >= 0
    dot = trace_to_dot(DIAMOND, trace)
    assert "wave 2" in dot


# --- HttpRegistry ------------------------------------------------------------------


class ToolEndpoint:
    """Tiny tool server: POST echoes args, GET echoes query, scripted failures."""

    def __init__(self, fail_first: int = 0):
        self.fail_remaining = fail_first
        self.requests = []
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def _respond(self, doc, status=200):
                payload = json.dumps(doc).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def do_POST(self):  # noqa: N802
                outer.requests.append(self.path)
                if outer.fail_remaining > 0:
                    outer.fail_remaining -= 1
                    self._respond({"error": "busy"}, status=503)
                    return
                length = int(self.headers.get("Content-Length", "0"))
                args = json.loads(self.rfile.read(length) or b"{}")
                self._respond({"echo": args, "path": self.path})

            def do_GET(self):  # noqa: N802
                outer.requests.append(self.path)
                self._respond({"path": self.path})

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=self.server.serve_forever, daemon=True).start()

    @property
    def url(self):
        host, port = self.server.server_address
        return f"http://{host}:{port}"

    def close(self):
        self.server.shutdown()
        self.server.server_close()


def test_http_registry_post_get_and_retry():
    endpoint = ToolEndpoint(fail_first=1)
    try:
        registry = HttpRegistry(
            {
                "t.post": {"url": endpoint.url + "/run/{tool}"},
                "t.get": {"url": endpoint.url + "/q", "method": "GET"},
            },
            backoff=0.01,
        )
        assert registry.resolves("t.post")
        assert not registry.resolves("t.nope")
        out = registry.invoke("t.post", {"x": 1})  # first attempt 503, then ok
        assert out["echo"] == {"x": 1}
        assert out["path"] == "/run/t.post"
        got = registry.invoke("t.get", {"q": "hi"})
        assert got["path"].startswith("/q?")
    finally:
        endpoint.close()


def test_http_registry_gives_up_with_tool_error():
    endpoint = ToolEndpoint(fail_first=99)
    try:
        registry = HttpRegistry({"t": {"url": endpoint.url}}, retries=1, backoff=0.01)
        with pytest.raises(ToolError):
            registry.invoke("t", {})
    finally:
        endpoint.close()


# --- end to end ----------------------------------------------------------------------


def test_run_end_to_end_with_synthesizer_counts_two_steps():
    planner = ScriptedClient([serialize_plan(DIAMOND)])
    synthesizer = ScriptedClient(["Here is the combined answer."])
    answer, trace = run_end_to_end(
        "do the thing", ["t1", "t2", "t3", "t4"], planner, MockRegistry(), synthesizer
    )
    assert answer == "Here is the combined answer."
    assert trace.inference_steps == 2
    assert trace.waves == 3


def test_run_end_to_end_without_synthesizer_serializes_leaves():
    planner = ScriptedClient([serialize_plan(DIAMOND)])
    answer, trace = run_end_to_end(
        "do the thing", ["t1", "t2", "t3", "t4"], planner, MockRegistry()
    )
    assert trace.inference_steps == 1
    doc = json.loads(answer)
    assert set(doc) == {"d"}  # the diamond's only sink
    assert doc["d"]["tool"] == "t4"


def test_run_end_to_end_rejects_cyclic_plan():
    cyclic_text = serialize_plan(
        make_plan([("a", "t1"), ("b", "t2")], [("a", "b")])
    ).replace(']}', ',{"from":"b","to":"a"}]}')
    planner = ScriptedClient([cyclic_text])
    with pytest.raises(PlanRejectedError) as err:
        run_end_to_end("q", ["t1", "t2"], planner, MockRegistry())
    assert err.value.branch is RewardBranch.CYCLE
    assert err.value.raw_text == cyclic_text


def test_run_end_to_end_rejects_garbage_with_syntax_branch():
    planner = ScriptedClient(["total nonsense"])
    with pytest.raises(PlanRejectedError) as err:
        run_end_to_end("q", ["t1"], planner, MockRegistry())
    assert err.value.branch is RewardBranch.SYNTAX


def test_run_end_to_end_rejects_disconnected_plan():
    text = serialize_plan(
        make_plan([("a", "t1"), ("b", "t2"), ("c", "t3")], [("a", "b")])
    )
    planner = ScriptedClient([text])
    with pytest.raises(PlanRejectedError) as err:
        run_end_to_end("q", ["t1", "t2", "t3"], planner, MockRegistry())
    assert err.value.branch is RewardBranch.CONNECTIVITY


def test_leaf_outputs_helper():
    trace = execute(DIAMOND, MockRegistry())
    leaves = leaf_outputs(DIAMOND, trace)
    assert set(leaves) == {"d"}


def test_out_of_range_list_reference_is_a_node_failure():
    plan = make_plan(
        [("a", "t1", {"l": [1, 2]}), ("b", "t2", {"last": "$a.args.l.-1"}),
         ("c", "t3", {"bad": "$a.args.l.5"})],
        [("a", "b"), ("a", "c")],
    )
    trace = execute(plan, MockRegistry(), "continue")
    assert trace.statuses() == {"a": "ok", "b": "ok", "c": "failed"}
    assert trace.nodes["b"].output["args"]["last"] == 2
    assert "no field '5'" in trace.nodes["c"].error


def test_registry_exceptions_other_than_tool_error_fail_the_node():
    class BrokenRegistry(ToolRegistry):
        def resolves(self, tool_id):
            return True

        def invoke(self, tool_id, args):
            if tool_id == "t2":
                raise KeyError("lost")
            return {}

    trace = execute(DIAMOND, BrokenRegistry(), "continue")
    assert trace.statuses() == {"a": "ok", "b": "failed", "c": "ok", "d": "skipped"}
    assert trace.nodes["b"].error == "KeyError: 'lost'"
