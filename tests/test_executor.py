"""Ready-set scheduling, data flow, failure policies, and end-to-end runs.

Wave counts are checked against an exhaustive longest-path enumeration; wave
soundness against per-edge timestamp comparison.
"""

from __future__ import annotations

import contextvars
import gc
import json
import os
import random
import signal
import sys
import threading
import time
import tracemalloc
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
from dagplan.executor import MAX_WORKERS, _map_jobs, preflight
from dagplan.plan import FormatError
from helpers import chain_plan, cycles_left_by, fan_out_plan, loopback, make_plan, random_gold


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


@pytest.mark.parametrize("policy", ["fail_fast", "continue"])
def test_each_policy_skips_a_long_chain_below_a_failed_root(policy):
    trace = execute(chain_plan([f"t{i}" for i in range(5000)]), MockRegistry(fail=("t0",)),
                    policy=policy)
    assert [r.status for r in trace.nodes.values()].count("failed") == 1
    assert trace.nodes["n0"].status == "failed"
    skipped = [r for r in trace.nodes.values() if r.status == "skipped"]
    assert len(skipped) == 4999
    assert all(r.started is None and r.finished is None for r in skipped)
    assert trace.waves == 1


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


def test_http_registry_from_file_resolves_its_tools(tmp_path):
    endpoint = ToolEndpoint()
    try:
        bindings = tmp_path / "registry.json"
        bindings.write_text(json.dumps({"t.post": {"url": endpoint.url + "/run/{tool}"}}))
        registry = HttpRegistry.from_file(bindings)
        assert registry.resolves("t.post")
        assert not registry.resolves("t.nope")
        assert registry.invoke("t.post", {"x": 1}) == {"echo": {"x": 1}, "path": "/run/t.post"}
    finally:
        endpoint.close()


@pytest.mark.parametrize("bindings, field", [
    ({"t\ud800": {"url": "http://127.0.0.1:9"}}, "t\ud800"),
    ({"t": {"url": "http://127.0.0.1:9/\ud800"}}, "t.url"),
    ({"t": {"url": "http://127.0.0.1:9", "headers": {"X-Key": "\udfff"}}}, "t.headers"),
], ids=["tool-id", "url", "header"])
def test_http_registry_rejects_a_binding_that_is_not_valid_unicode(tmp_path, bindings, field):
    # A lone surrogate cannot be quoted into a URL or sent as a header.
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(bindings), encoding="utf-8")
    with pytest.raises(FormatError) as err:
        HttpRegistry.from_file(path)
    assert str(err.value) == f'{path}: field "{field}" is not valid Unicode'


def test_http_registry_gives_up_with_tool_error():
    endpoint = ToolEndpoint(fail_first=99)
    try:
        registry = HttpRegistry({"t": {"url": endpoint.url}}, retries=1, backoff=0.01)
        with pytest.raises(ToolError):
            registry.invoke("t", {})
    finally:
        endpoint.close()


def test_http_registry_keeps_a_body_that_is_not_strict_json_as_text():
    endpoint = ToolEndpoint()
    try:
        registry = HttpRegistry({"t": {"url": endpoint.url}}, backoff=0.01)
        # The endpoint echoes the args, so it answers {"echo": {"x": NaN}, ...}.
        out = registry.invoke("t", {"x": float("nan")})
    finally:
        endpoint.close()
    assert out == {"text": '{"echo": {"x": NaN}, "path": "/"}'}
    json.dumps(out, allow_nan=False)  # a trace holding it is still JSON


def test_http_registry_node_whose_body_is_not_utf8_fails_with_a_tool_error():
    with loopback(200, b"\xff\xfe") as url:
        registry = HttpRegistry({"t": {"url": url}}, backoff=0.01)
        trace = execute(make_plan([("a", "t")], []), registry)
    assert trace.nodes["a"].status == "failed"
    assert trace.nodes["a"].error == "t: response body is not UTF-8"


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


# --- ready-set scheduling on the shared pool ------------------------------------------


def test_preflight_memory_is_linear_on_a_long_reference_chain():
    n = 20_000
    plan = make_plan(
        [(f"n{i}", f"t{i}", {"prev": f"$n{i - 1}.digest"} if i else {}) for i in range(n)],
        [(f"n{i}", f"n{i + 1}") for i in range(n - 1)],
    )
    tracemalloc.start()
    try:
        order = preflight(plan, MockRegistry())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(order) == n
    assert peak < 20 * 2**20


def test_references_are_checked_against_ancestors_across_branches():
    # root -> a -> b -> join and root -> c -> join; c sorts before b.
    nodes = [("root", "t0"), ("a", "t1"), ("b", "t2"), ("c", "t3")]
    edges = [("root", "a"), ("a", "b"), ("root", "c"), ("b", "join"), ("c", "join")]
    two_hops = make_plan(nodes + [("join", "t4", {"x": "$a.digest", "y": "$root.digest"})], edges)
    trace = execute(two_hops, MockRegistry())
    assert trace.nodes["join"].output["args"]["x"] == trace.nodes["a"].output["digest"]
    sibling = make_plan(nodes[:3] + [("c", "t3", {"x": "$a.digest"}), ("join", "t4")], edges)
    with pytest.raises(PreflightError, match="'c' references 'a', which is not a predecessor"):
        preflight(sibling, MockRegistry())


def test_preflight_is_linear_when_every_node_references_a_distant_root():
    n = 3000
    plan = make_plan(
        [(f"n{i}", f"t{i}", {"root": "$n0.digest"} if i else {}) for i in range(n)],
        [(f"n{i}", f"n{i + 1}") for i in range(n - 1)],
    )
    # A full collection of the suite's heap can take longer than the bound, so
    # the collector is paused around the timed call.
    gc.disable()
    try:
        start = time.perf_counter()
        order = preflight(plan, MockRegistry())
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    assert elapsed < 0.1
    assert len(order) == n
    # A sibling of the referenced node is still rejected in the same plan shape.
    sibling = make_plan(
        [(f"n{i}", f"t{i}", {"root": "$n0.digest"} if i else {}) for i in range(n)]
        + [("side", "tside", {"x": "$n1.digest"})],
        [(f"n{i}", f"n{i + 1}") for i in range(n - 1)] + [("n0", "side")],
    )
    with pytest.raises(PreflightError, match="'side' references 'n1', which is not a predecessor"):
        preflight(sibling, MockRegistry())


def test_references_read_fields_of_any_mapping_a_registry_returns():
    from types import MappingProxyType

    class ProxyRegistry(ToolRegistry):
        def resolves(self, tool_id):
            return True

        def invoke(self, tool_id, args):
            return MappingProxyType({"inner": MappingProxyType({"v": [tool_id]}), "args": dict(args)})

    plan = make_plan([("a", "t1"), ("b", "t2", {"x": "$a.inner.v.0", "y": ["$a.inner", "$$a"]})],
                     [("a", "b")])
    trace = execute(plan, ProxyRegistry())
    assert trace.nodes["b"].output["args"] == {"x": "t1", "y": [{"v": ["t1"]}, "$a"]}


def test_run_end_to_end_checks_for_cycles_once(monkeypatch):
    import dagplan.plan

    calls = []
    detect_cycle = dagplan.plan.detect_cycle
    monkeypatch.setattr(dagplan.plan, "detect_cycle", lambda g: calls.append(g) or detect_cycle(g))
    planner = ScriptedClient([serialize_plan(DIAMOND)])
    _, trace = run_end_to_end("q", ["t1", "t2", "t3", "t4"], planner, MockRegistry())
    assert trace.ok()
    assert len(calls) == 1


@pytest.mark.parametrize("workers", [0, -1])
def test_max_workers_below_one_is_a_value_error(workers):
    with pytest.raises(ValueError, match="max_workers must be at least 1"):
        execute(DIAMOND, MockRegistry(), max_workers=workers)


QUERY: contextvars.ContextVar[str | None] = contextvars.ContextVar("query", default=None)


class SamplingRegistry(MockRegistry):
    """A MockRegistry that records the live thread count and a context variable per call."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.peak_threads = 0
        self.seen: dict[str, object] = {}

    def invoke(self, tool_id, args):
        self.peak_threads = max(self.peak_threads, threading.active_count())
        self.seen[tool_id] = QUERY.get()
        return super().invoke(tool_id, args)


def test_wide_fan_out_stays_within_the_shared_pool():
    outside = [t for t in threading.enumerate() if not t.name.startswith("dagplan-execute")]
    registry = SamplingRegistry(latency=0.05)
    trace = execute(fan_out_plan(48), registry)
    assert trace.ok() and trace.waves == 2
    assert registry.peak_threads <= MAX_WORKERS + len(outside)
    assert trace.wall_time >= 0.15  # 48 tools of 50 ms on 32 threads: three rounds


def test_tools_run_in_the_callers_context():
    registry = SamplingRegistry(latency=0.01)
    token = QUERY.set("q7")
    try:
        execute(fan_out_plan(6), registry)
    finally:
        QUERY.reset(token)
    assert set(registry.seen.values()) == {"q7"}


def test_helpers_shared_by_concurrent_calls_keep_each_callers_context():
    registries = {name: SamplingRegistry(latency=0.005) for name in ("qa", "qb", "qc")}

    def call(name):
        QUERY.set(name)  # each thread starts in a context of its own
        execute(fan_out_plan(12), registries[name])

    callers = [threading.Thread(target=call, args=(name,)) for name in registries]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join(timeout=30)
    assert {name: set(r.seen.values()) for name, r in registries.items()} == {
        name: {name} for name in registries}


def test_fail_fast_keeps_what_started_before_the_failure():
    # "slow" fails after 0.2 s; the chain a -> b has finished by then.
    plan = make_plan([("slow", "t0"), ("a", "t1"), ("b", "t2"), ("after", "t3")],
                     [("a", "b"), ("slow", "after")])
    registry = MockRegistry(latency={"t0": 0.2}, fail=("t0",))
    trace = execute(plan, registry, policy="fail_fast")
    assert trace.statuses() == {"a": "ok", "slow": "failed", "b": "ok", "after": "skipped"}


def test_a_tool_that_executes_a_plan_does_not_deadlock_the_pool():
    class NestingRegistry(MockRegistry):
        def invoke(self, tool_id, args):
            inner = execute(fan_out_plan(4), MockRegistry(latency=0.001))
            return {"inner_ok": inner.ok(), **super().invoke(tool_id, args)}

    done = []
    worker = threading.Thread(
        target=lambda: done.append(execute(fan_out_plan(40), NestingRegistry())), daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert done[0].ok()
    assert all(r.output["inner_ok"] for r in done[0].nodes.values())


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_builds_its_own_pool():
    execute(fan_out_plan(8), MockRegistry(latency=0.001))  # the parent's pool has threads now
    pid = os.fork()
    if pid == 0:  # the child: exit at once, never return into the test runner
        try:
            ok = execute(fan_out_plan(8), MockRegistry(latency=0.001)).ok()
        finally:
            os._exit(0 if ok else 1)
    deadline = time.monotonic() + 30
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    if not done:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done and os.waitstatus_to_exitcode(status) == 0


# --- _map_jobs: independent jobs in the calling thread and on the shared pool ----


@pytest.mark.parametrize("workers", [1, 3, 100])
def test_map_jobs_runs_each_item_once_in_input_order_under_frequent_switches(workers):
    lock = threading.Lock()
    runs: dict[int, int] = {}
    threads = set()
    active = peak = 0

    def job(i):
        nonlocal active, peak
        with lock:
            runs[i] = runs.get(i, 0) + 1
            threads.add(threading.get_ident())
            active += 1
            peak = max(peak, active)
        time.sleep(0.0001 * (i % 3))
        with lock:
            active -= 1
        return i * i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results = _map_jobs(job, list(range(600)), workers)
    finally:
        sys.setswitchinterval(interval)
    assert results == [i * i for i in range(600)]
    assert runs == {i: 1 for i in range(600)}
    assert peak <= min(workers, MAX_WORKERS + 1)
    if workers == 1:
        assert threads == {threading.get_ident()}


def test_map_jobs_raises_the_earliest_failure_and_starts_nothing_after_it():
    started = []

    def job(i):
        started.append(i)
        time.sleep(0.01)
        if i in (3, 5):
            raise ValueError(i)
        return i

    with pytest.raises(ValueError) as err:
        _map_jobs(job, list(range(40)), 4)
    assert err.value.args == (3,)
    assert len(started) < 40
    assert _map_jobs(job, [], 4) == []
    started.clear()
    with pytest.raises(ValueError) as err:
        _map_jobs(job, list(range(40)), 1)
    assert err.value.args == (3,)
    assert started == [0, 1, 2, 3]


# --- no reference cycles: everything a call builds is freed on return ----------

# A root, 40 children and a sink below them all: the root leaves 40 nodes
# ready at once, so the caller asks for helpers, and t3's failure blocks the sink.
FAN_IN = make_plan(
    [("root", "t0")] + [(f"n{i:02d}", f"t{i + 1}") for i in range(40)] + [("sink", "t99")],
    [("root", f"n{i:02d}") for i in range(40)] + [(f"n{i:02d}", "sink") for i in range(40)],
)


@pytest.mark.parametrize("policy", ["fail_fast", "continue"])
@pytest.mark.parametrize("workers", [1, 32])
@pytest.mark.parametrize("fail", [(), ("t3",)])
def test_execute_leaves_no_reference_cycles(policy, workers, fail):
    registry = MockRegistry(fail=fail)
    assert cycles_left_by(lambda: execute(FAN_IN, registry, policy, max_workers=workers)) == 0
    trace = execute(FAN_IN, registry, policy, max_workers=workers)
    assert trace.nodes["sink"].status == ("skipped" if fail else "ok")


@pytest.mark.parametrize("workers", [1, 4])
def test_map_jobs_leaves_no_reference_cycles(workers):
    assert cycles_left_by(lambda: _map_jobs(str, list(range(100)), workers)) == 0


@pytest.mark.parametrize("workers", [1, 4])
def test_map_jobs_aborted_by_failures_leaves_no_reference_cycles(workers):
    def job(i):
        if i % 3 == 2:
            raise ValueError(i)
        return i

    def aborted():
        with pytest.raises(ValueError):
            _map_jobs(job, list(range(40)), workers)

    assert cycles_left_by(aborted) == 0


def test_run_end_to_end_leaves_no_reference_cycles():
    def run():
        planner = ScriptedClient([serialize_plan(DIAMOND)])
        return run_end_to_end("q", ["t1", "t2", "t3", "t4"], planner, MockRegistry())

    assert cycles_left_by(run) == 0
