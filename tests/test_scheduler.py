"""Properties of the ready-set scheduler over random DAGs and tool latencies.

Statuses are checked against a reference wave executor written here, which
runs the plan level by level in one thread; timing properties are checked on
the per-node timestamps of the trace.
"""

from __future__ import annotations

import sys
import threading

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dagplan import MockRegistry, PlanGraph, count_waves, execute
from dagplan.executor import MAX_WORKERS
from helpers import fan_out_plan, make_plan


@st.composite
def dags(draw) -> PlanGraph:
    """A random DAG of up to 40 nodes, or a fan-out up to 48 wide under one root."""
    if draw(st.booleans()):
        return fan_out_plan(draw(st.integers(1, 48)))
    n = draw(st.integers(1, 40))
    edges = {(p, j) for j in range(1, n)
             for p in draw(st.lists(st.integers(0, j - 1), max_size=3, unique=True))}
    return make_plan([(f"n{i:02d}", f"t{i}") for i in range(n)],
                     [(f"n{a:02d}", f"n{b:02d}") for a, b in sorted(edges)])


@st.composite
def runs(draw):
    """A plan, per-tool latencies of 0-5 ms, tools that fail, and a worker cap."""
    plan = draw(dags())
    tools = sorted(plan.tool_set)
    latency = {t: draw(st.floats(0.0, 0.005)) for t in tools}
    fail = draw(st.lists(st.sampled_from(tools), max_size=3, unique=True))
    workers = draw(st.sampled_from([None, 1, 2, 3, MAX_WORKERS, 100]))
    return plan, latency, fail, workers


class CountingRegistry(MockRegistry):
    """Records the peak number of concurrent invocations and of live threads."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._lock = threading.Lock()
        self._active = 0
        self.peak_active = 0
        self.peak_threads = 0

    def invoke(self, tool_id, args):
        with self._lock:
            self._active += 1
            self.peak_active = max(self.peak_active, self._active)
            self.peak_threads = max(self.peak_threads, threading.active_count())
        try:
            return super().invoke(tool_id, args)
        finally:
            with self._lock:
                self._active -= 1


def reference_continue_statuses(plan: PlanGraph, fail: set[str]) -> dict[str, str]:
    """One level at a time: a node runs when every predecessor is ok."""
    depth: dict[str, int] = {}
    while len(depth) < len(plan):
        for node in plan.nodes:
            preds = plan.predecessors[node.id]
            if node.id not in depth and all(p in depth for p in preds):
                depth[node.id] = max((depth[p] + 1 for p in preds), default=0)
    status: dict[str, str] = {}
    for nid in sorted(depth, key=depth.__getitem__):
        if any(status[p] != "ok" for p in plan.predecessors[nid]):
            status[nid] = "skipped"
        else:
            status[nid] = "failed" if plan.node_index[nid].tool in fail else "ok"
    return status


@settings(max_examples=40, deadline=None)
@given(runs())
def test_every_node_starts_after_its_predecessors_finish(run):
    plan, latency, fail, workers = run
    registry = CountingRegistry(latency=latency, fail=fail)
    trace = execute(plan, registry, "continue", max_workers=workers)
    for edge in plan.edges:
        dst = trace.nodes[edge.dst]
        if dst.started is not None:
            assert dst.started >= trace.nodes[edge.src].finished
    assert registry.peak_active <= min(workers or MAX_WORKERS, MAX_WORKERS)
    assert {r.wave for r in trace.nodes.values()} <= set(range(count_waves(plan)))


@settings(max_examples=40, deadline=None)
@given(runs())
def test_continue_statuses_equal_the_wave_reference(run):
    plan, latency, fail, workers = run
    trace = execute(plan, MockRegistry(latency=latency, fail=fail), "continue", max_workers=workers)
    assert trace.statuses() == reference_continue_statuses(plan, set(fail))
    assert list(trace.nodes) == sorted(trace.nodes, key=lambda n: (trace.nodes[n].wave, n))


@settings(max_examples=40, deadline=None)
@given(runs())
def test_fail_fast_starts_nothing_after_the_first_failure(run):
    plan, latency, fail, workers = run
    trace = execute(plan, MockRegistry(latency=latency, fail=fail), "fail_fast",
                    max_workers=workers)
    failed = [r for r in trace.nodes.values() if r.status == "failed"]
    if not failed:
        assert trace.statuses() == reference_continue_statuses(plan, set(fail))
        return
    first = min(r.finished for r in failed)
    for result in trace.nodes.values():
        if result.started is None:
            assert result.status == "skipped"
        else:
            assert result.started <= first


@settings(max_examples=20, deadline=None)
@given(st.lists(runs(), min_size=1, max_size=3))
@example([(fan_out_plan(48), {}, [], None)])
def test_live_threads_stay_within_the_shared_pool_and_the_callers(batch):
    outside = [t for t in threading.enumerate() if not t.name.startswith("dagplan-execute")]
    registry = CountingRegistry(latency=0.005)
    traces = []

    def call(plan, workers):
        traces.append(execute(plan, registry, "continue", max_workers=workers))

    callers = [threading.Thread(target=call, args=(plan, workers), daemon=True)
               for plan, _, _, workers in batch]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to shake out races on shared state
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=30)
            assert not caller.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(traces) == len(batch) and all(t.ok() for t in traces)
    assert registry.peak_threads <= MAX_WORKERS + len(outside) + len(callers)
