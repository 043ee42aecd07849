"""Spans recorded from outside dagplan, around calls into each layer.

A traced run rebinds module attributes (``dagplan.reward.parse_plan`` and the
like) to timing wrappers for the length of the run, wraps the completion
client and the tool registry, and swaps the thread pools that curation and the
executor build for ones that carry the caller's span context into their
worker threads.  Nothing under ``src/`` is edited; an untraced run installs
none of this.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

from dagplan.clients import ClientError, CompletionClient
from dagplan.executor import ToolRegistry

_parent: contextvars.ContextVar[int | None] = contextvars.ContextVar("perfbench_parent", default=None)
_trace: contextvars.ContextVar[str | None] = contextvars.ContextVar("perfbench_trace", default=None)


@dataclass(frozen=True, slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    trace: str | None
    thread: int

    @property
    def dur(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory spans, counters, pool sizes and a live-thread high-water mark."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pools: list[tuple[str | None, int]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.threads_peak = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _open(self) -> tuple[int, int | None, contextvars.Token]:
        sid = next(self._ids)
        return sid, _parent.get(), _parent.set(sid)

    def _close(self, sid: int, name: str, start: float, parent: int | None, token) -> None:
        end = time.perf_counter()
        _parent.reset(token)
        self.spans.append(Span(sid, name, start, end, parent, _trace.get(), threading.get_ident()))

    @contextlib.contextmanager
    def span(self, name: str, trace: str | None = None) -> Iterator[None]:
        trace_token = _trace.set(trace) if trace is not None else None
        sid, parent, token = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, start, parent, token)
            if trace_token is not None:
                _trace.reset(trace_token)

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, token = self._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, name, start, parent, token)
        return traced

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counters[key] += n

    def sample_threads(self) -> None:
        live = threading.active_count()
        with self._lock:
            self.threads_peak = max(self.threads_peak, live)

    def pool_class(self) -> type[ThreadPoolExecutor]:
        recorder = self

        class ContextPool(ThreadPoolExecutor):
            """A pool whose tasks run in the submitter's span context."""

            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                recorder.pools.append((_trace.get(), self._max_workers))

            def submit(self, fn, /, *args, **kwargs):
                return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)

        return ContextPool

    @contextlib.contextmanager
    def patched(self, replacements: Iterable[tuple[Any, str, Any]]) -> Iterator[None]:
        """Rebind each ``module.attr`` to its replacement for the length of the block."""
        saved = []
        try:
            for module, attr, value in replacements:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, value)
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps([s.sid, s.name, s.start, s.end, s.parent, s.trace, s.thread]) + "\n")


class TracedClient(CompletionClient):
    """Times every completion, counts errors, samples the live thread count."""

    def __init__(self, inner: CompletionClient, recorder: Recorder):
        self.inner = inner
        self.model_name = inner.model_name
        self._complete = recorder.wrap(inner.complete, "clients.complete")
        self._recorder = recorder

    def complete(self, prompt: str, *, seed: int | None = None) -> str:
        self._recorder.sample_threads()
        try:
            return self._complete(prompt, seed=seed)
        except ClientError:
            self._recorder.count("clients.errors")
            raise


class TracedRegistry(ToolRegistry):
    """Times every tool invocation of the wrapped registry."""

    def __init__(self, inner: ToolRegistry, recorder: Recorder):
        self.inner = inner
        self._invoke = recorder.wrap(inner.invoke, "executor.tool")

    def resolves(self, tool_id: str) -> bool:
        return self.inner.resolves(tool_id)

    def invoke(self, tool_id: str, args: Mapping[str, Any]) -> Any:
        return self._invoke(tool_id, args)


# --- analysis -------------------------------------------------------------------


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            out[s.parent].append(s)
    return out


def self_time(span: Span, children: dict[int, list[Span]]) -> float:
    """Span time minus the part of it that its child spans cover."""
    kids = children.get(span.sid, ())
    return span.dur - covered(((k.start, k.end) for k in kids), span.start, span.end)


def self_times_by_layer(spans: list[Span]) -> dict[str, float]:
    """Summed self time per layer (the span name's prefix before the first dot)."""
    children = children_of(spans)
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s.name.split(".")[0]] += self_time(s, children)
    return dict(totals)
