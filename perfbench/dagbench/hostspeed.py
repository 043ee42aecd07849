"""Host speed reference for a machine whose CPU speed drifts.

On a shared virtual machine the same pure-Python loop can take 40% longer in
one minute than in the next, which swamps any change to dagplan.  The
benchmark therefore times a fixed standard-library workload (JSON parse and
dump, dict and set building, hashing: the kinds of work dagplan does) right
before and right after every measured operation, and scales the operation's
duration by ``REFERENCE_S / probe``: the duration it would have had on a host
running the probe in ``REFERENCE_S``.  The probe never calls dagplan, so a
change to dagplan cannot move it.  Raw durations are reported beside the
scaled ones.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

# A typical probe time on the host the baselines were taken on (2 vCPU VM),
# rounded; only the ratio between runs matters.
REFERENCE_S = 0.003

_DOC = {
    "nodes": [{"id": f"n{i}", "tool": f"cat{i % 5}.tool{i}", "args": {"mode": f"m{i % 3}", "k": i}}
              for i in range(12)],
    "edges": [{"from": f"n{u}", "to": f"n{v}"} for u in range(12) for v in range(u + 1, 12) if (u * 7 + v) % 4 == 0],
}
_TEXT = json.dumps(_DOC)


def _unit() -> int:
    doc = json.loads(_TEXT)
    index = {node["id"]: node for node in doc["nodes"]}
    pairs = frozenset((index[e["from"]]["tool"], index[e["to"]]["tool"]) for e in doc["edges"])
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return len(pairs) + len(hashlib.sha256(text.encode()).hexdigest())


def probe(units: int = 40, repeats: int = 5) -> float:
    """Median time of ``repeats`` batches of the fixed workload, in seconds."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(units):
            _unit()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class HostSpeed:
    """Probes around measurements and keeps the scale factors it applied."""

    def __init__(self) -> None:
        self.factors: list[float] = []
        self._last = probe()

    def mark(self) -> None:
        """Probe now, starting a new interval."""
        self._last = probe()

    def factor(self) -> float:
        """Probe now; the scale factor for the interval since the previous probe."""
        now = probe()
        factor = REFERENCE_S / ((self._last + now) / 2)
        self._last = now
        self.factors.append(factor)
        return factor

    def around(self, fn, *args, **kwargs):
        """(result, factor) of one call made between two probes."""
        self.mark()
        result = fn(*args, **kwargs)
        return result, self.factor()

    def summary(self) -> str:
        return (f"host speed factor (reference probe {REFERENCE_S * 1e3:.2f} ms / measured probe): "
                f"median {statistics.median(self.factors):.3f}, "
                f"min {min(self.factors):.3f}, max {max(self.factors):.3f}, n={len(self.factors)}")
