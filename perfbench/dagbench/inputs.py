"""Seeded benchmark inputs, written in dagplan's documented file formats.

Every input is a pure function of the workload seed.  Plans, records, rollout
texts and latency tables come from the benchmark's own generators, so the
inputs stay the same when dagplan's generators change.  Only cassette keys and
prompt texts come from dagplan (``fixture_key``, ``replan_prompt``,
``synthesis_prompt``), because a replay cassette is defined by them.

Each generator also returns what it planted (labels, expected answers), which
the workloads use as oracles that do not depend on the code under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

# Offered/required tool-count ranges per difficulty, as in dagplan's documented
# default bands.
BANDS = {
    "Easy": ((5, 10), (2, 4)),
    "Medium": ((10, 20), (4, 7)),
    "Hard": ((20, 40), (7, 12)),
}
DIFFICULTIES = tuple(BANDS)
EXTRA_EDGE_PROB = 0.15
CATALOG_TOOLS = 160

ROLLOUTS = 8
# Exact copies per rollout group, cycled over records: 1 in 10 groups is never
# solved, 1 in 10 always, the rest land inside the curation bounds (0, 1).
EXACT_PATTERN = (0, 8, 1, 2, 3, 4, 5, 6, 7, 4)
FAILURE_LABELS = ("edge", "cycle", "disconnected", "syntax")
REPEAT_SHARE = 0.25

# Eval predictions per block of 20 records.
PREDICTION_PATTERN = ("exact",) * 11 + ("perturbed",) * 5 + ("unparseable",) * 2 + ("missing",) * 2

# Tool latencies: fixed quantiles of a Pareto(alpha) distribution with scale
# XM, capped, shuffled onto tools by seed, so every seed sees the same
# heavy-tailed multiset of latencies.
PARETO_ALPHA = 1.3
PARETO_XM_S = 0.0015
LATENCY_CAP_S = 0.040


@dataclass(frozen=True)
class Plan:
    """A DAG over tools; node i is ``n{i}``, and every edge (u, v) has u < v."""

    tools: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]

    def preds(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.tools]
        for u, v in self.edges:
            out[v].append(u)
        return out

    def levels(self) -> list[int]:
        """0-based wave index of every node: longest path from a source."""
        level = [0] * len(self.tools)
        for v, ps in enumerate(self.preds()):
            level[v] = max((level[u] + 1 for u in ps), default=0)
        return level

    def sinks(self) -> list[int]:
        has_out = {u for u, _ in self.edges}
        return [i for i in range(len(self.tools)) if i not in has_out]

    def critical_path(self, weight: dict[str, float]) -> float:
        finish = [0.0] * len(self.tools)
        for v, ps in enumerate(self.preds()):
            finish[v] = max((finish[u] for u in ps), default=0.0) + weight.get(self.tools[v], 0.0)
        return max(finish, default=0.0)

    def tool_pairs(self) -> set[tuple[str, str]]:
        return {(self.tools[u], self.tools[v]) for u, v in self.edges}


@dataclass(frozen=True)
class Record:
    rid: str
    difficulty: str
    candidates: tuple[str, ...]
    plan: Plan
    query: str

    def to_doc(self) -> dict:
        """The record in dagplan's documented dataset JSONL format."""
        return {
            "id": self.rid,
            "query": self.query,
            "candidate_tools": list(self.candidates),
            "gold_plan": plan_doc(self.plan),
            "difficulty": self.difficulty,
            "provenance": {"generator": "perfbench", "teacher_model": None, "replan_agreed": False},
        }


def catalog_doc(count: int = CATALOG_TOOLS) -> list[dict]:
    """A tool catalog in dagplan's documented catalog format."""
    return [
        {
            "id": f"cat{k // 8}.tool{k}",
            "name": f"tool_{k}",
            "description": f"Synthetic tool {k} of category {k // 8}.",
            "params": [{"name": "p0", "type": "string", "required": True}],
        }
        for k in range(count)
    ]


def layered_plan(rng: random.Random, tools: list[str]) -> Plan:
    """Random recursive tree plus forward edges: acyclic and weakly connected."""
    n = len(tools)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < EXTRA_EDGE_PROB:
                edges.add((u, v))
    return Plan(tuple(tools), tuple(sorted(edges)))


def make_records(rng: random.Random, tool_ids: list[str], counts: dict[str, int], tag: str) -> list[Record]:
    records = []
    for difficulty in DIFFICULTIES:
        (c_lo, c_hi), (r_lo, r_hi) = BANDS[difficulty]
        for index in range(counts.get(difficulty, 0)):
            candidates = rng.sample(tool_ids, rng.randint(c_lo, c_hi))
            required = rng.sample(candidates, rng.randint(r_lo, r_hi))
            plan = layered_plan(rng, required)
            rid = f"{tag}-{difficulty.lower()}-{index:05d}"
            query = f"Request {rid}: combine " + ", ".join(required) + "."
            records.append(Record(rid, difficulty, tuple(candidates), plan, query))
    return records


def plan_doc(plan: Plan, ids: list[str] | None = None, args: list[dict] | None = None,
             extra_edges: tuple[tuple[int, int], ...] = ()) -> dict:
    ids = ids or [f"n{i}" for i in range(len(plan.tools))]
    return {
        "nodes": [
            {"id": ids[i], "tool": tool, "args": args[i] if args else {}}
            for i, tool in enumerate(plan.tools)
        ],
        "edges": [{"from": ids[u], "to": ids[v]} for u, v in (*plan.edges, *extra_edges)],
    }


def render(rng: random.Random, plan: Plan, extra_edges: tuple[tuple[int, int], ...] = ()) -> str:
    """Plan text with relabelled node ids and shuffled node and edge order."""
    n = len(plan.tools)
    labels = [f"v{i}" for i in rng.sample(range(100, 100 + 4 * n), n)]
    doc = plan_doc(plan, labels, extra_edges=extra_edges)
    rng.shuffle(doc["nodes"])
    rng.shuffle(doc["edges"])
    return json.dumps(doc, indent=rng.choice((None, 1)))


def set_f1(pred: set, gold: set) -> float:
    """Independent edge F1 with dagplan's documented empty-set conventions."""
    if not pred and not gold:
        return 1.0
    if not pred or not gold:
        return 0.0
    inter = len(pred & gold)
    if inter == 0:
        return 0.0
    p, r = inter / len(pred), inter / len(gold)
    return 2 * p * r / (p + r)


def _connected(n: int, edges) -> bool:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == n


# --- curate-replay ------------------------------------------------------------


@dataclass(frozen=True)
class Rollout:
    label: str
    text: str
    branch: str       # expected reward branch
    value: float      # expected reward
    repeated: bool    # text repeats an earlier rollout of its group


def _edge_variant(rng: random.Random, plan: Plan) -> tuple[str, float]:
    """Drop a non-bridge edge, or add a forward edge when every edge is a bridge."""
    n = len(plan.tools)
    droppable = [e for e in plan.edges if _connected(n, [x for x in plan.edges if x != e])]
    if droppable:
        drop = rng.choice(droppable)
        variant = Plan(plan.tools, tuple(e for e in plan.edges if e != drop))
    else:
        missing = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in plan.edges]
        variant = Plan(plan.tools, tuple(sorted({*plan.edges, rng.choice(missing)})))
    return render(rng, variant), 5.0 * set_f1(variant.tool_pairs(), plan.tool_pairs())


def make_rollout(rng: random.Random, record: Record, label: str) -> Rollout:
    plan = record.plan
    if label == "exact":
        return Rollout(label, render(rng, plan), "fidelity", 10.0, False)
    if label == "edge":
        text, value = _edge_variant(rng, plan)
        return Rollout(label, text, "fidelity", value, False)
    if label == "cycle":
        u, v = rng.choice(plan.edges)
        return Rollout(label, render(rng, plan, extra_edges=((v, u),)), "cycle", -10.0, False)
    if label == "disconnected":
        spare = sorted(set(record.candidates) - set(plan.tools))
        extra = Plan((*plan.tools, rng.choice(spare)), plan.edges)
        return Rollout(label, render(rng, extra), "connectivity", -2.0, False)
    if label == "syntax":
        text = render(rng, plan)
        return Rollout(label, text[: len(text) // 2], "syntax", -10.0, False)
    raise ValueError(label)


def make_rollout_groups(rng: random.Random, records: list[Record]) -> list[list[Rollout]]:
    """ROLLOUTS planted rollouts per record, in a fixed outcome mix."""
    failure_cycle = 0
    groups = []
    order = list(range(len(records)))
    rng.shuffle(order)
    exact_of = {idx: EXACT_PATTERN[pos % len(EXACT_PATTERN)] for pos, idx in enumerate(order)}
    for idx, record in enumerate(records):
        k = exact_of[idx]
        labels = ["exact"] * k
        for _ in range(ROLLOUTS - k):
            labels.append(FAILURE_LABELS[failure_cycle % len(FAILURE_LABELS)])
            failure_cycle += 1
        rng.shuffle(labels)
        group: list[Rollout] = []
        for label in labels:
            earlier = [r for r in group if r.label == label]
            if earlier and rng.random() < REPEAT_SHARE:
                first = earlier[0]
                group.append(Rollout(label, first.text, first.branch, first.value, True))
            else:
                group.append(make_rollout(rng, record, label))
        groups.append(group)
    return groups


def advantages(rewards: list[float], epsilon: float = 1e-8) -> list[float]:
    """Reference group z-score with the population standard deviation."""
    mean = sum(rewards) / len(rewards)
    std = math.sqrt(sum((r - mean) ** 2 for r in rewards) / len(rewards))
    if std == 0.0:
        return [0.0] * len(rewards)
    return [(r - mean) / (std + epsilon) for r in rewards]


# --- agents ---------------------------------------------------------------------


def agent_args(plan: Plan) -> list[dict]:
    """Node args: one literal, plus a ``$pred.digest`` reference per predecessor."""
    return [
        {"mode": f"m{i % 3}", **{f"in{j}": f"$n{u}.digest" for j, u in enumerate(sorted(ps))}}
        for i, ps in enumerate(plan.preds())
    ]


def mock_digest(tool: str, args: dict) -> str:
    """The digest dagplan's MockRegistry documents: sha256 of (tool, args)."""
    material = json.dumps([tool, args], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


def expected_leaves(plan: Plan) -> dict[str, dict]:
    """Sink outputs of a fully successful mock run, computed without the executor."""
    outputs: dict[int, dict] = {}
    for i, raw in enumerate(agent_args(plan)):
        args = {
            k: outputs[int(v[2:].split(".")[0])]["digest"] if v.startswith("$") else v
            for k, v in raw.items()
        }
        outputs[i] = {"tool": plan.tools[i], "digest": mock_digest(plan.tools[i], args), "args": args}
    return {f"n{i}": outputs[i] for i in sorted(plan.sinks(), key=lambda i: f"n{i}")}


def latency_table(rng: random.Random, tool_ids: list[str]) -> dict[str, float]:
    n = len(tool_ids)
    values = [
        min(LATENCY_CAP_S, PARETO_XM_S / (1.0 - (i + 0.5) / n) ** (1.0 / PARETO_ALPHA))
        for i in range(n)
    ]
    rng.shuffle(values)
    return dict(zip(tool_ids, values))


# --- dataset-eval -----------------------------------------------------------------


def make_predictions(rng: random.Random, records: list[Record]) -> tuple[list[str], dict[str, str]]:
    """Prediction JSONL lines, and the label planted for every record id."""
    labels: dict[str, str] = {}
    lines = []
    for difficulty in DIFFICULTIES:
        band = [r for r in records if r.difficulty == difficulty]
        planted = [PREDICTION_PATTERN[i % len(PREDICTION_PATTERN)] for i in range(len(band))]
        rng.shuffle(planted)
        for record, label in zip(band, planted):
            labels[record.rid] = label
            plan = record.plan
            if label == "missing":
                continue
            if label == "exact":
                candidate = json.loads(render(rng, plan))
            elif label == "perturbed":
                drop = rng.choice(plan.edges)
                candidate = plan_doc(Plan(plan.tools, tuple(e for e in plan.edges if e != drop)))
            else:
                candidate = "Plan: first " + " then ".join(plan.tools)
            lines.append(json.dumps({"id": record.rid, "candidate": candidate}, sort_keys=True))
    return lines, labels


# --- properties and files -----------------------------------------------------------


def plan_properties(plans: list[Plan]) -> dict[str, float]:
    nodes = [len(p.tools) for p in plans]
    edges = [len(p.edges) for p in plans]
    depths = [max(p.levels()) + 1 for p in plans]
    widths = [max(Counter(p.levels()).values()) for p in plans]
    return {
        "plans": len(plans),
        "nodes_mean": statistics.fmean(nodes), "nodes_max": max(nodes),
        "edges_mean": statistics.fmean(edges), "edges_max": max(edges),
        "depth_mean": statistics.fmean(depths), "depth_max": max(depths),
        "wave_width_mean": statistics.fmean(widths), "wave_width_max": max(widths),
    }


def write_jsonl(path: Path, docs) -> int:
    text = "".join(json.dumps(doc, sort_keys=True) + "\n" for doc in docs)
    path.write_text(text, encoding="utf-8")
    return len(text.encode("utf-8"))


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
