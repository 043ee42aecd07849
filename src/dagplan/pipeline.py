"""Three-stage benchmark-instance pipeline with difficulty grading.

Stage 1 authors a workflow DAG over a sampled candidate toolset (a seeded
local generator, or a completion client).  Stage 2 reverse-engineers the
natural-language query a user would have asked for that workflow.  Stage 3
re-plans from the query alone and keeps the instance only when the replan
agrees with the original — the quality filter.  Offline (no client) the
pipeline runs stage 1 locally, templates the query, and skips the filter, so
the whole thing is testable without any model endpoint.

Difficulty bands control how many tools are offered (candidates) and how many
the gold plan must use (required); harder instances offer more and require
more.
"""

from __future__ import annotations

import json
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Collection, Hashable, Iterable, Iterator, Mapping, Sequence

from .catalog import ToolLibrary, ToolSpec
from .clients import ClientError, CompletionClient, EmptyResponseError
from .metrics import score_pair
from .plan import (
    FormatError,
    PlanGraph,
    PlanNode,
    PlanEdge,
    PlanSyntaxError,
    decode_json,
    parse_plan,
    plan_doc,
    plan_from_doc,
    read_json,
    serialize_plan,
    topo_order,
    validate_graph,
)
from .prompts import query_prompt, replan_prompt, workflow_prompt

DIFFICULTIES = ("Easy", "Medium", "Hard")

EXTRA_EDGE_PROB = 0.3


class BandUnsatisfiableError(ValueError):
    """The tool library is too small for the requested difficulty band."""


class AuthorExhaustedError(RuntimeError):
    """A client author failed structural validation on every attempt."""


@dataclass(frozen=True)
class Band:
    """Inclusive (lo, hi) ranges for offered and required tool counts."""

    candidates: tuple[int, int]
    required: tuple[int, int]

    def __post_init__(self) -> None:
        c_lo, c_hi = self.candidates
        r_lo, r_hi = self.required
        if not (1 <= c_lo <= c_hi) or not (1 <= r_lo <= r_hi):
            raise ValueError(f"band ranges must be non-empty and positive: {self}")
        if r_lo > c_lo or r_hi > c_hi:
            raise ValueError(f"required range must fit inside the candidate range: {self}")


DEFAULT_BANDS: Mapping[str, Band] = {
    "Easy": Band(candidates=(5, 10), required=(2, 4)),
    "Medium": Band(candidates=(10, 20), required=(4, 7)),
    "Hard": Band(candidates=(20, 40), required=(7, 12)),
}


@dataclass(frozen=True)
class DifficultyConfig:
    bands: Mapping[str, Band] = field(default_factory=lambda: dict(DEFAULT_BANDS))

    def __post_init__(self) -> None:
        for name in self.bands:
            if name not in DIFFICULTIES:
                raise ValueError(f"unknown difficulty {name!r}")

    def band(self, difficulty: str) -> Band:
        try:
            return self.bands[difficulty]
        except KeyError:
            raise ValueError(f"no band configured for difficulty {difficulty!r}") from None

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "DifficultyConfig":
        bands = {
            name: Band(tuple(spec["candidates"]), tuple(spec["required"]))
            for name, spec in doc.items()
        }
        return cls(bands)

    @classmethod
    def from_file(cls, path: str | Path) -> "DifficultyConfig":
        """Read a band config file; FormatError when it is not JSON or not valid bands."""
        doc = read_json(path)
        bands = doc.values() if isinstance(doc, dict) else [None]
        ranges = [b.get(k) if isinstance(b, dict) else None for b in bands for k in ("candidates", "required")]
        if not all(isinstance(r, list) and len(r) == 2 and all(type(x) is int for x in r) for r in ranges):
            raise FormatError(f'{path}: bands are objects of "candidates" and "required" [lo, hi] integers')
        try:
            return cls.from_dict(doc)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from None

    def to_dict(self) -> dict[str, Any]:
        return {
            name: {"candidates": list(b.candidates), "required": list(b.required)}
            for name, b in self.bands.items()
        }


@dataclass(frozen=True)
class Provenance:
    generator: str
    teacher_model: str | None = None
    replan_agreed: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "generator": self.generator,
            "teacher_model": self.teacher_model,
            "replan_agreed": self.replan_agreed,
        }


def _gold_problem(plan: PlanGraph, offered: set[str]) -> str | None:
    """The reason ``plan`` cannot be a gold plan over ``offered`` tools, or None."""
    if len(plan) == 0:
        return "gold plan is empty"
    report = validate_graph(plan)
    if not report.fully_valid:
        return f"gold plan fails {report.failed_check}: {report.detail}"
    missing = plan.tool_set - offered
    if missing:
        return f"gold uses unoffered tools {sorted(missing)}"
    return None


@dataclass(frozen=True)
class DatasetRecord:
    """One benchmark instance: query, offered tools, gold plan, difficulty."""

    record_id: str
    query: str
    candidate_tools: tuple[str, ...]
    gold_plan: PlanGraph
    difficulty: str
    provenance: Provenance

    def validate(self, config: DifficultyConfig | None = None) -> None:
        """Raise ValueError on any violated record invariant."""
        if self.difficulty not in DIFFICULTIES:
            raise ValueError(f"{self.record_id}: unknown difficulty {self.difficulty!r}")
        offered = set(self.candidate_tools)
        if len(offered) != len(self.candidate_tools):
            raise ValueError(f"{self.record_id}: duplicate candidate tools")
        problem = _gold_problem(self.gold_plan, offered)
        if problem is not None:
            raise ValueError(f"{self.record_id}: {problem}")
        if config is not None:
            band = config.band(self.difficulty)
            n_cand, n_req = len(self.candidate_tools), len(self.gold_plan)
            if not band.candidates[0] <= n_cand <= band.candidates[1]:
                raise ValueError(f"{self.record_id}: {n_cand} candidates outside band")
            if not band.required[0] <= n_req <= band.required[1]:
                raise ValueError(f"{self.record_id}: {n_req} required tools outside band")

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.record_id,
            "query": self.query,
            "candidate_tools": list(self.candidate_tools),
            "gold_plan": plan_doc(self.gold_plan),
            "difficulty": self.difficulty,
            "provenance": self.provenance.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: Any) -> "DatasetRecord":
        """Build a record from its decoded JSON document.

        Raises FormatError naming the first field that breaks the schema in
        the README's "File formats".  The record shares nothing mutable with
        ``doc``.
        """
        if not isinstance(doc, dict):
            raise FormatError("record is not an object")
        record_id = _field(doc, "id", str)
        query = _field(doc, "query", str)
        tools = _field(doc, "candidate_tools", list)
        if not all(isinstance(t, str) for t in tools):
            raise FormatError('field "candidate_tools" is not an array of strings')
        if not _is_unicode("".join(tools)):
            raise FormatError('field "candidate_tools" is not valid Unicode')
        try:
            gold = plan_from_doc(_field(doc, "gold_plan", object))
        except PlanSyntaxError as exc:
            raise FormatError(f'field "gold_plan": {exc.reason}') from None
        if not (_is_unicode("".join(n.id + n.tool for n in gold.nodes))
                and all(_is_unicode(n.args) for n in gold.nodes if n.args)):
            raise FormatError('field "gold_plan" is not valid Unicode')
        difficulty = _field(doc, "difficulty", str)
        prov = _field(doc, "provenance", dict, {})
        provenance = Provenance(
            generator=_field(prov, "generator", str, "unknown", "provenance."),
            teacher_model=_field(prov, "teacher_model", (str, type(None)), None, "provenance."),
            replan_agreed=_field(prov, "replan_agreed", bool, False, "provenance."),
        )
        return cls(record_id, query, tuple(tools), gold, difficulty, provenance)


_REQUIRED = object()
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               (str, type(None)): "a string or null"}


def _field(doc: Mapping[str, Any], name: str, kind: Any, default: Any = _REQUIRED,
           parent: str = "") -> Any:
    """``doc[name]``, or ``default`` when it is absent; FormatError when it is
    absent and required, or present and not of type ``kind``."""
    if name not in doc:
        if default is _REQUIRED:
            raise FormatError(f'missing field "{parent}{name}"')
        return default
    value = doc[name]
    if not isinstance(value, kind):
        raise FormatError(f'field "{parent}{name}" is not {_JSON_TYPES[kind]}')
    if isinstance(value, str) and not _is_unicode(value):
        raise FormatError(f'field "{parent}{name}" is not valid Unicode')
    return value


def _is_unicode(value: Any) -> bool:
    """Whether every string in a decoded JSON value encodes as UTF-8; a lone
    surrogate escape such as ``"\\ud800"`` decodes to one that does not."""
    if isinstance(value, str):
        if value.isascii():
            return True
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            return False
        return True
    if isinstance(value, dict):
        return _is_unicode(list(value)) and _is_unicode(list(value.values()))
    if isinstance(value, list):
        return all(map(_is_unicode, value))
    return True


def save_records(records: Iterable[DatasetRecord], path: str | Path, *, append: bool = False) -> None:
    """Write records as JSONL, one per line."""
    mode = "a" if append else "w"
    with open(path, mode, encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record.to_dict(), ensure_ascii=False, sort_keys=True) + "\n")


def iter_records(path: str | Path) -> Iterator[DatasetRecord]:
    """Read a JSONL dataset file; a FormatError names the 1-based line and the field."""
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = DatasetRecord.from_dict(decode_json(line))
            except FormatError as exc:
                raise FormatError(f"{path} line {number}: {exc}") from None
            yield record


def load_records(path: str | Path) -> list[DatasetRecord]:
    return list(iter_records(path))


# --- stage 1: workflow generation -----------------------------------------


def _has_branch_point(edges: Collection[tuple[Hashable, Hashable]]) -> bool:
    """Whether, among distinct edges, some node has two successors or two predecessors."""
    srcs = [u for u, _ in edges]
    dsts = [v for _, v in edges]
    return len(set(srcs)) < len(srcs) or len(set(dsts)) < len(dsts)


def _layered_dag(rng: random.Random, tools: Sequence[str], *, need_branch: bool) -> PlanGraph:
    """Seeded layered DAG over the given tools; acyclic and weakly connected.

    Every edge goes from a smaller node index to a larger one, so acyclicity
    survives the connectivity bridging and branching fix-ups.
    """
    n = len(tools)
    if n == 1:
        return PlanGraph((PlanNode("s0", tools[0]),), ())

    n_layers = rng.randint(2, n)
    cuts = sorted(rng.sample(range(1, n), n_layers - 1))
    bounds = [0, *cuts, n]  # layer L spans indices [bounds[L], bounds[L+1])
    layer_of = [0] * n
    for level in range(n_layers):
        for i in range(bounds[level], bounds[level + 1]):
            layer_of[i] = level

    edges: set[tuple[int, int]] = set()
    for i in range(n):
        if layer_of[i] > 0:
            edges.add((rng.randrange(0, bounds[layer_of[i]]), i))
    for u in range(n):
        for v in range(bounds[layer_of[u] + 1], n):
            if (u, v) not in edges and rng.random() < EXTRA_EDGE_PROB:
                edges.add((u, v))

    # Bridge weak components with forward edges until connected.
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    while True:
        components: dict[int, list[int]] = {}
        for i in range(n):
            components.setdefault(find(i), []).append(i)
        if len(components) == 1:
            break
        groups = sorted(components.values(), key=min)
        base, other = groups[0], groups[1]
        v = min(other)
        u = rng.choice([i for i in base if i < v])  # index 0 always qualifies
        edges.add((u, v))
        parent[find(u)] = find(v)

    if need_branch and n >= 3 and not _has_branch_point(edges):
        # Connected with every degree <= 1 means the graph is a single chain.
        succ = {u: v for u, v in edges}
        start = next(i for i in range(n) if i not in {v for _, v in edges})
        chain = [start]
        while chain[-1] in succ:
            chain.append(succ[chain[-1]])
        edges.add((chain[0], chain[2]))

    nodes = tuple(PlanNode(f"s{i}", tool) for i, tool in enumerate(tools))
    plan_edges = tuple(PlanEdge(f"s{u}", f"s{v}") for u, v in sorted(edges))
    return PlanGraph(nodes, plan_edges)


def _workflow_ok(
    plan: PlanGraph, offered: set[str], band: Band, *, need_branch: bool
) -> bool:
    if not band.required[0] <= len(plan) <= band.required[1] or _gold_problem(plan, offered):
        return False
    if need_branch and len(plan) >= 3:
        return _has_branch_point(plan.edge_pairs)
    return True


def generate_workflow(
    library: ToolLibrary,
    difficulty: str,
    seed: int | str,
    author: str | CompletionClient = "local",
    *,
    config: DifficultyConfig | None = None,
    max_attempts: int = 3,
) -> tuple[list[str], PlanGraph]:
    """Sample a candidate toolset within the difficulty band and author a plan.

    The local author is a pure function of (library, difficulty, seed).  A
    client author gets ``max_attempts`` tries to produce a plan that parses
    and passes structural validation; AuthorExhaustedError otherwise.
    Medium and Hard plans must contain at least one fan-in or fan-out point.
    """
    config = config or DifficultyConfig()
    band = config.band(difficulty)
    need_branch = difficulty != "Easy"
    if len(library) < band.candidates[0]:
        raise BandUnsatisfiableError(
            f"library has {len(library)} tools; {difficulty} needs >= {band.candidates[0]}"
        )
    rng = random.Random(f"workflow:{difficulty}:{seed}")
    n_candidates = rng.randint(band.candidates[0], min(band.candidates[1], len(library)))
    candidate_tools = rng.sample(library.ids(), n_candidates)
    n_required = rng.randint(band.required[0], min(band.required[1], n_candidates))
    required = rng.sample(candidate_tools, n_required)

    if author == "local":
        return candidate_tools, _layered_dag(rng, required, need_branch=need_branch)
    if not isinstance(author, CompletionClient):
        raise TypeError(f"author must be 'local' or a CompletionClient, got {author!r}")

    prompt = workflow_prompt(library.subset(candidate_tools), n_required, difficulty)
    offered = set(candidate_tools)
    for attempt in range(max_attempts):
        text = author.complete(prompt, seed=attempt)
        try:
            plan = parse_plan(text)
        except PlanSyntaxError:
            continue
        if _workflow_ok(plan, offered, band, need_branch=need_branch):
            return candidate_tools, plan
    raise AuthorExhaustedError(
        f"author produced no valid {difficulty} workflow in {max_attempts} attempts"
    )


# --- stage 2: query reverse-engineering ------------------------------------


def offline_query(plan: PlanGraph, library: ToolLibrary) -> str:
    """Templated placeholder query naming the plan's tools in topo order."""
    parts = []
    for nid in topo_order(plan):
        tool_id = plan.node_index[nid].tool
        name = library[tool_id].name if tool_id in library else tool_id
        parts.append(f"{tool_id} ({name})")
    return "Complete a task that requires, in dependency order: " + "; ".join(parts) + "."


def reverse_engineer_query(
    plan: PlanGraph, library: ToolLibrary, client: CompletionClient | None = None
) -> str:
    """Recover the user query behind a workflow; offline mode templates it."""
    if client is None:
        return offline_query(plan, library)
    specs = [library[plan.node_index[nid].tool] for nid in topo_order(plan)]
    text = client.complete(query_prompt(specs, serialize_plan(plan))).strip()
    if not text:
        raise EmptyResponseError("query reverse-engineering returned empty text")
    return text


# --- stage 3: intent analysis and re-planning -------------------------------


@dataclass(frozen=True)
class ReplanOutcome:
    accepted: bool
    final_plan: PlanGraph | None
    replan: PlanGraph | None
    edge_f1: float
    reason: str


def replan_and_filter(
    query: str,
    candidate_tools: Sequence[ToolSpec | str],
    original: PlanGraph,
    client: CompletionClient,
    mode: str = "strict",
    *,
    threshold: float = 0.8,
    seed: int | None = None,
) -> ReplanOutcome:
    """Re-solve from the query alone and decide whether the instance survives.

    strict: accept iff the replan exactly matches the original workflow, which
    then stays the gold plan.  lenient: accept iff edge F1 >= threshold AND
    the replan is itself a usable gold plan (valid structure, tools within the
    candidate set); the replan is then promoted to gold.  An unparseable
    replan is a rejection, not an abort.
    """
    if mode not in ("strict", "lenient"):
        raise ValueError(f"mode must be 'strict' or 'lenient', got {mode!r}")
    text = client.complete(replan_prompt(query, candidate_tools), seed=seed)
    try:
        replan = parse_plan(text)
    except PlanSyntaxError as exc:
        return ReplanOutcome(False, None, None, 0.0, f"unparseable replan: {exc.reason}")
    pair = score_pair(replan, original)
    if mode == "strict":
        if pair.exact_match:
            return ReplanOutcome(True, original, replan, pair.edge_f1, "exact match")
        return ReplanOutcome(False, None, replan, pair.edge_f1, "replan diverges from original")
    offered = {t.id if isinstance(t, ToolSpec) else t for t in candidate_tools}
    if pair.edge_f1 < threshold:
        return ReplanOutcome(
            False, None, replan, pair.edge_f1,
            f"edge F1 {pair.edge_f1:.3f} below threshold {threshold}",
        )
    if _gold_problem(replan, offered) is not None:
        return ReplanOutcome(False, None, replan, pair.edge_f1, "replan not structurally usable")
    return ReplanOutcome(True, replan, replan, pair.edge_f1, "within threshold")


# --- the pipeline ------------------------------------------------------------


@dataclass
class BuildStats:
    """Per-stage accounting for one build run."""

    requested: dict[str, int] = field(default_factory=dict)
    generated: dict[str, int] = field(default_factory=dict)
    attempts: int = 0
    author_failures: int = 0
    client_errors: int = 0
    unparseable_replans: int = 0
    rejected_replans: int = 0
    shortfall: dict[str, int] = field(default_factory=dict)

    def merge_counts(self, other: "BuildStats") -> None:
        """Add ``other``'s counters (its int fields) to this one's."""
        for name, value in vars(other).items():
            if isinstance(value, int):
                setattr(self, name, getattr(self, name) + value)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def _build_one(
    library: ToolLibrary,
    config: DifficultyConfig,
    difficulty: str,
    index: int,
    seed: int | str,
    client: CompletionClient | None,
    mode: str,
    threshold: float,
    max_attempts: int,
) -> tuple[DatasetRecord | None, BuildStats]:
    local = BuildStats()
    for attempt in range(max_attempts):
        local.attempts += 1
        record_seed = f"{seed}:{difficulty}:{index}:{attempt}"
        try:
            candidate_tools, plan = generate_workflow(
                library, difficulty, record_seed,
                author=client if client is not None else "local",
                config=config,
            )
        except AuthorExhaustedError:
            local.author_failures += 1
            continue
        if client is None:
            record = DatasetRecord(
                record_id=f"{difficulty.lower()}-{index:05d}",
                query=offline_query(plan, library),
                candidate_tools=tuple(candidate_tools),
                gold_plan=plan,
                difficulty=difficulty,
                provenance=Provenance(generator="local:layered/v1"),
            )
            return record, local
        try:
            query = reverse_engineer_query(plan, library, client)
            outcome = replan_and_filter(
                query, library.subset(candidate_tools), plan, client, mode,
                threshold=threshold,
            )
        except (ClientError, EmptyResponseError):
            local.client_errors += 1
            continue
        if not outcome.accepted:
            if outcome.replan is None:
                local.unparseable_replans += 1
            else:
                local.rejected_replans += 1
            continue
        assert outcome.final_plan is not None
        record = DatasetRecord(
            record_id=f"{difficulty.lower()}-{index:05d}",
            query=query,
            candidate_tools=tuple(candidate_tools),
            gold_plan=outcome.final_plan,
            difficulty=difficulty,
            provenance=Provenance(
                generator=f"teacher:{client.model_name}",
                teacher_model=client.model_name,
                replan_agreed=True,
            ),
        )
        return record, local
    return None, local


def build_dataset(
    library: ToolLibrary,
    counts: Mapping[str, int],
    seed: int | str = 0,
    *,
    config: DifficultyConfig | None = None,
    client: CompletionClient | None = None,
    mode: str = "strict",
    threshold: float = 0.8,
    max_attempts: int = 8,
    jobs: int = 1,
) -> tuple[list[DatasetRecord], BuildStats]:
    """Run the pipeline for the requested per-difficulty counts.

    Only accepted records are returned, ordered by (difficulty, index)
    regardless of worker completion order.  Deterministic given a seed and a
    replay-fixture client.  BandUnsatisfiable propagates (the config is
    wrong); per-record failures are absorbed into the stats.
    """
    config = config or DifficultyConfig()
    for difficulty in counts:
        if difficulty not in DIFFICULTIES:
            raise ValueError(f"unknown difficulty {difficulty!r}")
        if counts[difficulty] > 0:
            config.band(difficulty)

    stats = BuildStats(requested={d: int(counts.get(d, 0)) for d in DIFFICULTIES})
    tasks = [
        (difficulty, index)
        for difficulty in DIFFICULTIES
        for index in range(int(counts.get(difficulty, 0)))
    ]

    def run(task: tuple[str, int]) -> tuple[DatasetRecord | None, BuildStats]:
        difficulty, index = task
        return _build_one(
            library, config, difficulty, index, seed, client, mode, threshold, max_attempts
        )

    if jobs > 1 and tasks:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(run, tasks))
    else:
        outcomes = [run(task) for task in tasks]

    records: list[DatasetRecord] = []
    for (difficulty, _), (record, local) in zip(tasks, outcomes):
        stats.merge_counts(local)
        if record is None:
            stats.shortfall[difficulty] = stats.shortfall.get(difficulty, 0) + 1
        else:
            records.append(record)
            stats.generated[difficulty] = stats.generated.get(difficulty, 0) + 1
    return records, stats
