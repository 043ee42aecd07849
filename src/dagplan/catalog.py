"""Tool catalogs: specs, libraries, file loading, and synthetic generation.

The catalog file format is a UTF-8 JSON array of tool objects::

    [{"id": "weather.get", "name": "...", "description": "...",
      "params": [{"name": "city", "type": "string", "required": true}],
      "output_schema": {...}}, ...]

``output_schema`` is optional; unknown fields are ignored with a warning so
catalogs from richer sources load without modification.
"""

from __future__ import annotations

import json
import random
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

from .plan import FormatError, _field, read_config

PARAM_TYPES = ("string", "number", "boolean", "object", "array")

_KNOWN_TOOL_FIELDS = {"id", "name", "description", "params", "output_schema"}
_KNOWN_PARAM_FIELDS = {"name", "type", "required"}


class MalformedCatalogError(FormatError):
    """The catalog file cannot be read as the documented format."""


class DuplicateToolIdError(MalformedCatalogError):
    """Two tools in one catalog share an id."""

    def __init__(self, tool_id: str):
        super().__init__(f"duplicate tool id {tool_id!r}")
        self.tool_id = tool_id


@dataclass(frozen=True)
class ToolParam:
    name: str
    type: str = "string"
    required: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise MalformedCatalogError("parameter with empty name")
        if self.type not in PARAM_TYPES:
            raise MalformedCatalogError(
                f"parameter {self.name!r} has unknown type {self.type!r}"
            )


@dataclass(frozen=True)
class ToolSpec:
    """One callable tool: identity, human description, and parameter shape."""

    id: str
    name: str
    description: str
    params: tuple[ToolParam, ...] = ()
    output_schema: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))
        if not self.id:
            raise MalformedCatalogError("tool with empty id")
        names = [p.name for p in self.params]
        if len(names) != len(set(names)):
            raise MalformedCatalogError(f"tool {self.id!r} has duplicate parameter names")

    @property
    def category(self) -> str:
        """The prefix before the first '.', used for category-level splits."""
        return self.id.split(".", 1)[0]

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "id": self.id,
            "name": self.name,
            "description": self.description,
            "params": [
                {"name": p.name, "type": p.type, "required": p.required}
                for p in self.params
            ],
        }
        if self.output_schema is not None:
            doc["output_schema"] = dict(self.output_schema)
        return doc


@dataclass(frozen=True, eq=False)
class ToolLibrary:
    """An ordered, id-unique collection of tools; immutable after load.

    Equality compares the tool sequence only — ``source`` is provenance
    (file path or "synthetic") and round-trips are allowed to change it.
    """

    tools: tuple[ToolSpec, ...]
    source: str = "unspecified"

    def __post_init__(self) -> None:
        object.__setattr__(self, "tools", tuple(self.tools))
        seen: set[str] = set()
        for tool in self.tools:
            if tool.id in seen:
                raise DuplicateToolIdError(tool.id)
            seen.add(tool.id)
        object.__setattr__(self, "_by_id", {t.id: t for t in self.tools})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ToolLibrary):
            return NotImplemented
        return self.tools == other.tools

    def __len__(self) -> int:
        return len(self.tools)

    def __iter__(self) -> Iterator[ToolSpec]:
        return iter(self.tools)

    def __contains__(self, tool_id: str) -> bool:
        return tool_id in self._by_id  # type: ignore[attr-defined]

    def __getitem__(self, tool_id: str) -> ToolSpec:
        try:
            return self._by_id[tool_id]  # type: ignore[attr-defined]
        except KeyError:
            raise KeyError(f"no tool with id {tool_id!r}") from None

    def ids(self) -> list[str]:
        return [t.id for t in self.tools]

    def subset(self, tool_ids: list[str]) -> list[ToolSpec]:
        return [self[tid] for tid in tool_ids]


_ID = (lambda v: isinstance(v, str) and v != "", "a non-empty string")
_PARAMS = (lambda v: isinstance(v, list) and all(isinstance(p, dict) for p in v), "an array of objects")
_SCHEMA = (lambda v: v is None or isinstance(v, dict), "an object or null")


def _warn_unknown(obj: dict[str, Any], known: set[str], label: str) -> None:
    unknown = set(obj) - known
    if unknown:
        warnings.warn(f"{label}: ignoring unknown fields {sorted(unknown)}", stacklevel=4)


def _parse_tool(obj: Any, index: int) -> ToolSpec:
    """Tool ``index`` of a catalog document; a FormatError names the tool, by its
    id once the document gives one, and the field."""
    if not isinstance(obj, dict):
        raise FormatError(f"tool #{index} is not an object")
    _warn_unknown(obj, _KNOWN_TOOL_FIELDS, f"tool #{index}")
    tool_id = obj.get("id")
    label = f"tool {tool_id!r}" if isinstance(tool_id, str) and tool_id else f"tool #{index}"
    try:
        tool_id = _field(obj, "id", _ID)
        params = []
        for j, param in enumerate(_field(obj, "params", _PARAMS, [])):
            _warn_unknown(param, _KNOWN_PARAM_FIELDS, f"tool {tool_id!r} param #{j}")
            where = f"params[{j}]."
            params.append(ToolParam(_field(param, "name", str, where=where),
                                    _field(param, "type", str, "string", where),
                                    _field(param, "required", bool, True, where)))
        name = _field(obj, "name", str, tool_id)
        description = _field(obj, "description", str, "")
        schema = _field(obj, "output_schema", _SCHEMA, None)
    except FormatError as exc:
        exc.args = (f"{label}: {exc}",)
        raise
    return ToolSpec(tool_id, name, description, tuple(params), schema)


def load_library(path: str | Path) -> ToolLibrary:
    """Load a catalog file; a MalformedCatalogError names the file, and the tool
    and field at fault, or the repeated id (a DuplicateToolIdError)."""
    path = Path(path)

    def build(doc: Any) -> ToolLibrary:
        if not isinstance(doc, list):
            raise FormatError("top-level value is not an array")
        return ToolLibrary(tuple(_parse_tool(obj, i) for i, obj in enumerate(doc)), source=str(path))

    try:
        return read_config(path, build)
    except MalformedCatalogError:
        raise
    except FormatError as exc:
        raise MalformedCatalogError(str(exc)) from None


def serialize_library(library: ToolLibrary) -> str:
    """Serialize preserving tool order; load_library(serialize(L)) == L."""
    return json.dumps([t.to_dict() for t in library.tools], indent=2, ensure_ascii=False)


def save_library(library: ToolLibrary, path: str | Path) -> None:
    Path(path).write_text(serialize_library(library) + "\n", encoding="utf-8")


_VERBS = ("fetch", "rank", "convert", "summarize", "translate", "plot",
          "merge", "filter", "extract", "classify", "geocode", "schedule")
_NOUNS = ("weather", "stock quotes", "news articles", "routes", "images",
          "reviews", "timelines", "inventory", "emails", "transcripts",
          "currencies", "venues")


def synth_library(count: int, seed: int) -> ToolLibrary:
    """Deterministically synthesize a library of ``count`` tools.

    Pure function of (count, seed).  Ids follow the "cat{c}.tool{k}" pattern
    with k a global index, so category splits fall out of the id prefix.
    Parameter counts are drawn from the fixed range 1..4.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = random.Random(f"synth-library:{seed}")
    tools: list[ToolSpec] = []
    category = 0
    remaining_in_category = rng.randint(4, 12)
    for k in range(count):
        if remaining_in_category == 0:
            category += 1
            remaining_in_category = rng.randint(4, 12)
        remaining_in_category -= 1
        verb = rng.choice(_VERBS)
        noun = rng.choice(_NOUNS)
        n_params = rng.randint(1, 4)
        params = tuple(
            ToolParam(
                name=f"p{j}",
                type=rng.choice(PARAM_TYPES),
                required=rng.random() < 0.7,
            )
            for j in range(n_params)
        )
        tools.append(
            ToolSpec(
                id=f"cat{category}.tool{k}",
                name=f"{verb}_{noun.split()[0]}_{k}",
                description=f"{verb.capitalize()} {noun} (synthetic tool {k}).",
                params=params,
                output_schema={"type": "object", "properties": {"digest": {"type": "string"}}},
            )
        )
    return ToolLibrary(tuple(tools), source="synthetic")
