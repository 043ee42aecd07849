"""The plan document codec and the dataset record boundary.

``plan.plan_from_doc``/``plan.plan_doc`` convert between a decoded plan
document and a PlanGraph, ``DatasetRecord.from_dict``/``to_dict`` build on
them, and ``iter_records`` decodes each line with the plan parser's strict
decoder.  The properties here run over random graphs whose args nest lists
and objects, and over arbitrary JSON written as a record line.
"""

from __future__ import annotations

import copy
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagplan import (
    DatasetRecord,
    PlanEdge,
    PlanGraph,
    PlanNode,
    Provenance,
    iter_records,
    load_records,
    parse_plan,
    save_records,
    serialize_plan,
)
from dagplan.plan import FormatError, plan_doc, plan_from_doc

TEXT = st.text(max_size=6)
SCALARS = (st.none() | st.booleans() | st.integers(-(2**63), 2**63)
           | st.floats(allow_nan=False, allow_infinity=False) | TEXT)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=12,
)
# Any value json.dumps writes, NaN and Infinity included.
ANY_JSON = st.recursive(
    SCALARS | st.floats(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=12,
)


@st.composite
def graphs(draw, self_loops: bool = True) -> PlanGraph:
    ids = draw(st.lists(st.text(min_size=1, max_size=4), max_size=6, unique=True))
    tools = draw(st.lists(st.text(min_size=1, max_size=6), min_size=len(ids),
                          max_size=len(ids), unique=True))
    nodes = [PlanNode(nid, tool, draw(st.dictionaries(TEXT, JSON, max_size=3)))
             for nid, tool in zip(ids, tools)]
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                          max_size=8, unique=True)) if ids else []
    pairs = [(a, b) for a, b in pairs if self_loops or a != b]
    return PlanGraph(tuple(nodes), tuple(PlanEdge(a, b) for a, b in pairs))


@st.composite
def records(draw) -> DatasetRecord:
    gold = draw(graphs(self_loops=False))  # records parse gold plans with self-loops rejected
    return DatasetRecord(
        record_id=draw(TEXT),
        query=draw(st.text(max_size=20)),
        candidate_tools=tuple(draw(st.lists(TEXT, max_size=5))),
        gold_plan=gold,
        difficulty=draw(st.sampled_from(["Easy", "Medium", "Hard", "Other"])),
        provenance=Provenance(draw(TEXT), draw(st.none() | TEXT), draw(st.booleans())),
    )


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_plan_doc_round_trips(g):
    doc = plan_doc(g)
    assert plan_from_doc(doc, self_loops="cycle") == g
    # The document shares nothing mutable with the graph.
    for node in doc["nodes"]:
        node["args"]["added"] = []
    assert plan_from_doc(plan_doc(g), self_loops="cycle") == g


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_serialize_parse_serialize_is_byte_stable(g):
    text = serialize_plan(g)
    assert serialize_plan(parse_plan(text, self_loops="cycle")) == text


@settings(max_examples=100, deadline=None)
@given(st.lists(records(), max_size=4))
def test_records_round_trip_through_dicts_and_files(recs):
    for record in recs:
        assert DatasetRecord.from_dict(record.to_dict()) == record
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.jsonl"), Path(tmp, "b.jsonl")
        save_records(recs, first)
        loaded = load_records(first)
        save_records(loaded, second)
        assert loaded == recs
        assert second.read_bytes() == first.read_bytes()


@st.composite
def damaged_record_docs(draw) -> dict:
    """A valid record document with one field, at any level, dropped or replaced."""
    doc = draw(records()).to_dict()
    targets = [doc, doc["provenance"], doc["gold_plan"], *doc["gold_plan"]["nodes"],
               *doc["gold_plan"]["edges"]]
    target = draw(st.sampled_from(targets))
    key = draw(st.sampled_from(sorted(target) + ["extra"]))
    if draw(st.booleans()):
        target.pop(key, None)
    else:
        target[key] = draw(ANY_JSON)
    return doc


@settings(max_examples=400, deadline=None)
@given(ANY_JSON | damaged_record_docs())
def test_every_json_line_is_a_record_or_a_format_error(value):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "data.jsonl")
        path.write_text("\n" + json.dumps(value) + "\n", encoding="utf-8")
        try:
            loaded = list(iter_records(path))
        except FormatError as exc:
            assert str(exc).startswith(f"{path} line 2: ")
            return
    assert [type(r) for r in loaded] == [DatasetRecord]
    assert DatasetRecord.from_dict(loaded[0].to_dict()) == loaded[0]


@pytest.mark.parametrize("where", ["args", "query"])
def test_non_finite_numbers_in_a_record_line_are_format_errors(tmp_path, where):
    doc = {"id": "r", "query": "q", "candidate_tools": ["t"], "difficulty": "Easy",
           "gold_plan": {"nodes": [{"id": "a", "tool": "t", "args": {"x": [1.5]}}]}}
    if where == "args":
        doc["gold_plan"]["nodes"][0]["args"]["x"].append(math.inf)
    else:
        doc["query"] = math.nan
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match="line 1: not valid JSON: number .* is not finite"):
        load_records(path)


def test_record_shares_nothing_mutable_with_its_document():
    doc = {"id": "r", "query": "q", "candidate_tools": ["t1", "t2"], "difficulty": "Easy",
           "gold_plan": {"nodes": [{"id": "a", "tool": "t1", "args": {"k": [1, {"n": 2}]}},
                                   {"id": "b", "tool": "t2"}],
                         "edges": [{"from": "a", "to": "b"}]},
           "provenance": {"generator": "g", "teacher_model": None, "replan_agreed": True}}
    record = DatasetRecord.from_dict(doc)
    before = copy.deepcopy(record.to_dict())
    doc["candidate_tools"].append("t3")
    args = doc["gold_plan"]["nodes"][0]["args"]
    args["k"].append(3)
    args["k"][1]["n"] = 5
    args["new"] = True
    doc["gold_plan"]["nodes"][1]["args"] = {"late": 1}
    doc["gold_plan"]["edges"].append({"from": "b", "to": "a"})
    doc["provenance"]["generator"] = "other"
    assert record.to_dict() == before
    record.to_dict()["gold_plan"]["nodes"][0]["args"]["k"].append(4)
    assert record.to_dict() == before


@pytest.mark.parametrize("where, field", [
    ("id", "id"), ("query", "query"), ("candidate_tools", "candidate_tools"),
    ("node id", "gold_plan"), ("args", "gold_plan"), ("args key", "gold_plan"),
    ("generator", "provenance.generator"),
])
def test_strings_that_are_not_valid_unicode_are_format_errors(tmp_path, where, field):
    lone = "x\ud800y"  # a lone surrogate: no UTF-8 encoding exists
    doc = {"id": "r", "query": "q", "candidate_tools": ["t"], "difficulty": "Easy",
           "gold_plan": {"nodes": [{"id": "a", "tool": "t", "args": {"k": ["v"]}}]},
           "provenance": {"generator": "g"}}
    node = doc["gold_plan"]["nodes"][0]
    if where in ("id", "query"):
        doc[where] = lone
    elif where == "candidate_tools":
        doc["candidate_tools"].append(lone)
    elif where == "node id":
        node["id"] = lone
    elif where == "args":
        node["args"]["k"].append({"deep": lone})
    elif where == "args key":
        node["args"][lone] = 1
    else:
        doc["provenance"]["generator"] = lone
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")  # written as a \ud800 escape
    with pytest.raises(FormatError, match=f'line 1: field "{field}" is not valid Unicode'):
        load_records(path)


def test_escaped_surrogate_pairs_load_and_save(tmp_path):
    doc = {"id": "r", "query": "smile \U0001F600", "candidate_tools": ["t"], "difficulty": "Easy",
           "gold_plan": {"nodes": [{"id": "a", "tool": "t", "args": {"k": "\u00e9"}}]}}
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")  # ASCII with \ud83d\ude00
    records = load_records(path)
    save_records(records, tmp_path / "again.jsonl")
    assert load_records(tmp_path / "again.jsonl") == records
