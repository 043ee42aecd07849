"""Tool catalog loading, validation, and synthetic generation."""

from __future__ import annotations

import json

import pytest

from dagplan import (
    DuplicateToolIdError,
    MalformedCatalogError,
    ToolLibrary,
    ToolParam,
    ToolSpec,
    load_library,
    save_library,
    serialize_library,
    synth_library,
)


def write_catalog(tmp_path, doc, name="tools.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


THREE_TOOLS = [
    {"id": "weather.get", "name": "get_weather", "description": "Current weather.",
     "params": [{"name": "city", "type": "string", "required": True}]},
    {"id": "geo.lookup", "name": "geocode", "description": "Resolve a place name.",
     "params": [{"name": "place", "type": "string"}]},
    {"id": "mail.send", "name": "send_mail", "description": "Send an email.",
     "params": [{"name": "to", "type": "string"}, {"name": "body", "type": "string"}],
     "output_schema": {"type": "object"}},
]


def test_load_three_tools(tmp_path):
    lib = load_library(write_catalog(tmp_path, THREE_TOOLS))
    assert len(lib) == 3
    assert "weather.get" in lib
    assert lib["geo.lookup"].name == "geocode"
    assert lib["weather.get"].params[0].required is True
    assert lib["mail.send"].output_schema == {"type": "object"}


def test_duplicate_id_names_the_offender(tmp_path):
    doc = THREE_TOOLS + [{"id": "weather.get", "name": "dup", "description": ""}]
    with pytest.raises(DuplicateToolIdError) as err:
        load_library(write_catalog(tmp_path, doc))
    assert err.value.tool_id == "weather.get"
    assert "weather.get" in str(err.value)


def test_empty_catalog_is_valid(tmp_path):
    lib = load_library(write_catalog(tmp_path, []))
    assert len(lib) == 0


def test_unknown_fields_warn_but_load(tmp_path):
    doc = [dict(THREE_TOOLS[0], vendor="someone", rate_limit=10)]
    path = write_catalog(tmp_path, doc)
    with pytest.warns(UserWarning, match="unknown fields"):
        lib = load_library(path)
    assert len(lib) == 1


@pytest.mark.parametrize(
    "doc",
    [
        {"tools": []},
        [{"name": "no id"}],
        [{"id": "a", "params": {"name": "x"}}],
        [{"id": "a", "params": [{"type": "string"}]}],
        [{"id": "a", "params": [{"name": "x", "type": "integer"}]}],
        [{"id": "a", "output_schema": 3}],
    ],
)
def test_malformed_catalogs_rejected(tmp_path, doc):
    with pytest.raises(MalformedCatalogError):
        load_library(write_catalog(tmp_path, doc))


@pytest.mark.parametrize(
    "changes",
    [
        {"id": "weather.get\ud800"},
        {"name": "x\ud800"},
        {"description": "\udfff"},
        {"params": [{"name": "city\ud800"}]},
        {"output_schema": {"type": "\ud800"}},
        {"output_schema": {"\ud800": "object"}},
    ],
)
def test_catalog_string_that_is_not_valid_unicode_names_the_tool(tmp_path, changes):
    path = write_catalog(tmp_path, [dict(THREE_TOOLS[0], **changes)])
    with pytest.raises(MalformedCatalogError, match="tool 'weather.get.*not valid Unicode"):
        load_library(path)


@pytest.mark.parametrize("tool, message", [
    ({"id": "a", "name": {"k": 1}}, 'field "name" is not a string'),
    ({"id": "a", "description": 7}, 'field "description" is not a string'),
    ({"id": "a", "params": [{"name": "x", "required": "no"}]}, 'field "params[0].required" is not a boolean'),
    ({"id": "a", "params": [{"name": "x", "type": 5}]}, 'field "params[0].type" is not a string'),
], ids=["name", "description", "required", "type"])
def test_catalog_field_of_the_wrong_type_is_rejected_naming_file_tool_and_field(tmp_path, tool, message):
    # A catalog field is read as its documented type, never coerced to it.
    path = write_catalog(tmp_path, [tool])
    with pytest.raises(MalformedCatalogError) as err:
        load_library(path)
    assert str(err.value) == f"{path}: tool 'a': {message}"


def test_catalog_fields_take_their_documented_defaults(tmp_path):
    lib = load_library(write_catalog(tmp_path, [{"id": "a", "params": [{"name": "x"}]}]))
    assert lib["a"] == ToolSpec("a", "a", "", (ToolParam("x", "string", True),), None)


def test_deeply_nested_output_schema_loads_and_is_checked_for_unicode(tmp_path):
    # Nesting the decoder accepts, but deeper than a recursive walk could go.
    depth = 600
    schema = json.loads('{"k": ' * depth + '"v"' + "}" * depth)
    lib = load_library(write_catalog(tmp_path, [{"id": "a", "output_schema": schema}]))
    assert lib["a"].output_schema == schema
    path = write_catalog(tmp_path, [{"id": "a", "output_schema": json.loads(
        '{"k": ' * depth + '"\\ud800"' + "}" * depth)}])
    with pytest.raises(MalformedCatalogError) as err:
        load_library(path)
    assert str(err.value) == f'{path}: tool \'a\': field "output_schema" is not valid Unicode'


def test_not_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("not json[", encoding="utf-8")
    with pytest.raises(MalformedCatalogError):
        load_library(path)


def test_round_trip_identity(tmp_path):
    lib = synth_library(25, seed=3)
    path = tmp_path / "out.json"
    save_library(lib, path)
    again = load_library(path)
    assert again == lib
    assert again.source != lib.source  # provenance may differ, tools may not


def test_serialize_preserves_order():
    lib = synth_library(10, seed=1)
    doc = json.loads(serialize_library(lib))
    assert [t["id"] for t in doc] == lib.ids()


def test_synth_is_pure_function_of_count_and_seed():
    assert synth_library(10, seed=7) == synth_library(10, seed=7)
    assert synth_library(10, seed=7) != synth_library(10, seed=8)


def test_synth_single_tool():
    lib = synth_library(1, seed=0)
    assert len(lib) == 1


def test_synth_scale_parity():
    lib = synth_library(4535, seed=1)
    assert len(lib) == 4535
    assert len(set(lib.ids())) == 4535


def test_synth_id_pattern_and_param_range():
    lib = synth_library(50, seed=9)
    for k, tool in enumerate(lib):
        category, _, rest = tool.id.partition(".")
        assert category.startswith("cat")
        assert rest == f"tool{k}"
        assert 1 <= len(tool.params) <= 4
        assert tool.category == category


def test_library_lookup_raises_for_unknown_id():
    lib = synth_library(3, seed=0)
    with pytest.raises(KeyError):
        lib["nope.missing"]


def test_library_rejects_duplicates_at_construction():
    spec = ToolSpec("x.y", "x", "d")
    with pytest.raises(DuplicateToolIdError):
        ToolLibrary((spec, spec))


def test_tool_spec_rejects_duplicate_param_names():
    with pytest.raises(MalformedCatalogError):
        ToolSpec("a.b", "a", "d", params=(ToolParam("p"), ToolParam("p")))
