"""Every config reader is total over mutated files.

Each reader gets a valid seed document that hypothesis breaks by byte flips,
truncation, splices (of JSON fragments or of the document itself), deep
nesting of a value, lone surrogate escapes and huge numbers.  A reader either returns or
raises a FormatError whose message starts with the file's path; ``report``
exits 0, 1 or 2 and prints no traceback.  No reader opens a socket: bindings
and client settings are only read, never used.
"""

from __future__ import annotations

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dagplan import DifficultyConfig, FixtureClient, HttpRegistry, fixture_key, load_library
from dagplan.cli import _client_config, main
from dagplan.plan import FormatError, read_config

SEEDS = {
    "catalog": [{"id": "weather.get", "name": "get_weather", "description": "Current weather.",
                 "params": [{"name": "city", "type": "string", "required": True}],
                 "output_schema": {"type": "object", "properties": {"t": {"type": "number"}}}}],
    "bindings": {"weather.get": {"url": "http://127.0.0.1:9/run/{tool}", "method": "GET",
                                 "timeout": 2.5, "headers": {"X-Key": "v"}}},
    "cassette": {"entries": {fixture_key("prompt"): "text", fixture_key("prompt", 1): "more"}},
    "bands": {"Easy": {"candidates": [5, 10], "required": [2, 4]},
              "Hard": {"candidates": [20, 40], "required": [7, 12]}},
    "client": {"base_url": "http://127.0.0.1:9/v1", "model": "m", "api_key_env": "KEY", "timeout": 5},
}

REPORTS = [
    {"groups": {"Easy": {"count": 2, "failures": 0, "precision": 0.5}}, "overall": {"count": 2}},
    {"count": 2, "branches": {"cycle": 1, "fidelity": 1}, "mean_value": -0.25},
    {"kept": 1, "input_count": 3, "histogram": {"0.5": 1, "1.0": 2}},
    {"requested": {"Easy": 2, "Hard": 1}, "generated": {"Easy": 2}},
]

FRAGMENTS = [b'"\\ud800"', b'"\\uDFFF"', b"1e400", b"-1e999", b"9" * 400, b"NaN", b"[" * 3000,
             b'{"a": ' * 3000, b"null", b"true", b"{}", b"[]", b'"x"', b",", b":", b'"', b"\xff\xfe"]


@st.composite
def mutated(draw, seed: bytes) -> bytes:
    """``seed`` after one to three random edits."""
    data = bytearray(seed)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["flip", "truncate", "splice", "self-splice", "nest", "nest",
                                     "surrogate"]))
        if edit == "flip" and at < len(data):
            data[at] ^= draw(st.integers(1, 255))
        elif edit == "truncate":
            del data[at:]
        elif edit == "splice":
            data[at:at] = draw(st.sampled_from(FRAGMENTS))
        elif edit == "self-splice":
            start = draw(st.integers(0, len(data)))
            data[at:at] = data[start:start + draw(st.integers(1, 40))]
        elif edit == "nest":  # the value after a colon, or the document, in arrays or objects
            depth = draw(st.sampled_from([50, 600, 2000]))
            left, right = draw(st.sampled_from([(b"[", b"]"), (b'{"k": ', b"}")]))
            starts = [i + 1 for i, byte in enumerate(data) if byte == ord(":")] or [0]
            start = starts[draw(st.integers(0, len(starts) - 1))]
            end = next((i for i in range(start, len(data)) if data[i] in b",}"), len(data))
            data[start:end] = left * depth + data[start:end] + right * depth
        elif edit == "surrogate":
            quotes = [i for i, byte in enumerate(data) if byte == ord('"')]
            if quotes:
                i = quotes[draw(st.integers(0, len(quotes) - 1))] + 1
                data[i:i] = b"\\ud800"
    return bytes(data)


def documents(name: str):
    return mutated(json.dumps(SEEDS[name]).encode("utf-8"))


READERS = {
    "catalog": load_library,
    "bindings": HttpRegistry.from_file,
    "cassette": FixtureClient,
    "bands": DifficultyConfig.from_file,
    "client": lambda path: read_config(path, _client_config),
}

FUZZ = settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def _reads_or_names_the_file(path, reader) -> None:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a catalog's unknown fields warn
            reader(str(path))
    except FormatError as exc:
        assert str(exc).startswith(f"{path}: "), str(exc)


@pytest.mark.parametrize("name", list(READERS))
@FUZZ
@given(data=st.data())
def test_config_reader_returns_or_raises_a_format_error_naming_the_file(tmp_path, name, data):
    path = tmp_path / f"{name}.json"
    path.write_bytes(data.draw(documents(name)))
    _reads_or_names_the_file(path, READERS[name])


@FUZZ
@given(st.sampled_from(REPORTS).flatmap(lambda doc: mutated(json.dumps(doc).encode("utf-8"))))
def test_report_exits_0_1_or_2_without_a_traceback(tmp_path, data):
    path = tmp_path / "summary.json"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["report", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith(f"dagplan: {path}: "), err.getvalue()
