"""Completion clients: scripted, fixture replay, recording, and live HTTP."""

from __future__ import annotations

import json
import os
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagplan import (
    ClientError,
    EmptyResponseError,
    FixtureClient,
    HttpCompletionClient,
    HttpRegistry,
    RecordingClient,
    ScriptedClient,
    execute,
    fixture_key,
    save_cassette,
)
from dagplan.plan import FormatError
from helpers import loopback, make_plan


class ScriptedEndpoint:
    """One-shot HTTP server answering from a queue of (status, body) pairs; a
    body is text, sent as UTF-8, or raw bytes."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests: list[dict] = []
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802 (stdlib casing)
                length = int(self.headers.get("Content-Length", "0"))
                outer.requests.append({
                    "path": self.path,
                    "headers": dict(self.headers),
                    "body": json.loads(self.rfile.read(length) or b"{}"),
                })
                status, body = outer.responses.pop(0)
                payload = body if isinstance(body, bytes) else body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}"

    def close(self):
        self.server.shutdown()
        self.server.server_close()


def chat_body(content: str) -> str:
    return json.dumps({"choices": [{"message": {"content": content}}]})


# --- scripted -----------------------------------------------------------------


def test_scripted_client_seed_indexing():
    client = ScriptedClient(["a", "b", "c"])
    assert [client.complete("p", seed=i) for i in range(5)] == ["a", "b", "c", "a", "b"]


def test_scripted_client_sequential_and_exhaustion():
    client = ScriptedClient(["only"])
    assert client.complete("p") == "only"
    with pytest.raises(ClientError):
        client.complete("p")


def test_scripted_client_rejects_empty_script():
    with pytest.raises(ValueError):
        ScriptedClient([])


# --- fixtures -----------------------------------------------------------------


def test_fixture_key_distinguishes_seed_and_prompt():
    assert fixture_key("p", 0) != fixture_key("p", 1)
    assert fixture_key("p") != fixture_key("q")
    assert fixture_key("p", 3) == fixture_key("p", 3)


def test_fixture_client_replays_and_errors_on_miss(tmp_path):
    entries = {fixture_key("hello", None): "world", fixture_key("hello", 1): "other"}
    client = FixtureClient(entries)
    assert client.complete("hello") == "world"
    assert client.complete("hello", seed=1) == "other"
    with pytest.raises(ClientError, match="no fixture entry"):
        client.complete("hello", seed=2)

    path = tmp_path / "cassette.json"
    save_cassette(entries, path)
    replay = FixtureClient(path)
    assert replay.complete("hello") == "world"


def test_recording_client_builds_replayable_cassette(tmp_path):
    inner = ScriptedClient(["first", "second"])
    recorder = RecordingClient(inner)
    assert recorder.complete("p1") == "first"
    assert recorder.complete("p2", seed=1) == "second"
    path = tmp_path / "cassette.json"
    recorder.save(path)
    replay = FixtureClient(path)
    assert replay.complete("p1") == "first"
    assert replay.complete("p2", seed=1) == "second"


@pytest.mark.parametrize("text", ["caf\u00e9", "x\ud800y"])
def test_saved_cassette_replays_every_response_exactly(tmp_path, text):
    path = tmp_path / "cassette.json"
    save_cassette({fixture_key("p"): text}, path)
    assert FixtureClient(path).complete("p") == text


# --- HTTP ---------------------------------------------------------------------


def test_http_client_success_and_payload_shape(monkeypatch):
    endpoint = ScriptedEndpoint([(200, chat_body("pong"))])
    try:
        monkeypatch.setenv("DAGPLAN_API_KEY", "sekrit")
        client = HttpCompletionClient(endpoint.url, "test-model", backoff=0.01)
        assert client.complete("ping", seed=9) == "pong"
        request = endpoint.requests[0]
        assert request["path"] == "/chat/completions"
        assert request["body"]["model"] == "test-model"
        assert request["body"]["messages"] == [{"role": "user", "content": "ping"}]
        assert request["body"]["seed"] == 9
        assert request["headers"]["Authorization"] == "Bearer sekrit"
    finally:
        endpoint.close()


def test_http_client_retries_transient_failures():
    endpoint = ScriptedEndpoint([(500, "{}"), (200, chat_body("recovered"))])
    try:
        client = HttpCompletionClient(endpoint.url, "m", backoff=0.01)
        assert client.complete("p") == "recovered"
        assert len(endpoint.requests) == 2
    finally:
        endpoint.close()


def test_http_client_gives_up_after_capped_retries():
    endpoint = ScriptedEndpoint([(503, "{}")] * 3)
    try:
        client = HttpCompletionClient(endpoint.url, "m", max_retries=3, backoff=0.01)
        with pytest.raises(ClientError, match="failed after 3 attempts"):
            client.complete("p")
        assert len(endpoint.requests) == 3
    finally:
        endpoint.close()


def test_http_client_does_not_retry_client_errors():
    endpoint = ScriptedEndpoint([(400, "{}")])
    try:
        client = HttpCompletionClient(endpoint.url, "m", backoff=0.01)
        with pytest.raises(ClientError, match="HTTP 400"):
            client.complete("p")
        assert len(endpoint.requests) == 1
    finally:
        endpoint.close()


def test_http_client_empty_content_is_an_error():
    endpoint = ScriptedEndpoint([(200, chat_body("   "))])
    try:
        client = HttpCompletionClient(endpoint.url, "m", backoff=0.01)
        with pytest.raises(EmptyResponseError):
            client.complete("p")
    finally:
        endpoint.close()


def test_http_client_rejects_malformed_response_shape():
    endpoint = ScriptedEndpoint([(200, json.dumps({"unexpected": True}))])
    try:
        client = HttpCompletionClient(endpoint.url, "m", backoff=0.01)
        with pytest.raises(ClientError, match="choices"):
            client.complete("p")
    finally:
        endpoint.close()


def test_http_client_body_that_is_not_utf8_is_a_client_error():
    with loopback(200, b"\xff\xfe") as url:
        client = HttpCompletionClient(url, "m", backoff=0.01)
        with pytest.raises(ClientError, match="/chat/completions: response body is not UTF-8"):
            client.complete("p")


def test_http_client_errors_that_are_held_keep_no_socket_open():
    # A ClientError keeps the HTTPError, and so its response, as __cause__; a
    # caller that holds the errors (curate holds one per unprofiled record)
    # must not hold their sockets with them.
    before = len(os.listdir("/proc/self/fd"))
    held = []
    with loopback(400, b"{}") as url:
        client = HttpCompletionClient(url, "m", backoff=0.0)
        for _ in range(20):
            with pytest.raises(ClientError, match="HTTP 400") as caught:
                client.complete("p")
            held.append(caught.value)
    after = len(os.listdir("/proc/self/fd"))
    assert [type(error.__cause__).__name__ for error in held] == ["HTTPError"] * 20
    assert after <= before


@pytest.mark.parametrize("base_url, settings, message", [
    ("nonsense", {}, "base URL 'nonsense' does not start with http:// or https://"),
    ("ftp://127.0.0.1:9", {}, "does not start with http:// or https://"),
    ("http://127.0.0.1:9", {"timeout": "soon"}, "timeout 'soon' is not a number of seconds above 0"),
    ("http://127.0.0.1:9", {"timeout": True}, "timeout True is not"),
    ("http://127.0.0.1:9", {"timeout": 0}, "timeout 0 is not"),
], ids=["not-a-url", "ftp", "timeout-string", "timeout-bool", "timeout-zero"])
def test_http_client_rejects_in_memory_what_client_settings_reject(base_url, settings, message):
    with pytest.raises(FormatError, match=re.escape(message)):
        HttpCompletionClient(base_url, "m", **settings)


def test_http_client_body_nested_too_deep_is_a_client_error():
    endpoint = ScriptedEndpoint([(200, "[" * 100_000)])
    try:
        client = HttpCompletionClient(endpoint.url, "m", backoff=0.01)
        with pytest.raises(ClientError, match="non-JSON response from"):
            client.complete("p")
    finally:
        endpoint.close()


# --- HTTP bodies, fuzzed: every response is text or a classified error --------

STATUSES = st.sampled_from([200, 400, 404, 429, 500, 503])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
CHAT_BODIES = st.builds(lambda content: chat_body(content).encode("utf-8"), st.text() | JSON_VALUES)


@st.composite
def damaged(draw, bodies, how: str) -> bytes:
    """A drawn body with bytes flipped, cut short, or with a byte that no UTF-8 text holds."""
    body = bytearray(draw(bodies))
    if how == "flip":
        for index in draw(st.lists(st.integers(0, len(body) - 1), min_size=1, max_size=4)):
            body[index] ^= draw(st.integers(1, 255))
    elif how == "truncate":
        del body[draw(st.integers(0, len(body) - 1)):]
    else:
        body.insert(draw(st.integers(0, len(body))), draw(st.integers(0xF8, 0xFF)))
    return bytes(body)


RESPONSE_BODIES = st.one_of(
    CHAT_BODIES,
    JSON_VALUES.map(lambda value: json.dumps(value).encode("utf-8")),
    damaged(CHAT_BODIES, "flip"),
    damaged(CHAT_BODIES, "truncate"),
    damaged(CHAT_BODIES, "non-utf8"),
    st.integers(1, 100_000).map(lambda depth: b'{"choices": ' + b"[" * depth + b"]" * depth + b"}"),
    st.integers(300, 6000).map(lambda digits: chat_body("x")[:-1].encode() + b', "n": 1' + b"0" * digits + b"}"),
    st.sampled_from([b"1e400", b"-1e400", b'{"choices": [{"message": {"content": 1e999}}]}']),
    st.sampled_from(["\\ud800", "a\\udfff", "\\ud83d"]).map(
        lambda escape: ('{"choices": [{"message": {"content": "%s"}}]}' % escape).encode("ascii")),
)


def utf8(body: bytes) -> bool:
    try:
        body.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


@pytest.fixture(scope="module")
def endpoint():
    """One loopback server for every example; each sets its one reply."""
    server = ScriptedEndpoint([])
    yield server
    server.close()


@settings(max_examples=60, deadline=None)
@given(status=STATUSES, body=RESPONSE_BODIES)
def test_http_client_returns_text_or_raises_client_error(endpoint, status, body):
    endpoint.responses = [(status, body)]
    client = HttpCompletionClient(endpoint.url, "m", max_retries=1, backoff=0.0)
    try:
        text = client.complete("p")
    except ClientError as exc:
        if status == 200:
            assert utf8(body) or "response body is not UTF-8" in str(exc)
        else:  # "HTTP 400" is not retried; "HTTP Error 503: ..." was, up to the one attempt
            assert re.search(rf"HTTP (Error )?{status}\b", str(exc))
    else:
        assert status == 200 and isinstance(text, str) and text.strip()
    assert endpoint.responses == []


@settings(max_examples=60, deadline=None)
@given(status=STATUSES, body=RESPONSE_BODIES)
def test_http_registry_node_is_ok_or_failed(endpoint, status, body):
    endpoint.responses = [(status, body)]
    registry = HttpRegistry({"t1": {"url": endpoint.url + "/{tool}"}}, retries=0, backoff=0.0)
    trace = execute(make_plan([("a", "t1")], []), registry)
    # Any UTF-8 body of a 200 is an output: JSON decoded, anything else as {"text": body}.
    assert trace.nodes["a"].status == ("ok" if status == 200 and utf8(body) else "failed")
    assert endpoint.responses == []
