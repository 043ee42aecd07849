"""Completion clients: live HTTP, recorded-fixture replay, and scripted stubs.

Every client exposes one method, ``complete(prompt, *, seed=None) -> str``.
The optional ``seed`` is a diversity knob: live clients forward it to the
endpoint, replay clients fold it into the cassette key so the same prompt can
yield different recorded responses per rollout.
"""

from __future__ import annotations

import abc
import hashlib
import json
import os
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Mapping, Sequence


class ClientError(RuntimeError):
    """A completion request failed permanently (after any retries)."""


class EmptyResponseError(ClientError):
    """The endpoint answered with empty or whitespace-only text."""


class CompletionClient(abc.ABC):
    """Anything that maps a prompt to completion text."""

    model_name: str = "unknown"

    @abc.abstractmethod
    def complete(self, prompt: str, *, seed: int | None = None) -> str:
        raise NotImplementedError


def http_request(
    request: urllib.request.Request,
    timeout: float,
    *,
    attempts: int,
    backoff: float,
    max_backoff: float,
    error: type[Exception],
    label: str,
) -> str:
    """Send one HTTP request and return the decoded body, retrying transient failures.

    Connection errors, timeouts and HTTP 429/5xx are retried, up to
    ``attempts`` tries in all; try k > 0 first sleeps
    ``min(backoff * 2**(k-1), max_backoff)`` seconds.  Any other HTTP status,
    or running out of attempts, raises ``error`` with ``label`` in its message.
    """
    last: Exception | None = None
    for attempt in range(attempts):
        if attempt:
            time.sleep(min(backoff * 2 ** (attempt - 1), max_backoff))
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            if exc.code != 429 and exc.code < 500:
                raise error(f"{label}: HTTP {exc.code}") from exc
            last = exc
        except (urllib.error.URLError, TimeoutError, OSError) as exc:
            last = exc
    raise error(f"{label}: failed after {attempts} attempts: {last}")


class HttpCompletionClient(CompletionClient):
    """Chat-completion style HTTP client.

    POSTs ``{"model": ..., "messages": [{"role": "user", "content": prompt}]}``
    to ``{base_url}/chat/completions`` and returns
    ``choices[0].message.content``.  The bearer secret is read from the
    environment variable named by ``api_key_env``, never from config files.
    Transient failures (connection errors, HTTP 429/5xx) are retried with
    capped exponential backoff.
    """

    def __init__(
        self,
        base_url: str,
        model_name: str,
        *,
        api_key_env: str = "DAGPLAN_API_KEY",
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff: float = 0.5,
        max_backoff: float = 8.0,
    ):
        self.base_url = base_url.rstrip("/")
        self.model_name = model_name
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.max_backoff = max_backoff

    def complete(self, prompt: str, *, seed: int | None = None) -> str:
        payload: dict = {
            "model": self.model_name,
            "messages": [{"role": "user", "content": prompt}],
        }
        if seed is not None:
            payload["seed"] = seed
        body = json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        secret = os.environ.get(self.api_key_env)
        if secret:
            headers["Authorization"] = f"Bearer {secret}"
        url = f"{self.base_url}/chat/completions"
        text = http_request(
            urllib.request.Request(url, data=body, headers=headers, method="POST"), self.timeout,
            attempts=self.max_retries, backoff=self.backoff, max_backoff=self.max_backoff,
            error=ClientError, label=url,
        )
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ClientError(f"non-JSON response from {url}") from exc
        return self._extract(doc)

    @staticmethod
    def _extract(doc: dict) -> str:
        try:
            content = doc["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            raise ClientError("response lacks choices[0].message.content") from None
        if not isinstance(content, str) or not content.strip():
            raise EmptyResponseError("completion content is empty")
        return content


def fixture_key(prompt: str, seed: int | None = None) -> str:
    """Cassette key for a (prompt, seed) request; stable across processes."""
    tag = "" if seed is None else str(seed)
    return hashlib.sha256(f"{tag}|{prompt}".encode("utf-8")).hexdigest()


class FixtureClient(CompletionClient):
    """Replays recorded responses keyed by ``fixture_key(prompt, seed)``.

    Accepts a mapping or a cassette file path (JSON: either a flat key->text
    object or ``{"entries": {...}}``).  A missing key is a hard ClientError —
    replay runs must never silently fall through to anything live.
    """

    def __init__(self, entries: Mapping[str, str] | str | Path, model_name: str = "fixture"):
        if isinstance(entries, (str, Path)):
            doc = json.loads(Path(entries).read_text(encoding="utf-8"))
            entries = doc.get("entries", doc)
        self.entries = dict(entries)
        self.model_name = model_name

    def complete(self, prompt: str, *, seed: int | None = None) -> str:
        key = fixture_key(prompt, seed)
        try:
            return self.entries[key]
        except KeyError:
            raise ClientError(
                f"no fixture entry for key {key[:12]}… (seed={seed}); "
                "record the cassette before replaying"
            ) from None


def save_cassette(entries: Mapping[str, str], path: str | Path) -> None:
    Path(path).write_text(
        json.dumps({"entries": dict(entries)}, indent=2, ensure_ascii=False),
        encoding="utf-8",
    )


class RecordingClient(CompletionClient):
    """Write-through recorder: forwards to ``inner`` and collects a cassette."""

    def __init__(self, inner: CompletionClient):
        self.inner = inner
        self.model_name = inner.model_name
        self.entries: dict[str, str] = {}
        self._lock = threading.Lock()

    def complete(self, prompt: str, *, seed: int | None = None) -> str:
        text = self.inner.complete(prompt, seed=seed)
        with self._lock:
            self.entries[fixture_key(prompt, seed)] = text
        return text

    def save(self, path: str | Path) -> None:
        save_cassette(self.entries, path)


class ScriptedClient(CompletionClient):
    """Canned responses for tests.

    With a seed, returns ``responses[seed % len(responses)]`` — deterministic
    under concurrency.  Without a seed, responses are consumed in order and
    exhaustion is a ClientError.
    """

    def __init__(self, responses: Sequence[str], model_name: str = "scripted"):
        if not responses:
            raise ValueError("responses must be non-empty")
        self.responses = list(responses)
        self.model_name = model_name
        self._cursor = 0
        self._lock = threading.Lock()

    def complete(self, prompt: str, *, seed: int | None = None) -> str:
        if seed is not None:
            return self.responses[seed % len(self.responses)]
        with self._lock:
            if self._cursor >= len(self.responses):
                raise ClientError("scripted client exhausted")
            text = self.responses[self._cursor]
            self._cursor += 1
            return text


class FailingClient(CompletionClient):
    """Always raises ClientError; for exercising unprofiled/error paths."""

    model_name = "failing"

    def complete(self, prompt: str, *, seed: int | None = None) -> str:
        raise ClientError("injected client failure")
