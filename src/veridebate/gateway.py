"""Uniform text-generation interface.

Two backends share one request/response shape: a remote chat-completion
endpoint and a deterministic mock used for hermetic tests. The gateway
wraps either with an on-disk response cache, bounded retry with
nondecreasing backoff, and gateway-wide rate limiting, and is safe to
share across threads.

The response cache is content-addressed by the request digest
(``cache_key``) and lives in append-only, checksummed pack files under the
cache directory (see ``packs.py``), one pack per gateway that writes. Each
record holds the JSON entry ``{digest, text, backend_id, timestamp}``; a
damaged or torn record reads as a miss and the request is sent again.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import re
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .packs import PackStore

API_KEY_ENV = "VERIDEBATE_API_KEY"


class GatewayError(Exception):
    pass


class TransportError(GatewayError):
    pass


class RateLimitError(TransportError):
    pass


class MalformedResponseError(GatewayError):
    pass


@dataclass(frozen=True)
class GenerationSettings:
    temperature: float = 0.7
    max_tokens: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")


@dataclass(frozen=True)
class GenerationRequest:
    """An ordered list of (speaker_kind, text) messages plus settings.

    speaker_kind is "system" or "user"; every text must be non-empty.
    """

    messages: tuple[tuple[str, str], ...]
    settings: GenerationSettings = field(default_factory=GenerationSettings)

    def __post_init__(self):
        object.__setattr__(self, "messages", tuple(tuple(m) for m in self.messages))
        if not self.messages:
            raise ValueError("request must contain at least one message")
        for kind, text in self.messages:
            if kind not in ("system", "user"):
                raise ValueError(f"unknown speaker kind {kind!r}")
            if not text:
                raise ValueError("message text must be non-empty")

    @functools.cached_property
    def digest(self) -> str:
        """sha256 hex digest of ``canonical_request(self)``, computed once."""
        return hashlib.sha256(canonical_request(self).encode("utf-8")).hexdigest()

    def last_user_text(self) -> str:
        for kind, text in reversed(self.messages):
            if kind == "user":
                return text
        return self.messages[-1][1]


@dataclass(frozen=True)
class GenerationResponse:
    text: str
    backend_id: str
    cached: bool = False


def canonical_request(req: GenerationRequest) -> str:
    """Stable, order-sensitive serialization used for hashing and caching."""
    payload = {
        "messages": [[kind, text] for kind, text in req.messages],
        "settings": {
            "temperature": req.settings.temperature,
            "max_tokens": req.settings.max_tokens,
            "seed": req.settings.seed,
        },
    }
    return json.dumps(payload, sort_keys=True, ensure_ascii=True, separators=(",", ":"))


def cache_key(req: GenerationRequest) -> str:
    """64-hex-char digest; equal canonical requests map to equal digests."""
    return req.digest


# --------------------------------------------------------------------------
# Backends
# --------------------------------------------------------------------------

_MOCK_OPENERS = (
    "Looking at the claim itself,",
    "On the question before us,",
    "Weighing what the text actually says,",
    "Taking the report at face value,",
    "Considering the sourcing,",
)
_MOCK_BODIES = (
    "the phrasing {frag} deserves close attention",
    "the passage {frag} carries most of the weight here",
    "nothing beyond {frag} is offered as support",
    "the detail {frag} can be checked against the record",
    "the wording {frag} sets the tone for the rest",
)
_MOCK_CLOSERS = (
    "and that should guide how we read the rest.",
    "which the other side has yet to address.",
    "so the burden now shifts across the aisle.",
    "and I will return to this point later.",
    "which settles little on its own.",
)


class MockBackend:
    """Deterministic backend: output is a pure function of the request.

    A hash of the canonical request seeds a phrase assembler; a short
    fragment of the latest user message is woven into the output so
    content-dependent signals survive the round trip.
    """

    backend_id = "mock"

    def complete(self, req: GenerationRequest) -> str:
        rng = random.Random(int(req.digest[:16], 16))
        words = re.findall(r"[\w']+", req.last_user_text())
        if not words:
            words = ["this", "item"]
        sentences = []
        for _ in range(rng.randint(2, 4)):
            start = rng.randrange(len(words))
            span = words[start : start + rng.randint(2, 5)]
            frag = "\"" + " ".join(span) + "\""
            sentences.append(
                " ".join(
                    (
                        rng.choice(_MOCK_OPENERS),
                        rng.choice(_MOCK_BODIES).format(frag=frag),
                        rng.choice(_MOCK_CLOSERS),
                    )
                )
            )
        text = " ".join(sentences)
        budget = req.settings.max_tokens
        pieces = text.split(" ")
        if len(pieces) > budget:
            text = " ".join(pieces[:budget])
        return text


def _urllib_transport(url: str, body: bytes, headers: dict[str, str], timeout: float):
    request = urllib.request.Request(url, data=body, headers=headers, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()
    except (urllib.error.URLError, OSError) as exc:
        raise TransportError(f"request to {url} failed: {exc}") from exc


class RemoteBackend:
    """Chat-completion HTTP backend.

    POSTs {model, messages, temperature, max_tokens, seed} to
    ``<endpoint>/chat/completions`` with a bearer token read from the
    VERIDEBATE_API_KEY environment variable (or passed explicitly), and
    returns choices[0].message.content.
    """

    def __init__(self, endpoint: str, model: str = "gpt-4o-mini", api_key: str | None = None,
                 timeout: float = 60.0, transport=None):
        if not endpoint:
            raise ValueError("remote backend needs an endpoint URL")
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self.timeout = timeout
        self.transport = transport or _urllib_transport
        self.backend_id = f"remote:{model}"

    def complete(self, req: GenerationRequest) -> str:
        body = json.dumps(
            {
                "model": self.model,
                "messages": [{"role": kind, "content": text} for kind, text in req.messages],
                "temperature": req.settings.temperature,
                "max_tokens": req.settings.max_tokens,
                "seed": req.settings.seed,
            }
        ).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        status, payload = self.transport(
            f"{self.endpoint}/chat/completions", body, headers, self.timeout
        )
        if status == 429:
            raise RateLimitError("rate limited by remote endpoint")
        if status >= 500:
            raise TransportError(f"remote endpoint returned {status}")
        if status != 200:
            raise MalformedResponseError(f"remote endpoint returned {status}: {payload[:200]!r}")
        try:
            parsed = json.loads(payload.decode("utf-8"))
            text = parsed["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise MalformedResponseError(f"could not parse completion payload: {exc}") from exc
        if not isinstance(text, str) or not text:
            raise MalformedResponseError("remote endpoint returned empty content")
        return text


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with nondecreasing delays: base * factor**attempt."""

    max_attempts: int = 3
    backoff_base: float = 0.5
    backoff_factor: float = 2.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_factor < 1:
            raise ValueError("backoff must be nonnegative and nondecreasing")

    def delay(self, attempt: int) -> float:
        return self.backoff_base * self.backoff_factor**attempt


class RateLimiter:
    """Gateway-wide pacing: a minimum interval between request starts
    (requests_per_minute) and a cap on in-flight requests."""

    def __init__(self, requests_per_minute: float | None = None,
                 max_concurrency: int | None = None,
                 clock=time.monotonic, sleep=time.sleep):
        if requests_per_minute is not None and requests_per_minute <= 0:
            raise ValueError("requests_per_minute must be positive")
        if max_concurrency is not None and max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        self._interval = 60.0 / requests_per_minute if requests_per_minute else 0.0
        self._semaphore = threading.Semaphore(max_concurrency) if max_concurrency else None
        self._lock = threading.Lock()
        self._next_start = 0.0
        self._clock = clock
        self._sleep = sleep

    def __enter__(self):
        if self._semaphore is not None:
            self._semaphore.acquire()
        if self._interval:
            with self._lock:
                now = self._clock()
                wait = self._next_start - now
                self._next_start = max(now, self._next_start) + self._interval
            if wait > 0:
                self._sleep(wait)
        return self

    def __exit__(self, *exc):
        if self._semaphore is not None:
            self._semaphore.release()
        return False


class Gateway:
    """Front door for text generation: cache, retry, and rate limiting
    around a backend. Shareable across threads; generate() may be called
    concurrently."""

    def __init__(self, backend, cache_dir: str | Path | None = None,
                 retry: RetryPolicy = RetryPolicy(), limiter: RateLimiter | None = None,
                 sleep=time.sleep):
        self.backend = backend
        self.retry = retry
        self.limiter = limiter
        self._sleep = sleep
        self._store = PackStore(cache_dir) if cache_dir else None
        self._key_locks: dict[str, list] = {}  # digest -> [lock, threads holding or waiting]
        self._master_lock = threading.Lock()

    @contextmanager
    def _key_lock(self, digest: str):
        """Hold the lock for one digest; its entry is dropped once no
        thread holds or waits on it."""
        with self._master_lock:
            entry = self._key_locks.get(digest)
            if entry is None:
                entry = self._key_locks[digest] = [threading.Lock(), 0]
            entry[1] += 1
        try:
            with entry[0]:
                yield
        finally:
            with self._master_lock:
                entry[1] -= 1
                if not entry[1]:
                    del self._key_locks[digest]

    def _cache_read(self, digest: str) -> GenerationResponse | None:
        payload = self._store.get(digest)
        if payload is None:
            return None
        try:
            entry = json.loads(payload)
            return GenerationResponse(entry["text"], entry["backend_id"], cached=True)
        except (ValueError, KeyError, TypeError):
            return None

    def _cache_write(self, digest: str, text: str) -> None:
        entry = {
            "digest": digest,
            "text": text,
            "backend_id": self.backend.backend_id,
            "timestamp": time.time(),
        }
        self._store.put(digest, json.dumps(entry, ensure_ascii=False).encode("utf-8"))

    def _call_with_retry(self, req: GenerationRequest) -> str:
        last: Exception | None = None
        for attempt in range(self.retry.max_attempts):
            try:
                if self.limiter is not None:
                    with self.limiter:
                        return self.backend.complete(req)
                return self.backend.complete(req)
            except TransportError as exc:
                last = exc
                if attempt + 1 < self.retry.max_attempts:
                    self._sleep(self.retry.delay(attempt))
        assert last is not None
        raise last

    def generate(self, req: GenerationRequest) -> GenerationResponse:
        if not isinstance(req, GenerationRequest):
            raise TypeError("generate expects a GenerationRequest")
        if self._store is None:
            text = self._call_with_retry(req)
            if not text:
                raise MalformedResponseError("backend returned empty text")
            return GenerationResponse(text, self.backend.backend_id, cached=False)

        digest = cache_key(req)
        # A per-key lock keeps concurrent identical requests down to one
        # backend call per digest.
        with self._key_lock(digest):
            hit = self._cache_read(digest)
            if hit is not None:
                return hit
            text = self._call_with_retry(req)
            if not text:
                raise MalformedResponseError("backend returned empty text")
            self._cache_write(digest, text)
            return GenerationResponse(text, self.backend.backend_id, cached=False)
