"""Uniform text-generation interface.

Two backends share one request/response shape: a remote chat-completion
endpoint and a deterministic mock used for hermetic tests, which splits
prompts with ``words``, the hash embedder's tokenizer too. The gateway
wraps either with its on-disk response cache, bounded retry with
nondecreasing backoff (``RetryPolicy``, which the embedding endpoint
shares), and gateway-wide rate limiting, and is safe to share across
threads. The HTTP client stack (``urllib.request`` and what it pulls in:
``http.client``, ``ssl``, ``email``) loads on the first remote request, so
a mock run never loads it.

The response cache is content-addressed by the request digest
(``cache_key``) and lives in append-only, checksummed pack files (see
``packs.py``) under ``<cache_dir>/<backend_id>``, the id made safe as a
directory name, so a gateway reads back only its own backend's responses;
there is one pack per gateway that writes. Each record is the response text
as UTF-8, so equal requests write equal records; a damaged, torn, empty or
non-UTF-8 record reads as a miss and the request is sent again.

A gateway keeps at most ``max_concurrency`` backend calls in flight: each
attempt takes one of that many slots, is paced by the rate limiter, if
there is one, and calls the backend; a retry's backoff sleep holds no
slot. Requests are single-flight per digest: a request waits only on an
identical request in flight, then reads its response from the cache, so
identical concurrent requests make one backend call.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import re
import string
import threading
import time
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from .domain import GenerationSettings
from .packs import PackStore, store_root

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

_WORD_RE = re.compile(r"[\w']+")
# Each byte outside [A-Za-z0-9_'] maps to a space.
_WORD_BYTES = (string.ascii_letters + string.digits + "_'").encode("ascii")
_NON_WORD_TO_SPACE = bytes(b if b in _WORD_BYTES else 0x20 for b in range(256))


def words(text: str) -> list[str]:
    r"""The runs of word characters and apostrophes in ``text``, equal to
    ``re.findall(r"[\w']+", text)``. An ASCII text, where ``\w`` is
    ``[A-Za-z0-9_]``, is split by one ``bytes.translate`` and a
    ``str.split``; any other goes through the regex."""
    if text.isascii():
        return text.encode("ascii").translate(_NON_WORD_TO_SPACE).decode("ascii").split()
    return _WORD_RE.findall(text)


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

    A hash of the canonical request seeds a phrase assembler; short spans
    of the latest user message's ``words`` are woven into the output so
    content-dependent signals survive the round trip.
    """

    backend_id = "mock"

    def complete(self, req: GenerationRequest) -> str:
        rng = random.Random(int(req.digest[:16], 16))
        tokens = words(req.last_user_text()) or ["this", "item"]
        sentences = []
        for _ in range(rng.randint(2, 4)):
            start = rng.randrange(len(tokens))
            span = tokens[start : start + rng.randint(2, 5)]
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
    import urllib.error  # the HTTP client stack loads on the first remote request
    import urllib.request

    request = urllib.request.Request(url, data=body, headers=headers, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()
    except (urllib.error.URLError, OSError) as exc:
        raise TransportError(f"request to {url} failed: {exc}") from exc


class JsonClient:
    """POSTs JSON to paths under one endpoint URL, with a bearer token
    read from the VERIDEBATE_API_KEY environment variable (or passed
    explicitly), and returns the body of a 200 reply. A 429 reply raises
    RateLimitError, one of 500 or above TransportError, and any other
    MalformedResponseError."""

    def __init__(self, endpoint: str, api_key: str | None = None, timeout: float = 60.0,
                 transport=None):
        if not endpoint:
            raise ValueError(f"{type(self).__name__} needs an endpoint URL")
        self.endpoint = endpoint.rstrip("/")
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self.timeout = timeout
        self.transport = transport or _urllib_transport

    def post(self, path: str, payload: dict) -> bytes:
        url = f"{self.endpoint}/{path}"
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        status, reply = self.transport(url, json.dumps(payload).encode("utf-8"), headers,
                                       self.timeout)
        if status == 429:
            raise RateLimitError(f"rate limited by {url}")
        if status >= 500:
            raise TransportError(f"{url} returned {status}")
        if status != 200:
            raise MalformedResponseError(f"{url} returned {status}: {reply[:200]!r}")
        return reply


class RemoteBackend(JsonClient):
    """Chat-completion HTTP backend: POSTs {model, messages, temperature,
    max_tokens, seed} to ``<endpoint>/chat/completions`` and returns
    choices[0].message.content."""

    def __init__(self, endpoint: str, model: str = "gpt-4o-mini", api_key: str | None = None,
                 timeout: float = 60.0, transport=None):
        super().__init__(endpoint, api_key, timeout, transport)
        self.model = model
        self.backend_id = f"remote:{model}"

    def complete(self, req: GenerationRequest) -> str:
        payload = self.post("chat/completions", {
            "model": self.model,
            "messages": [{"role": kind, "content": text} for kind, text in req.messages],
            "temperature": req.settings.temperature,
            "max_tokens": req.settings.max_tokens,
            "seed": req.settings.seed,
        })
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
    sleep: Callable[[float], object] = time.sleep

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_factor < 1:
            raise ValueError("backoff must be nonnegative and nondecreasing")

    def delay(self, attempt: int) -> float:
        return self.backoff_base * self.backoff_factor**attempt

    def call(self, fn, *args):
        """``fn(*args)``, tried again after ``delay(attempt)`` while it
        raises TransportError, up to ``max_attempts`` tries; the last
        try's error propagates."""
        for attempt in range(self.max_attempts - 1):
            try:
                return fn(*args)
            except TransportError:
                self.sleep(self.delay(attempt))
        return fn(*args)


class RateLimiter:
    """Gateway-wide pacing: a minimum interval between request starts."""

    def __init__(self, requests_per_minute: float, clock=time.monotonic, sleep=time.sleep):
        if requests_per_minute <= 0:
            raise ValueError("requests_per_minute must be positive")
        self._interval = 60.0 / requests_per_minute
        self._lock = threading.Lock()
        self._next_start = 0.0
        self._clock = clock
        self._sleep = sleep

    def __enter__(self):
        with self._lock:
            now = self._clock()
            wait = self._next_start - now
            self._next_start = max(now, self._next_start) + self._interval
        if wait > 0:
            self._sleep(wait)
        return self

    def __exit__(self, *exc):
        return False


def paced(limiter: RateLimiter | None, fn, *args):
    """``fn(*args)``, started once ``limiter``, if there is one, lets it."""
    with limiter or nullcontext():
        return fn(*args)


class _Flight:
    """The lock requests of one digest take in turn, and how many of them
    hold or wait on it."""

    __slots__ = ("lock", "users")

    def __init__(self):
        self.lock = threading.Lock()
        self.users = 0


class Gateway:
    """Front door for text generation: cache, retry, and rate limiting
    around a backend, with at most ``max_concurrency`` backend calls in
    flight. Shareable across threads; generate() may be called
    concurrently."""

    def __init__(self, backend, cache_dir: str | Path, retry: RetryPolicy = RetryPolicy(),
                 limiter: RateLimiter | None = None, max_concurrency: int = 1):
        if max_concurrency < 1:
            raise ValueError(f"max_concurrency must be >= 1, got {max_concurrency}")
        self._cache_dir = Path(cache_dir)
        self.backend = backend
        self.retry = retry
        self.limiter = limiter
        self._slots = threading.BoundedSemaphore(max_concurrency)
        # digest -> _Flight of the requests for it in generate(); the entry
        # goes when its last user leaves.
        self._inflight: dict[str, _Flight] = {}
        self._inflight_lock = threading.Lock()

    @property
    def backend(self):
        return self._backend

    @backend.setter
    def backend(self, backend) -> None:
        """Use ``backend`` from now on, with the store of its own id."""
        self._backend = backend
        self._store = PackStore(store_root(self._cache_dir, backend.backend_id))

    def _cached_text(self, digest: str) -> str | None:
        """The response text cached for ``digest``; None when it is absent,
        empty or not UTF-8."""
        try:
            return (self._store.get(digest) or b"").decode("utf-8") or None
        except UnicodeDecodeError:
            return None

    def _attempt(self, req: GenerationRequest) -> str:
        """One backend call, made in a slot once the rate limiter lets it."""
        with self._slots:
            return paced(self.limiter, self.backend.complete, req)

    def generate(self, req: GenerationRequest) -> GenerationResponse:
        if not isinstance(req, GenerationRequest):
            raise TypeError("generate expects a GenerationRequest")
        digest = cache_key(req)
        with self._inflight_lock:
            flight = self._inflight.get(digest)
            if flight is None:
                flight = self._inflight[digest] = _Flight()
            flight.users += 1
        try:
            # Identical requests take turns: the first to miss calls the
            # backend, the rest read its response from the cache.
            with flight.lock:
                text = self._cached_text(digest)
                if text is not None:
                    return GenerationResponse(text, self.backend.backend_id, cached=True)
                text = self.retry.call(self._attempt, req)
                if not text:
                    raise MalformedResponseError("backend returned empty text")
                self._store.put(digest, text.encode("utf-8"))
                return GenerationResponse(text, self.backend.backend_id, cached=False)
        finally:
            with self._inflight_lock:
                flight.users -= 1
                if not flight.users:
                    del self._inflight[digest]
