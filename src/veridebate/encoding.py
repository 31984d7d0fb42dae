"""Text embeddings and the role vocabulary.

Turn texts are embedded by a pluggable provider (a deterministic
hash-projection provider for hermetic runs, or a remote embedding
endpoint). ``RoleTable`` holds the trainable role embeddings, one per
(role, stance) pair so the two teams' rebutters stay distinguishable,
and the projection that lifts them to the embedding dimension;
``AnalysisModel.forward`` joins the projected role vectors to the frozen
text embeddings to form the graph's node features.

Each ``CachedEmbedder`` owns one cache, under ``<root>/<provider_id>/``, in
append-only, checksummed pack files (see ``packs.py``): each record is
keyed by the sha256 of the text (``text_key``) and holds the vector as
little-endian float32. ``CachedEmbedder.embed_texts`` reads the texts of
one item as the rows of one matrix: one index lookup, one decode and one
finiteness check for all its cached rows. A record that is torn, fails
its crc, has the wrong size or holds a non-finite value reads as a miss
and is recomputed; the last two are logged with the provider directory.
Each distinct miss goes to the provider under the embedder's
``RetryPolicy`` and, when it has one, its ``RateLimiter``, so a remote
endpoint is retried and paced as the chat endpoint is.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .domain import DebateRole, Stance
from .gateway import JsonClient, MalformedResponseError, RateLimiter, RetryPolicy, paced
from .packs import PackStore

logger = logging.getLogger(__name__)

# Fixed ordering of the trainable role vectors.
ROLE_STANCE_PAIRS = tuple((role, stance) for role in DebateRole for stance in Stance)
_ROLES, _STANCES = tuple(DebateRole), tuple(Stance)


def role_pair_ids(turns) -> list[int]:
    """Each turn's index into ROLE_STANCE_PAIRS. The members are found by
    position, which compares them by identity; looking the pair up in a
    dict would hash both through the Python-level ``Enum.__hash__``."""
    return [_ROLES.index(t.role) * len(_STANCES) + _STANCES.index(t.stance) for t in turns]


@dataclass(frozen=True)
class EmbeddingVector:
    values: np.ndarray
    provider_id: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("embedding must be a 1-D vector")
        if not np.all(np.isfinite(values)):
            raise ValueError("embedding contains non-finite entries")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])


_TOKEN_RE = re.compile(r"[\w']+")


class HashEmbeddingProvider:
    """Deterministic test-grade embedder.

    Each token gets a fixed pseudo-random basis vector derived from a
    salted hash of the token; a text embeds to the L2-normalized,
    count-weighted sum of its tokens' bases. Same text, same vector, on
    every platform.
    """

    def __init__(self, dim: int = 384, seed: int = 0):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.seed = seed
        self.provider_id = f"hash-d{dim}-s{seed}"
        self._basis: dict[str, np.ndarray] = {}

    def _token_basis(self, token: str) -> np.ndarray:
        basis = self._basis.get(token)
        if basis is None:
            digest = hashlib.sha256(f"{self.seed}:{token}".encode("utf-8")).digest()
            rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
            basis = rng.standard_normal(self.dim)
            self._basis[token] = basis
        return basis

    def embed_text(self, text: str) -> EmbeddingVector:
        if not text or not text.strip():
            raise ValueError("cannot embed empty text")
        tokens = _TOKEN_RE.findall(text.lower())
        if not tokens:
            tokens = [text]
        vec = np.zeros(self.dim)
        # Canonical summation order: equal token multisets embed to
        # bit-identical vectors regardless of word order.
        for token, count in sorted(Counter(tokens).items()):
            vec += count * self._token_basis(token)
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec = vec / norm
        return EmbeddingVector(vec, self.provider_id)


class RemoteEmbeddingProvider(JsonClient):
    """Embedding endpoint client: POSTs to <endpoint>/embeddings and
    reads data[0].embedding, checking the configured dimension."""

    def __init__(self, endpoint: str, dim: int, model: str = "text-embedding-3-small",
                 api_key: str | None = None, timeout: float = 60.0, transport=None):
        super().__init__(endpoint, api_key, timeout, transport)
        self.dim = dim
        self.model = model
        self.provider_id = f"remote:{model}-d{dim}"

    def embed_text(self, text: str) -> EmbeddingVector:
        if not text or not text.strip():
            raise ValueError("cannot embed empty text")
        payload = self.post("embeddings", {"model": self.model, "input": text})
        try:
            values = json.loads(payload.decode("utf-8"))["data"][0]["embedding"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise MalformedResponseError(f"could not parse embedding payload: {exc}") from exc
        vec = np.asarray(values, dtype=np.float64)
        if vec.shape != (self.dim,):
            raise MalformedResponseError(
                f"embedding dimension {vec.shape} does not match configured {self.dim}"
            )
        return EmbeddingVector(vec, self.provider_id)


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
        self.cache = PackStore(Path(root) / re.sub(r"[^\w.-]", "_", self.provider_id))

    def embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        """``texts`` embedded as the rows of one ``(k, dim)`` float64
        matrix. Cached rows are read in one lookup; a record of the wrong
        size or holding a non-finite value is logged and recomputed like a
        miss. Each distinct miss is embedded once by the provider and
        cached."""
        dim = self.dim
        payloads = self.cache.get_many([text_key(text) for text in texts])
        sized = [i for i, p in enumerate(payloads) if p is not None and len(p) == 4 * dim]
        decoded = np.frombuffer(b"".join(payloads[i] for i in sized), dtype="<f4")
        decoded = decoded.reshape(len(sized), dim)
        finite = np.isfinite(decoded).all(axis=1)
        if len(sized) == len(texts) and finite.all():
            return decoded.astype(np.float64)
        found = [i for i, ok in zip(sized, finite) if ok]
        unusable = sum(p is not None for p in payloads) - len(found)
        if unusable:
            logger.warning("recomputing %d cached embedding(s) in %s of the wrong size "
                           "or holding non-finite values", unusable, self.cache.root)
        rows = np.empty((len(texts), dim))
        rows[found] = decoded[finite]
        fresh: dict[str, np.ndarray] = {}
        for i in sorted(set(range(len(texts))).difference(found)):
            text = texts[i]
            if text not in fresh:
                vec = self.retry.call(paced, self.limiter, self.provider.embed_text, text)
                values = np.asarray(vec.values, dtype="<f4")
                self.cache.put(text_key(text), values.tobytes())
                fresh[text] = values.astype(np.float64)
            rows[i] = fresh[text]
        return rows

    def embed_text(self, text: str) -> EmbeddingVector:
        return EmbeddingVector(self.embed_texts([text])[0], self.provider_id)


# --------------------------------------------------------------------------
# Role vocabulary
# --------------------------------------------------------------------------


class RoleTable:
    """Trainable role vocabulary: one vector per (role, stance) pair plus
    the projection that lifts role vectors to the embedding dimension."""

    def __init__(self, embeddings: np.ndarray, projection: np.ndarray):
        embeddings = np.asarray(embeddings, dtype=np.float64)
        projection = np.asarray(projection, dtype=np.float64)
        if embeddings.shape[0] != len(ROLE_STANCE_PAIRS):
            raise ValueError(
                f"role table must cover all {len(ROLE_STANCE_PAIRS)} (role, stance) pairs"
            )
        if projection.shape[1] != embeddings.shape[1]:
            raise ValueError("projection columns must match role vector dimension")
        if not (np.all(np.isfinite(embeddings)) and np.all(np.isfinite(projection))):
            raise ValueError("role table parameters must be finite")
        self.embeddings = embeddings  # (num_pairs, d_r)
        self.projection = projection  # (d_h, d_r)

    @classmethod
    def create(cls, d_h: int, d_r: int, rng: np.random.Generator) -> "RoleTable":
        scale = 0.1
        embeddings = rng.uniform(-scale, scale, size=(len(ROLE_STANCE_PAIRS), d_r))
        projection = rng.uniform(-scale, scale, size=(d_h, d_r))
        return cls(embeddings, projection)
