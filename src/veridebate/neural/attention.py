"""Debate-news interactive attention over a padded batch.

The pooled debate vectors ``(B, node_dim)`` and news embeddings
``(B, news_dim)`` are projected to a shared width d_p; the projected
news then queries the debate through multi-head scaled dot-product
attention, with heads as an array axis. Two key/value sources exist:

* ``pooled`` - the single pooled debate vector. Softmax over one key is
  identically 1, so the context is constant in the query; the mode
  exists because that literal reading is worth keeping testable.
* ``nodes`` (default) - the per-node features ``(B, n, node_dim)``,
  which lets the news weight individual turns; a ``(B, n)`` real-node
  mask keeps padding nodes out of the keys.

The fused output is [g_proj ; context], ``(B, 2 * d_p)``.

The node features arrive with a linear map, ``node_map``, that has not
been applied to them. The model passes the last GAT layer's
pre-projection aggregate Z with node_map = W_last, instead of its
node_dim-wide output Z W_lastᵀ; the single-graph ``interact`` passes
its features with the identity. A source z_j therefore enters the
keys and values only through M = graph_proj @ node_map, and the
interaction forms ``key_map = key @ M`` and ``value_map = value @ M``
once per batch, split by heads.

Each sample has a single query per head, so the query is projected,
not the keys: head h scores source j as ``(q_h @ key_map_h) · z_j``,
mixes the sources by the softmax weights, and projects only that
mixture, ``value_map_h @ (Σ_j w_j z_j)``. No per-node key or value is
built. Pooled mode runs the same code with the pool as its one source.

The backward pass writes each projection's gradient, graph_proj's
included, into the array it is handed, and returns the gradient of
the small product M = graph_proj @ node_map; the caller forms
node_map's from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gat import softmax, softmax_backward

INTERACTION_MODES = ("pooled", "nodes")
# The trainable projections, in parameter-buffer order.
PROJECTIONS = ("graph_proj", "news_proj", "query", "key", "value", "out")


@dataclass
class InteractionHead:
    graph_proj: np.ndarray  # W_g: (d_p, node_dim)
    news_proj: np.ndarray   # W_e: (d_p, news_dim)
    query: np.ndarray       # (d_p, d_p)
    key: np.ndarray         # (d_p, d_p)
    value: np.ndarray       # (d_p, d_p)
    out: np.ndarray         # (d_p, d_p)
    heads: int

    def __post_init__(self):
        for name in PROJECTIONS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        d_p = self.graph_proj.shape[0]
        for name in ("query", "key", "value", "out"):
            if getattr(self, name).shape != (d_p, d_p):
                raise ValueError(f"{name} projection must be ({d_p}, {d_p})")
        if self.news_proj.shape[0] != d_p:
            raise ValueError("news projection rows must equal d_p")
        if d_p % self.heads != 0:
            raise ValueError(f"d_p={d_p} must be divisible by heads={self.heads}")

    @classmethod
    def create(cls, node_dim: int, news_dim: int, d_p: int, heads: int,
               rng: np.random.Generator) -> "InteractionHead":
        def uniform(rows: int, cols: int) -> np.ndarray:
            scale = 1.0 / math.sqrt(cols)
            return rng.uniform(-scale, scale, size=(rows, cols))

        return cls(
            graph_proj=uniform(d_p, node_dim),
            news_proj=uniform(d_p, news_dim),
            query=uniform(d_p, d_p),
            key=uniform(d_p, d_p),
            value=uniform(d_p, d_p),
            out=uniform(d_p, d_p),
            heads=heads,
        )

    @property
    def d_p(self) -> int:
        return int(self.graph_proj.shape[0])

    @property
    def head_dim(self) -> int:
        return self.d_p // self.heads

    def split_heads(self, x: np.ndarray) -> np.ndarray:
        """(..., d_p) -> (..., heads, head_dim)."""
        return x.reshape(*x.shape[:-1], self.heads, self.head_dim)


def per_head(x: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """(B, heads, k) @ (heads, k, l) -> (B, heads, l): row b of head h
    times map h, as one (B, k) @ (k, l) product per head."""
    return (x.transpose(1, 0, 2) @ maps).transpose(1, 0, 2)


@dataclass
class InteractCache:
    mode: str
    news_emb: np.ndarray   # (B, news_dim)
    pooled: np.ndarray     # (B, f)
    sources: np.ndarray    # (B, m, f): the node features, or the pool (m = 1)
    node_map: np.ndarray   # (node_dim, f)
    graph_map: np.ndarray  # (d_p, f), graph_proj @ node_map
    key_map: np.ndarray    # (heads, head_dim, f), key @ graph_map by heads
    value_map: np.ndarray  # (heads, head_dim, f), value @ graph_map by heads
    e_proj: np.ndarray     # (B, d_p)
    queries: np.ndarray    # (B, heads, head_dim)
    reach: np.ndarray      # (B, heads, f), each query in source space
    weights: np.ndarray    # (B, heads, m)
    mixed: np.ndarray      # (B, heads, f), weights @ sources
    concat: np.ndarray     # (B, d_p)


def interact_cached(news_emb: np.ndarray, node_feats: np.ndarray, pooled: np.ndarray,
                    node_map: np.ndarray, head: InteractionHead, mode: str = "nodes",
                    mask: np.ndarray | None = None):
    """Batched forward pass. The debate vectors are ``node_feats @
    node_mapᵀ`` and ``pooled @ node_mapᵀ``, and neither is built, nor
    are their keys and values: see the module docstring."""
    if mode not in INTERACTION_MODES:
        raise ValueError(f"mode must be one of {INTERACTION_MODES}, got {mode!r}")
    news_emb = np.asarray(news_emb, dtype=np.float64)
    pooled = np.asarray(pooled, dtype=np.float64)
    graph_map = head.graph_proj @ node_map
    if pooled.shape[-1] != graph_map.shape[1]:
        raise ValueError("pooled vector width does not match graph projection")
    if news_emb.shape[-1] != head.news_proj.shape[1]:
        raise ValueError("news embedding width does not match news projection")
    if mode == "pooled":
        sources, mask = pooled[:, None, :], None
    else:
        sources = np.asarray(node_feats, dtype=np.float64)
        if sources.shape[-1] != graph_map.shape[1]:
            raise ValueError("node feature width does not match graph projection")

    batch, width = news_emb.shape[0], graph_map.shape[1]
    by_heads = (head.heads, head.head_dim, width)
    key_map = (head.key @ graph_map).reshape(by_heads)
    value_map = (head.value @ graph_map).reshape(by_heads)
    g_proj = pooled @ graph_map.T
    e_proj = news_emb @ head.news_proj.T
    queries = head.split_heads(e_proj @ head.query.T)
    reach = per_head(queries, key_map)
    scores = reach @ sources.transpose(0, 2, 1)
    scores /= math.sqrt(head.head_dim)
    if mask is not None:
        scores = np.where(mask[:, None, :], scores, -np.inf)
    weights = softmax(scores)
    mixed = weights @ sources
    concat = per_head(mixed, value_map.transpose(0, 2, 1)).reshape(batch, head.d_p)
    fused = np.concatenate([g_proj, concat @ head.out.T], axis=1)
    cache = InteractCache(
        mode=mode,
        news_emb=news_emb,
        pooled=pooled,
        sources=sources,
        node_map=node_map,
        graph_map=graph_map,
        key_map=key_map,
        value_map=value_map,
        e_proj=e_proj,
        queries=queries,
        reach=reach,
        weights=weights,
        mixed=mixed,
        concat=concat,
    )
    return fused, cache


def interact(news_emb, node_feats, pooled, head: InteractionHead, mode: str = "nodes",
             return_weights: bool = False):
    """Fuse one debate graph with its news embedding; returns the 2*d_p
    vector [g_proj ; context], plus the (heads, keys) attention weight
    matrix when asked."""
    fused, cache = interact_cached(np.asarray(news_emb)[None], np.asarray(node_feats)[None],
                                   np.asarray(pooled)[None],
                                   np.eye(head.graph_proj.shape[1]), head, mode)
    if return_weights:
        return fused[0], cache.weights[0]
    return fused[0]


def interact_backward(head: InteractionHead, cache: InteractCache, d_fused: np.ndarray,
                      grads: dict[str, np.ndarray]):
    """Backward pass of interact_cached, summed over the batch. The
    gradient of each projection in ``PROJECTIONS`` is written into
    ``grads[name]``, each by one product.

    Returns (d_node_feats, d_pooled, d_graph_map), w.r.t. the inputs as
    passed and the product graph_proj @ node_map: d_node_feats is None
    in pooled mode (node features are not consumed there). node_map's
    gradient is graph_projᵀ d_graph_map, which the caller forms.
    """
    d_p, sources = head.d_p, cache.sources
    batch, width = cache.news_emb.shape[0], cache.graph_map.shape[1]
    scale = 1.0 / math.sqrt(head.head_dim)

    d_g_proj = d_fused[:, :d_p]
    d_context = d_fused[:, d_p:]
    np.matmul(d_context.T, cache.concat, out=grads["out"])
    d_concat = head.split_heads(d_context @ head.out)

    # context_h = value_map_h @ mixed_h, summed over the batch per head.
    d_value_map = d_concat.transpose(1, 2, 0) @ cache.mixed.transpose(1, 0, 2)
    d_mixed = per_head(d_concat, cache.value_map)
    d_weights = d_mixed @ sources.transpose(0, 2, 1)
    d_scores = softmax_backward(cache.weights, d_weights)
    d_scores *= scale
    d_reach = d_scores @ sources
    d_sources = cache.weights.transpose(0, 2, 1) @ d_mixed
    d_sources += d_scores.transpose(0, 2, 1) @ cache.reach

    # reach_h = q_h @ key_map_h.
    d_key_map = cache.queries.transpose(1, 2, 0) @ d_reach.transpose(1, 0, 2)
    d_queries = per_head(d_reach, cache.key_map.transpose(0, 2, 1)).reshape(batch, d_p)
    np.matmul(d_queries.T, cache.e_proj, out=grads["query"])
    d_e_proj = d_queries @ head.query
    np.matmul(d_e_proj.T, cache.news_emb, out=grads["news_proj"])

    # key_map = key @ graph_map and value_map = value @ graph_map, with
    # their (heads, head_dim, f) maps read back as (d_p, f).
    graph_map = cache.graph_map
    d_key_map = d_key_map.reshape(d_p, width)
    d_value_map = d_value_map.reshape(d_p, width)
    np.matmul(d_key_map, graph_map.T, out=grads["key"])
    np.matmul(d_value_map, graph_map.T, out=grads["value"])
    d_graph_map = d_g_proj.T @ cache.pooled
    d_graph_map += head.key.T @ d_key_map
    d_graph_map += head.value.T @ d_value_map
    d_pooled = d_g_proj @ graph_map
    if cache.mode == "pooled":
        d_pooled += d_sources[:, 0]
        d_node_feats = None
    else:
        d_node_feats = d_sources
    np.matmul(d_graph_map, cache.node_map.T, out=grads["graph_proj"])
    return d_node_feats, d_pooled, d_graph_map
