"""Debate-news interactive attention over a padded batch.

The pooled debate vectors ``(B, node_dim)`` and news embeddings
``(B, news_dim)`` are projected to a shared width d_p; the projected
news then queries the debate through multi-head scaled dot-product
attention, with heads as an array axis. Two key/value sources exist:

* ``pooled`` - the single pooled debate vector. Softmax over one key is
  identically 1, so the context is constant in the query; the mode
  exists because that literal reading is worth keeping testable.
* ``nodes`` (default) - the per-node projected features ``(B, n,
  node_dim)``, which lets the news weight individual turns; a ``(B, n)``
  real-node mask keeps padding nodes out of the keys.

The fused output is [g_proj ; context], ``(B, 2 * d_p)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gat import softmax, softmax_backward

INTERACTION_MODES = ("pooled", "nodes")


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
        for name in ("graph_proj", "news_proj", "query", "key", "value", "out"):
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
        """(B, m, d_p) -> (B, heads, m, head_dim)."""
        return x.reshape(x.shape[0], x.shape[1], self.heads, self.head_dim).transpose(0, 2, 1, 3)


@dataclass
class InteractCache:
    mode: str
    news_emb: np.ndarray    # (B, news_dim)
    pooled: np.ndarray      # (B, node_dim)
    node_feats: np.ndarray  # (B, n, node_dim), read in nodes mode only
    kv: np.ndarray          # (B, m, d_p), m = n in nodes mode, 1 in pooled
    e_proj: np.ndarray      # (B, d_p)
    queries: np.ndarray     # (B, heads, head_dim)
    keys: np.ndarray        # (B, heads, m, head_dim)
    values: np.ndarray      # (B, heads, m, head_dim)
    weights: np.ndarray     # (B, heads, m)
    concat: np.ndarray      # (B, d_p)


def interact_cached(news_emb: np.ndarray, node_feats: np.ndarray, pooled: np.ndarray,
                    head: InteractionHead, mode: str = "nodes",
                    mask: np.ndarray | None = None):
    if mode not in INTERACTION_MODES:
        raise ValueError(f"mode must be one of {INTERACTION_MODES}, got {mode!r}")
    news_emb = np.asarray(news_emb, dtype=np.float64)
    pooled = np.asarray(pooled, dtype=np.float64)
    node_feats = np.asarray(node_feats, dtype=np.float64)
    if pooled.shape[-1] != head.graph_proj.shape[1]:
        raise ValueError("pooled vector width does not match graph projection")
    if news_emb.shape[-1] != head.news_proj.shape[1]:
        raise ValueError("news embedding width does not match news projection")

    batch = news_emb.shape[0]
    g_proj = pooled @ head.graph_proj.T
    e_proj = news_emb @ head.news_proj.T
    if mode == "pooled":
        kv, mask = g_proj[:, None, :], None
    else:
        if node_feats.shape[-1] != head.graph_proj.shape[1]:
            raise ValueError("node feature width does not match graph projection")
        kv = node_feats @ head.graph_proj.T

    queries = (e_proj @ head.query.T).reshape(batch, head.heads, head.head_dim)
    keys = head.split_heads(kv @ head.key.T)
    values = head.split_heads(kv @ head.value.T)
    scores = (keys @ queries[..., None])[..., 0] / math.sqrt(head.head_dim)
    if mask is not None:
        scores = np.where(mask[:, None, :], scores, -np.inf)
    weights = softmax(scores)
    concat = (weights[:, :, None, :] @ values).reshape(batch, head.d_p)
    fused = np.concatenate([g_proj, concat @ head.out.T], axis=1)
    cache = InteractCache(
        mode=mode,
        news_emb=news_emb,
        pooled=pooled,
        node_feats=node_feats,
        kv=kv,
        e_proj=e_proj,
        queries=queries,
        keys=keys,
        values=values,
        weights=weights,
        concat=concat,
    )
    return fused, cache


def interact(news_emb, node_feats, pooled, head: InteractionHead, mode: str = "nodes",
             return_weights: bool = False):
    """Fuse one debate graph with its news embedding; returns the 2*d_p
    vector [g_proj ; context], plus the (heads, keys) attention weight
    matrix when asked."""
    fused, cache = interact_cached(np.asarray(news_emb)[None], np.asarray(node_feats)[None],
                                   np.asarray(pooled)[None], head, mode)
    if return_weights:
        return fused[0], cache.weights[0]
    return fused[0]


def interact_backward(head: InteractionHead, cache: InteractCache, d_fused: np.ndarray):
    """Backward pass of interact_cached, summed over the batch.

    Returns (d_node_feats, d_pooled, grads) where grads maps the
    projection names to their gradient arrays; d_node_feats is None in
    pooled mode (node features are not consumed there).
    """
    d_p = head.d_p
    batch, m = cache.kv.shape[:2]
    scale = 1.0 / math.sqrt(head.head_dim)

    d_g_proj = d_fused[:, :d_p]
    d_context = d_fused[:, d_p:]
    d_out = d_context.T @ cache.concat
    d_per_head = (d_context @ head.out).reshape(batch, head.heads, 1, head.head_dim)

    d_values = cache.weights[..., None] * d_per_head
    d_weights = (cache.values @ d_per_head.transpose(0, 1, 3, 2))[..., 0]
    d_scores = softmax_backward(cache.weights, d_weights) * scale
    d_queries = (d_scores[:, :, None, :] @ cache.keys)[:, :, 0, :]
    d_keys = d_scores[..., None] * cache.queries[:, :, None, :]

    d_q_full = d_queries.reshape(batch, d_p)
    d_query = d_q_full.T @ cache.e_proj
    d_e_proj = d_q_full @ head.query
    d_news_proj = d_e_proj.T @ cache.news_emb

    # (B, heads, m, head_dim) -> (B * m, d_p), the row layout of kv.
    d_key_flat = d_keys.transpose(0, 2, 1, 3).reshape(batch * m, d_p)
    d_value_flat = d_values.transpose(0, 2, 1, 3).reshape(batch * m, d_p)
    kv_flat = cache.kv.reshape(batch * m, d_p)
    d_key_w = d_key_flat.T @ kv_flat
    d_value_w = d_value_flat.T @ kv_flat
    d_kv = (d_key_flat @ head.key + d_value_flat @ head.value).reshape(batch, m, d_p)

    if cache.mode == "pooled":
        d_g_proj = d_g_proj + d_kv[:, 0]
        d_graph_proj = d_g_proj.T @ cache.pooled
        d_node_feats = None
    else:
        node_dim = cache.node_feats.shape[-1]
        d_graph_proj = (d_g_proj.T @ cache.pooled
                        + d_kv.reshape(-1, d_p).T @ cache.node_feats.reshape(-1, node_dim))
        d_node_feats = d_kv @ head.graph_proj
    d_pooled = d_g_proj @ head.graph_proj

    grads = {
        "graph_proj": d_graph_proj,
        "news_proj": d_news_proj,
        "query": d_query,
        "key": d_key_w,
        "value": d_value_w,
        "out": d_out,
    }
    return d_node_feats, d_pooled, grads
