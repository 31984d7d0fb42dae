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

The node features arrive with a linear map, ``node_map``, that has not
been applied to them. The model passes the last GAT layer's
pre-projection aggregate Z with node_map = W_last, instead of its
node_dim-wide output Z W_lastᵀ; the single-graph ``interact`` passes
its features with the identity. The interaction forms graph_proj @
node_map once and applies it to the features and to their pool. The
backward pass writes each projection's gradient, graph_proj's
included, into the array it is handed, and returns the gradient of
the small product graph_proj @ node_map; the caller forms node_map's
from it.
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
        """(B, m, d_p) -> (B, heads, m, head_dim)."""
        return x.reshape(x.shape[0], x.shape[1], self.heads, self.head_dim).transpose(0, 2, 1, 3)


@dataclass
class InteractCache:
    mode: str
    news_emb: np.ndarray    # (B, news_dim)
    pooled: np.ndarray      # (B, f)
    node_feats: np.ndarray  # (B, n, f), read in nodes mode only
    node_map: np.ndarray    # (node_dim, f)
    graph_map: np.ndarray   # (d_p, f), graph_proj @ node_map
    kv: np.ndarray          # (B, m, d_p), m = n in nodes mode, 1 in pooled
    e_proj: np.ndarray      # (B, d_p)
    queries: np.ndarray     # (B, heads, head_dim)
    keys: np.ndarray        # (B, heads, m, head_dim)
    values: np.ndarray      # (B, heads, m, head_dim)
    weights: np.ndarray     # (B, heads, m)
    concat: np.ndarray      # (B, d_p)


def interact_cached(news_emb: np.ndarray, node_feats: np.ndarray, pooled: np.ndarray,
                    node_map: np.ndarray, head: InteractionHead, mode: str = "nodes",
                    mask: np.ndarray | None = None):
    """Batched forward pass. The debate vectors are ``node_feats @
    node_mapᵀ`` and ``pooled @ node_mapᵀ``, and neither is built:
    ``graph_proj @ node_map`` is formed once and applied to the
    narrower inputs instead."""
    if mode not in INTERACTION_MODES:
        raise ValueError(f"mode must be one of {INTERACTION_MODES}, got {mode!r}")
    news_emb = np.asarray(news_emb, dtype=np.float64)
    pooled = np.asarray(pooled, dtype=np.float64)
    node_feats = np.asarray(node_feats, dtype=np.float64)
    graph_map = head.graph_proj @ node_map
    if pooled.shape[-1] != graph_map.shape[1]:
        raise ValueError("pooled vector width does not match graph projection")
    if news_emb.shape[-1] != head.news_proj.shape[1]:
        raise ValueError("news embedding width does not match news projection")

    batch = news_emb.shape[0]
    g_proj = pooled @ graph_map.T
    e_proj = news_emb @ head.news_proj.T
    if mode == "pooled":
        kv, mask = g_proj[:, None, :], None
    else:
        if node_feats.shape[-1] != graph_map.shape[1]:
            raise ValueError("node feature width does not match graph projection")
        kv = node_feats @ graph_map.T

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
        node_map=node_map,
        graph_map=graph_map,
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
    d_p = head.d_p
    batch, m = cache.kv.shape[:2]
    scale = 1.0 / math.sqrt(head.head_dim)

    d_g_proj = d_fused[:, :d_p]
    d_context = d_fused[:, d_p:]
    np.matmul(d_context.T, cache.concat, out=grads["out"])
    d_per_head = (d_context @ head.out).reshape(batch, head.heads, 1, head.head_dim)

    d_values = cache.weights[..., None] * d_per_head
    d_weights = (cache.values @ d_per_head.transpose(0, 1, 3, 2))[..., 0]
    d_scores = softmax_backward(cache.weights, d_weights) * scale
    d_queries = (d_scores[:, :, None, :] @ cache.keys)[:, :, 0, :]
    d_keys = d_scores[..., None] * cache.queries[:, :, None, :]

    d_q_full = d_queries.reshape(batch, d_p)
    np.matmul(d_q_full.T, cache.e_proj, out=grads["query"])
    d_e_proj = d_q_full @ head.query
    np.matmul(d_e_proj.T, cache.news_emb, out=grads["news_proj"])

    # (B, heads, m, head_dim) -> (B * m, d_p), the row layout of kv.
    d_key_flat = d_keys.transpose(0, 2, 1, 3).reshape(batch * m, d_p)
    d_value_flat = d_values.transpose(0, 2, 1, 3).reshape(batch * m, d_p)
    kv_flat = cache.kv.reshape(batch * m, d_p)
    np.matmul(d_key_flat.T, kv_flat, out=grads["key"])
    np.matmul(d_value_flat.T, kv_flat, out=grads["value"])
    d_kv = d_key_flat @ head.key
    d_kv += d_value_flat @ head.value
    d_kv = d_kv.reshape(batch, m, d_p)

    graph_map = cache.graph_map
    if cache.mode == "pooled":
        d_g_proj = d_g_proj + d_kv[:, 0]
        d_graph_map = d_g_proj.T @ cache.pooled
        d_node_feats = None
    else:
        width = graph_map.shape[1]
        d_graph_map = d_g_proj.T @ cache.pooled
        d_graph_map += d_kv.reshape(-1, d_p).T @ cache.node_feats.reshape(-1, width)
        d_node_feats = d_kv @ graph_map
    np.matmul(d_graph_map, cache.node_map.T, out=grads["graph_proj"])
    return d_node_feats, d_g_proj @ graph_map, d_graph_map
