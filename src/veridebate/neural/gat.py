"""Graph attention layer over a padded batch of graphs, with exact
analytic gradients.

Features arrive as ``(B, n, in_dim)``: B graphs padded to n nodes. A
graph is nothing but its boolean in-neighbor mask (``graph.adjacency_mask``),
so the batch carries a ``(B, n, n)`` adjacency with ``adjacency[b, i, j]``
set when j is an in-neighbor of i; every row needs at least one entry,
so padding nodes carry a self-loop. Per node i the layer computes

    h_i' = act( sum_{j in N(i)} alpha_ij * W h_j )

where the attention row alpha_i* is a softmax over i's neighbors of
leaky-ReLU(a . [W h_i ; W h_j]) with slope 0.2; non-neighbors are masked
to -inf before the softmax, so they get weight exactly 0. Hidden layers
use ELU as ``act``; the last layer of a stack uses the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LEAKY_SLOPE = 0.2


def elu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, np.expm1(x))


def leaky_relu(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x > 0, x, slope * x)


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis; -inf entries get weight 0."""
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(weights: np.ndarray, d_weights: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the softmax input, given the gradient w.r.t. its
    output; both over the last axis."""
    return weights * (d_weights - np.sum(weights * d_weights, axis=-1, keepdims=True))


@dataclass
class GatLayer:
    weight: np.ndarray  # (out_dim, in_dim)
    attn: np.ndarray    # (2 * out_dim,)
    activation: str = "elu"  # "elu" | "identity"

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.attn = np.asarray(self.attn, dtype=np.float64)
        if self.attn.shape != (2 * self.weight.shape[0],):
            raise ValueError("attention vector must have length 2 * out_dim")
        if self.activation not in ("elu", "identity"):
            raise ValueError(f"unknown activation {self.activation!r}")

    @classmethod
    def create(cls, in_dim: int, out_dim: int, rng: np.random.Generator,
               activation: str = "elu") -> "GatLayer":
        w_scale = 1.0 / math.sqrt(in_dim)
        a_scale = 1.0 / math.sqrt(2 * out_dim)
        return cls(
            weight=rng.uniform(-w_scale, w_scale, size=(out_dim, in_dim)),
            attn=rng.uniform(-a_scale, a_scale, size=2 * out_dim),
            activation=activation,
        )

    @property
    def in_dim(self) -> int:
        return int(self.weight.shape[1])

    @property
    def out_dim(self) -> int:
        return int(self.weight.shape[0])


@dataclass
class GatCache:
    features: np.ndarray    # (B, n, in_dim)
    projected: np.ndarray   # (B, n, out_dim)
    alpha: np.ndarray       # (B, n, n), 0 off the adjacency
    logits_pre: np.ndarray  # (B, n, n), leaky-ReLU input on every pair
    aggregated: np.ndarray  # (B, n, out_dim)


def gat_forward_cached(layer: GatLayer, features: np.ndarray,
                       adjacency: np.ndarray) -> tuple[np.ndarray, GatCache]:
    features = np.asarray(features, dtype=np.float64)
    if features.shape[-1] != layer.in_dim:
        raise ValueError(
            f"feature dim {features.shape[-1]} does not match layer in_dim {layer.in_dim}"
        )
    out_dim = layer.out_dim
    projected = features @ layer.weight.T
    score_src = projected @ layer.attn[:out_dim]  # the attending node
    score_dst = projected @ layer.attn[out_dim:]  # each neighbor
    pre = score_src[:, :, None] + score_dst[:, None, :]
    alpha = softmax(np.where(adjacency, leaky_relu(pre, LEAKY_SLOPE), -np.inf))
    aggregated = alpha @ projected
    cache = GatCache(features, projected, alpha, pre, aggregated)
    return (elu(aggregated) if layer.activation == "elu" else aggregated), cache


def gat_backward(layer: GatLayer, cache: GatCache,
                 d_output: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of a scalar loss w.r.t. the layer inputs and parameters
    (summed over the batch), given the gradient w.r.t. the layer output."""
    projected, alpha = cache.projected, cache.alpha
    out_dim = layer.out_dim
    a_src, a_dst = layer.attn[:out_dim], layer.attn[out_dim:]

    d_agg = d_output
    if layer.activation == "elu":
        d_agg = d_output * np.exp(np.minimum(cache.aggregated, 0.0))  # 1 where positive
    d_alpha = d_agg @ projected.transpose(0, 2, 1)
    d_pre = softmax_backward(alpha, d_alpha) * np.where(cache.logits_pre > 0, 1.0, LEAKY_SLOPE)
    d_src = d_pre.sum(axis=2)  # (B, n)
    d_dst = d_pre.sum(axis=1)
    d_proj = (alpha.transpose(0, 2, 1) @ d_agg
              + d_src[:, :, None] * a_src + d_dst[:, :, None] * a_dst)

    flat_proj = projected.reshape(-1, out_dim)
    d_attn = np.concatenate([d_src.reshape(-1) @ flat_proj, d_dst.reshape(-1) @ flat_proj])
    d_weight = d_proj.reshape(-1, out_dim).T @ cache.features.reshape(-1, layer.in_dim)
    return d_proj @ layer.weight, d_weight, d_attn


def gat_forward(layer: GatLayer, features: np.ndarray, adjacency: np.ndarray,
                return_attention: bool = False):
    """Apply one GAT layer over a single graph given as its ``(n, n)``
    in-neighbor mask.

    With ``return_attention`` the dense ``(n, n)`` attention matrix comes
    back too: row i holds i's weights over its in-neighbors, 0 elsewhere.
    """
    output, cache = gat_forward_cached(layer, np.asarray(features)[None],
                                       np.asarray(adjacency, dtype=bool)[None])
    if return_attention:
        return output[0], cache.alpha[0]
    return output[0]
