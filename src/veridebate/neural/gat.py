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

The score is linear in W h, so it is computed as h_i . (Wᵀ a_src) +
h_j . (Wᵀ a_dst) without projecting. An identity layer's output
``alpha @ (H Wᵀ)`` equals ``(alpha @ H) Wᵀ``, so it returns the
in_dim-wide ``alpha @ H`` and leaves W to the caller, which folds it
into the linear map that follows. The caller passes the weight to
apply: the model's first layer uses an equivalent narrower one.
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
    def out_dim(self) -> int:
        return int(self.weight.shape[0])


@dataclass
class GatCache:
    features: np.ndarray    # (B, n, in_dim)
    weight: np.ndarray      # (out_dim, in_dim), the map the layer applied
    alpha: np.ndarray       # (B, n, n), 0 off the adjacency
    logits_pre: np.ndarray  # (B, n, n), leaky-ReLU input on every pair
    projected: np.ndarray | None  # (B, n, out_dim), hidden layers only
    aggregated: np.ndarray  # alpha @ projected, or alpha @ features if identity


def gat_forward_cached(layer: GatLayer, features: np.ndarray, adjacency: np.ndarray,
                       weight: np.ndarray) -> tuple[np.ndarray, GatCache]:
    """One layer over a padded batch, applying ``weight`` as W: the
    layer's own, or an equivalent one over other features. The scores
    come from ``features @ (Wᵀ a)``. A hidden layer returns ``elu(alpha
    @ features Wᵀ)``. An identity layer returns ``Z = alpha @ features``,
    the aggregate before W: its output is ``Z Wᵀ``, which the caller
    folds into its next linear map."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape[-1] != weight.shape[1]:
        raise ValueError(
            f"feature dim {features.shape[-1]} does not match weight in_dim {weight.shape[1]}"
        )
    # (B, n, 2): each node's score as the attending node and as a neighbor.
    scores = features @ (layer.attn.reshape(2, layer.out_dim) @ weight).T
    pre = scores[:, :, :1] + scores[:, None, :, 1]
    alpha = softmax(np.where(adjacency, leaky_relu(pre, LEAKY_SLOPE), -np.inf))
    if layer.activation == "identity":
        aggregated = alpha @ features
        return aggregated, GatCache(features, weight, alpha, pre, None, aggregated)
    projected = features @ weight.T
    aggregated = alpha @ projected
    return elu(aggregated), GatCache(features, weight, alpha, pre, projected, aggregated)


def gat_backward(layer: GatLayer, cache: GatCache, d_output: np.ndarray,
                 input_grad: bool = True):
    """Gradients of a scalar loss w.r.t. the layer inputs (None unless
    ``input_grad``), the applied weight and the attention vector, summed
    over the batch, given the gradient w.r.t. what the forward pass
    returned. For an identity layer that is Z, so ``d_weight`` holds
    only the score path; the caller adds the term of the map it applied."""
    features, weight, alpha = cache.features, cache.weight, cache.alpha
    out_dim = layer.out_dim
    flat_features = features.reshape(-1, features.shape[-1])

    identity = cache.projected is None
    if identity:
        d_alpha = d_output @ features.transpose(0, 2, 1)
    else:
        d_agg = d_output * np.exp(np.minimum(cache.aggregated, 0.0))  # 1 where positive
        d_alpha = d_agg @ cache.projected.transpose(0, 2, 1)
        d_proj = alpha.transpose(0, 2, 1) @ d_agg
    d_pre = softmax_backward(alpha, d_alpha) * np.where(cache.logits_pre > 0, 1.0, LEAKY_SLOPE)
    # (2, B * n): how the loss moves with each node's source and neighbor score.
    d_scores = np.stack([d_pre.sum(axis=2), d_pre.sum(axis=1)]).reshape(2, -1)

    # The scores are features @ (Wᵀ a), so W gets the rank-one terms
    # a_src ⊗ x_src + a_dst ⊗ x_dst.
    x = d_scores @ flat_features  # (2, in_dim)
    pair = layer.attn.reshape(2, out_dim)
    d_weight = pair.T @ x
    if not identity:
        d_weight += d_proj.reshape(-1, out_dim).T @ flat_features
    d_attn = (x @ weight.T).reshape(-1)
    if not input_grad:
        return None, d_weight, d_attn
    d_features = alpha.transpose(0, 2, 1) @ d_output if identity else d_proj @ weight
    d_features += (d_scores.T @ (pair @ weight)).reshape(features.shape)
    return d_features, d_weight, d_attn


def gat_forward(layer: GatLayer, features: np.ndarray, adjacency: np.ndarray,
                return_attention: bool = False):
    """Apply one GAT layer over a single graph given as its ``(n, n)``
    in-neighbor mask.

    With ``return_attention`` the dense ``(n, n)`` attention matrix comes
    back too: row i holds i's weights over its in-neighbors, 0 elsewhere.
    """
    output, cache = gat_forward_cached(layer, np.asarray(features)[None],
                                       np.asarray(adjacency, dtype=bool)[None], layer.weight)
    if layer.activation == "identity":
        output = output @ layer.weight.T
    if return_attention:
        return output[0], cache.alpha[0]
    return output[0]
