"""Graph attention layers over a padded batch of graphs, with exact
analytic gradients.

Features arrive as ``(B, n, in_dim)``: B graphs padded to n nodes. A
graph is nothing but its boolean in-neighbor mask (``graph.adjacency_mask``),
so the batch carries a ``(B, n, n)`` adjacency with ``adjacency[b, i, j]``
set when j is an in-neighbor of i; every row needs at least one entry,
so padding nodes carry a self-loop. Per node i a hidden layer computes

    h_i' = elu( sum_{j in N(i)} alpha_ij * W h_j )

where the attention row alpha_i* is a softmax over i's neighbors of
leaky-ReLU(a . [W h_i ; W h_j]) with slope 0.2; non-neighbors are masked
to -inf before the softmax, so they get weight exactly 0. The score is
linear in W h, so it is computed as h_i . (Wᵀ a_src) + h_j . (Wᵀ a_dst)
without projecting.

The last layer of a stack has no activation, so its output
``alpha @ (H Wᵀ)`` equals ``(alpha @ H) Wᵀ``, and W reaches the model
only through its score pair [u ; v] = [Wᵀ a_src ; Wᵀ a_dst] and through
the linear map that follows (see ``model``). ``LastGatLayer`` therefore
holds [u ; v] alone, in its input space: it returns the in_dim-wide
aggregate ``alpha @ H``, with scores leaky-ReLU(u . h_i + v . h_j).

The caller passes the map to apply, a hidden layer's W or the last
layer's [u ; v]: the layer's own, or an equivalent one over other
features (the model's hidden layer reads narrower ones). The backward
pass writes the gradients of that map and of a hidden layer's
attention vector into the arrays it is handed (views into the model's
gradient buffer), each by one product. Only the last layer returns
the gradient w.r.t. its inputs: the model's one hidden layer reads
frozen features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

LEAKY_SLOPE = 0.2
# The dtypes a model computes in; every parameter array has one of them.
FLOAT_DTYPES = ("float32", "float64")


def float_params(*arrays) -> tuple[np.ndarray, ...]:
    """The arrays as numpy arrays, refusing any that is not of a
    ``FLOAT_DTYPES`` dtype: each pass reads its inputs in the dtype of
    the parameters it applies, so an integer parameter would cut them
    to integers."""
    arrays = tuple(np.asarray(a) for a in arrays)
    for a in arrays:
        if a.dtype.name not in FLOAT_DTYPES:
            raise ValueError(f"parameters must be float32 or float64, got {a.dtype}")
    return arrays


def elu(x: np.ndarray) -> np.ndarray:
    # np.where(x > 0, x, np.expm1(x)) up to the sign of 0, minus its slow select.
    out = np.minimum(x, 0)
    np.expm1(out, out=out)
    out += np.maximum(x, 0)
    return out


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
    """A hidden layer: projection W and attention vector [a_src ; a_dst],
    with ELU."""

    weight: np.ndarray  # (out_dim, in_dim)
    attn: np.ndarray    # (2 * out_dim,)
    params: ClassVar[tuple[str, ...]] = ("weight", "attn")

    def __post_init__(self):
        self.weight, self.attn = float_params(self.weight, self.attn)
        if self.attn.shape != (2 * self.weight.shape[0],):
            raise ValueError("attention vector must have length 2 * out_dim")

    @classmethod
    def create(cls, in_dim: int, out_dim: int, rng: np.random.Generator) -> "GatLayer":
        w_scale = 1.0 / math.sqrt(in_dim)
        a_scale = 1.0 / math.sqrt(2 * out_dim)
        return cls(
            weight=rng.uniform(-w_scale, w_scale, size=(out_dim, in_dim)),
            attn=rng.uniform(-a_scale, a_scale, size=2 * out_dim),
        )

    @property
    def out_dim(self) -> int:
        return int(self.weight.shape[0])


@dataclass
class LastGatLayer:
    """The last layer, with its projection W multiplied out: the score
    pair [u ; v] = [Wᵀ a_src ; Wᵀ a_dst] in the layer's input space."""

    score: np.ndarray  # (2, in_dim)
    params: ClassVar[tuple[str, ...]] = ("score",)

    def __post_init__(self):
        (self.score,) = float_params(self.score)
        if self.score.ndim != 2 or self.score.shape[0] != 2:
            raise ValueError("score pair must have shape (2, in_dim)")


@dataclass
class GatCache:
    features: np.ndarray    # (B, n, in_dim)
    applied: np.ndarray     # W (out_dim, in_dim) or [u ; v] (2, in_dim), as applied
    alpha: np.ndarray       # (B, n, n), 0 off the adjacency
    logits_pre: np.ndarray  # (B, n, n), leaky-ReLU input on every pair
    projected: np.ndarray | None  # (B, n, out_dim), hidden layers only
    aggregated: np.ndarray  # alpha @ projected, or alpha @ features for the last layer


def gat_forward_cached(layer: GatLayer | LastGatLayer, features: np.ndarray,
                       adjacency: np.ndarray, applied: np.ndarray) -> tuple[np.ndarray, GatCache]:
    """One layer over a padded batch, applying ``applied`` as its W (a
    hidden layer) or as its [u ; v] (the last layer). A hidden layer
    returns ``elu(alpha @ features Wᵀ)`` with scores ``features @ (Wᵀ
    a)``; the last layer returns ``alpha @ features`` with scores
    ``features @ [u ; v]ᵀ``. The features are read in the map's dtype."""
    features = np.asarray(features, dtype=applied.dtype)
    if features.shape[-1] != applied.shape[1]:
        raise ValueError(
            f"feature dim {features.shape[-1]} does not match the layer's in_dim {applied.shape[1]}"
        )
    hidden = isinstance(layer, GatLayer)
    pair = layer.attn.reshape(2, layer.out_dim) @ applied if hidden else applied
    # (B, n, 2): each node's score as the attending node and as a neighbor.
    scores = features @ pair.T
    pre = scores[:, :, :1] + scores[:, None, :, 1]
    alpha = softmax(np.where(adjacency, leaky_relu(pre, LEAKY_SLOPE), -np.inf))
    if not hidden:
        aggregated = alpha @ features
        return aggregated, GatCache(features, applied, alpha, pre, None, aggregated)
    projected = features @ applied.T
    aggregated = alpha @ projected
    return elu(aggregated), GatCache(features, applied, alpha, pre, projected, aggregated)


def gat_backward(layer: GatLayer | LastGatLayer, cache: GatCache, d_output: np.ndarray,
                 d_applied: np.ndarray, d_attn: np.ndarray | None = None):
    """Gradients of a scalar loss, summed over the batch, given the
    gradient w.r.t. what the forward pass returned. The gradient of the
    applied map is written into ``d_applied``, and a hidden layer's
    attention-vector gradient into ``d_attn``, each by one product. The
    last layer returns the gradient w.r.t. its inputs; a hidden layer
    returns None (see the module docstring).

    A hidden layer's projection P = X Wᵀ feeds both the aggregate and
    the scores, so with G = dP, score path included, dW = Gᵀ X. The last
    layer's scores are X [u ; v]ᵀ, so d[u ; v] = d_scores X, and dX is
    alphaᵀ d_output plus d_scoresᵀ [u ; v]."""
    features, applied, alpha = cache.features, cache.applied, cache.alpha
    flat_features = features.reshape(-1, features.shape[-1])

    last = cache.projected is None
    if last:
        d_alpha = d_output @ features.transpose(0, 2, 1)
    else:
        d_agg = d_output * np.exp(np.minimum(cache.aggregated, 0.0))  # 1 where positive
        d_alpha = d_agg @ cache.projected.transpose(0, 2, 1)
    d_pre = softmax_backward(alpha, d_alpha)
    d_pre = np.where(cache.logits_pre > 0, d_pre, d_pre * LEAKY_SLOPE)
    # (2, B * n): how the loss moves with each node's source and neighbor score.
    d_scores = np.stack([d_pre.sum(axis=2), d_pre.sum(axis=1)]).reshape(2, -1)

    if last:
        np.matmul(d_scores, flat_features, out=d_applied)
        d_features = alpha.transpose(0, 2, 1) @ d_output
        d_features += (d_scores.T @ applied).reshape(features.shape)
        return d_features
    # The scores are P a, so P gets d_scores ⊗ a beside its aggregate term.
    out_dim = layer.out_dim
    pair = layer.attn.reshape(2, out_dim)
    d_proj = (alpha.transpose(0, 2, 1) @ d_agg).reshape(-1, out_dim)
    d_proj += d_scores.T @ pair
    np.matmul(d_proj.T, flat_features, out=d_applied)
    np.matmul(d_scores, cache.projected.reshape(-1, out_dim), out=d_attn.reshape(2, out_dim))
    return None


def gat_forward(layer: GatLayer, features: np.ndarray, adjacency: np.ndarray,
                return_attention: bool = False):
    """Apply one hidden GAT layer over a single graph given as its
    ``(n, n)`` in-neighbor mask.

    With ``return_attention`` the dense ``(n, n)`` attention matrix comes
    back too: row i holds i's weights over its in-neighbors, 0 elsewhere.
    """
    output, cache = gat_forward_cached(layer, np.asarray(features)[None],
                                       np.asarray(adjacency, dtype=bool)[None], layer.weight)
    if return_attention:
        return output[0], cache.alpha[0]
    return output[0]
