"""The full debate classifier and its exact gradients, over one padded
dense batch.

``collate`` pads B samples to the batch's largest node count n. Padding
nodes have zero features, no role and a lone self-loop, and are masked
out of pooling and of the attention keys, so a sample's result does not
depend on what it is batched with. The model concatenates the projected
role vectors onto the frozen turn embeddings, runs the GAT stack,
mean-pools the real nodes, fuses the result with the news embedding by
interactive attention, and a softmax head predicts (p_real, p_fake).
``loss_and_grad`` differentiates the mean batch cross-entropy w.r.t.
every parameter block. All parameters live in one flat float64 buffer;
each named block is a view into it.

The forward pass computes that function without building any node_dim
(= 2 * d_h) wide activation. Every such array only ever feeds a linear
map, so the maps are multiplied together first:

* the first layer's W_0 = [W_e | W_r] meets [embedding ; onehot @ T],
  with T the role table, as [W_e | W_r Tᵀ] applied to [embedding ;
  onehot];
* the last, identity, layer returns the gat_hidden-wide aggregate Z, and
  the interaction applies M = graph_proj @ W_last to its mean, and
  key @ M and value @ M to Z (see ``attention``).

The backward pass takes the same route, and the gradients of W_0, the
role table, W_last and graph_proj come from those of the products.

The gradient is one flat vector aligned with the parameters, and the
caller may pass it in (``out``): training fills one buffer at every
step. Each block is written in place by the product that computes it
(``np.matmul(..., out=view)``), so a step allocates, copies and frees
no parameter-block-sized array. W_last's gradient, the attention score
term plus graph_projᵀ dM (M = graph_proj @ W_last), is one product:
W_last's attention vector and graph_proj are neighbouring parameter
blocks, so their stack [a_src ; a_dst ; graph_proj] is a view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..domain import DebateLog
from ..encoding import ROLE_PAIR_INDEX, EmbeddingVector, RoleTable
from ..graph import adjacency_mask, edges_for_log
from .adam import all_finite
from .attention import (
    INTERACTION_MODES,
    PROJECTIONS,
    InteractionHead,
    interact_backward,
    interact_cached,
)
from .gat import GatLayer, gat_backward, gat_forward_cached, softmax

LOG_CLAMP = 1e-12


class NumericalFault(RuntimeError):
    """A non-finite value surfaced during training; names the parameter
    blocks involved."""


@dataclass
class ClassifierHead:
    weight: np.ndarray  # (2, 2 * d_p)
    bias: np.ndarray    # (2,)

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.shape[0] != 2 or self.bias.shape != (2,):
            raise ValueError("classifier head must map to exactly two classes")

    @classmethod
    def create(cls, in_dim: int, rng: np.random.Generator) -> "ClassifierHead":
        scale = 1.0 / math.sqrt(in_dim)
        return cls(weight=rng.uniform(-scale, scale, size=(2, in_dim)), bias=np.zeros(2))


def classify(fused: np.ndarray, head: ClassifierHead) -> np.ndarray:
    """Softmax over the two class logits of one fused vector or of a
    ``(B, width)`` batch; entries are positive and each row sums to 1
    (up to float rounding)."""
    fused = np.asarray(fused, dtype=np.float64)
    if fused.shape[-1] != head.weight.shape[1]:
        raise ValueError(
            f"fused vector width {fused.shape[-1]} does not match head ({head.weight.shape[1]})"
        )
    return softmax(fused @ head.weight.T + head.bias)


def cross_entropy(probs: np.ndarray, labels) -> float:
    """Mean negative log-probability of the true classes, for one (2,)
    distribution and label or a (B, 2) batch and B labels; clamped at
    1e-12 so a fully saturated wrong prediction cannot produce -log 0."""
    probs, labels = np.atleast_2d(probs), np.atleast_1d(labels)
    if not np.isin(labels, (0, 1)).all():
        raise ValueError(f"labels must be 0 or 1, got {labels!r}")
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.log(np.maximum(picked, LOG_CLAMP)).mean())


def global_mean_pool(features: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Mean over the nodes of one ``(n, d)`` graph, or over the real
    nodes of each graph in a ``(B, n, d)`` batch given its ``(B, n)``
    node mask."""
    features = np.asarray(features, dtype=np.float64)
    if mask is None:
        if features.ndim != 2 or features.shape[0] == 0:
            raise ValueError("global_mean_pool needs at least one node")
        return global_mean_pool(features[None], np.ones((1, len(features)), dtype=bool))[0]
    return (features * mask[..., None]).sum(axis=1) / mask.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class ModelConfig:
    d_h: int = 384
    d_r: int = 16
    gat_hidden: int = 128
    gat_layers: int = 2
    d_p: int = 128
    heads: int = 4
    interaction_mode: str = "nodes"
    seed: int = 0

    def __post_init__(self):
        if self.gat_layers < 1:
            raise ValueError("need at least one GAT layer")
        if self.d_p % self.heads != 0:
            raise ValueError("d_p must be divisible by heads")
        if self.interaction_mode not in INTERACTION_MODES:
            raise ValueError(f"unknown interaction mode {self.interaction_mode!r}")


@dataclass(frozen=True)
class Sample:
    """One classification instance: frozen per-turn embeddings, role ids
    into the role table (-1 means no role, e.g. a bare news node), the
    debate graph as its boolean in-neighbor mask, and the frozen news
    embedding."""

    news_id: str
    node_embeddings: np.ndarray  # (n, d_h)
    role_ids: np.ndarray         # (n,), -1 for role-less nodes
    adjacency: np.ndarray        # (n, n) bool, [i, j] iff j is an in-neighbor of i
    news_embedding: np.ndarray   # (d_h,)
    label: int | None = None


def make_sample(log: DebateLog, turn_embeddings: list[EmbeddingVector],
                news_embedding: EmbeddingVector, label: int | None = None) -> Sample:
    if len(turn_embeddings) != len(log.turns):
        raise ValueError("one embedding per turn is required")
    role_ids = np.array(
        [ROLE_PAIR_INDEX[(t.role, t.stance)] for t in log.turns], dtype=np.intp
    )
    return Sample(
        news_id=log.news_id,
        node_embeddings=np.stack([e.values for e in turn_embeddings]),
        role_ids=role_ids,
        adjacency=adjacency_mask(edges_for_log(log), len(log.turns)),
        news_embedding=news_embedding.values,
        label=label,
    )


def make_news_only_sample(news_id: str, news_embedding: EmbeddingVector,
                          label: int | None = None) -> Sample:
    """Degenerate one-node sample used when the debate is ablated away:
    the news embedding is the only node and carries no role."""
    return Sample(
        news_id=news_id,
        node_embeddings=news_embedding.values[None, :],
        role_ids=np.array([-1], dtype=np.intp),
        adjacency=np.ones((1, 1), dtype=bool),
        news_embedding=news_embedding.values,
        label=label,
    )


@dataclass(frozen=True)
class Batch:
    nodes: np.ndarray      # (B, n, d_h), zero on padding
    role_ids: np.ndarray   # (B, n), -1 for role-less and padding nodes
    adjacency: np.ndarray  # (B, n, n) bool, [b, i, j] iff j is an in-neighbor of i
    mask: np.ndarray       # (B, n) bool, real nodes
    news: np.ndarray       # (B, d_h)


def collate(samples: list[Sample]) -> Batch:
    """Pad samples to the batch's largest node count. The adjacency
    starts as the identity, so each padding node keeps a lone self-loop
    and its softmax row stays finite."""
    if not samples:
        raise ValueError("batch must be non-empty")
    n = max(s.node_embeddings.shape[0] for s in samples)
    d_h = samples[0].node_embeddings.shape[1]
    nodes = np.zeros((len(samples), n, d_h))
    role_ids = np.full((len(samples), n), -1, dtype=np.intp)
    adjacency = np.tile(np.eye(n, dtype=bool), (len(samples), 1, 1))
    mask = np.zeros((len(samples), n), dtype=bool)
    for b, s in enumerate(samples):
        k = s.node_embeddings.shape[0]
        nodes[b, :k] = s.node_embeddings
        role_ids[b, :k] = s.role_ids
        adjacency[b, :k, :k] = s.adjacency
        mask[b, :k] = True
    news = np.stack([s.news_embedding for s in samples]).astype(np.float64)
    return Batch(nodes, role_ids, adjacency, mask, news)


def _labels(batch: list[Sample]) -> np.ndarray:
    for sample in batch:
        if sample.label is None:
            raise ValueError(f"sample {sample.news_id!r} has no label")
    return np.array([s.label for s in batch], dtype=np.intp)


class AnalysisModel:
    """All trainable parameters, held as views into one flat buffer,
    ``flat``; updating it in place updates every block."""

    def __init__(self, config: ModelConfig, role_table: RoleTable,
                 gat_layers: list[GatLayer], interaction: InteractionHead,
                 classifier: ClassifierHead):
        self.config = config
        self.role_table = role_table
        self.gat_layers = gat_layers
        self.interaction = interaction
        self.classifier = classifier

        owners = [("role_embeddings", role_table, "embeddings"),
                  ("role_projection", role_table, "projection")]
        owners += [(f"gat{l}.{attr}", layer, attr)
                   for l, layer in enumerate(gat_layers) for attr in ("weight", "attn")]
        owners += [(f"interaction.{attr}", interaction, attr) for attr in PROJECTIONS]
        owners += [(f"classifier.{attr}", classifier, attr) for attr in ("weight", "bias")]

        # Move every block into one buffer and leave a view in its place.
        self.flat = np.concatenate([getattr(owner, attr).ravel() for _, owner, attr in owners])
        self._blocks: list[tuple[str, slice, tuple[int, ...]]] = []
        offset = 0
        for name, owner, attr in owners:
            shape = getattr(owner, attr).shape
            sl = slice(offset, offset + math.prod(shape))
            setattr(owner, attr, self.flat[sl].reshape(shape))
            self._blocks.append((name, sl, shape))
            offset = sl.stop
        # The last GAT layer's attention vector and graph_proj are
        # neighbouring blocks, so [a_src ; a_dst ; graph_proj] is one
        # (2 + d_p, node_dim) view: the left factor of that layer's
        # weight gradient (see gat_backward).
        slices = dict(self.block_slices())
        self._score_and_graph_proj = self.flat[
            slices[f"gat{len(gat_layers) - 1}.attn"].start:slices["interaction.graph_proj"].stop
        ].reshape(-1, interaction.graph_proj.shape[1])

    @classmethod
    def create(cls, config: ModelConfig) -> "AnalysisModel":
        rng = np.random.default_rng(config.seed)
        role_table = RoleTable.create(config.d_h, config.d_r, rng)
        node_dim = 2 * config.d_h
        dims = [node_dim] + [config.gat_hidden] * (config.gat_layers - 1) + [node_dim]
        layers = []
        for l in range(config.gat_layers):
            activation = "identity" if l == config.gat_layers - 1 else "elu"
            layers.append(GatLayer.create(dims[l], dims[l + 1], rng, activation))
        interaction = InteractionHead.create(node_dim, config.d_h, config.d_p,
                                             config.heads, rng)
        classifier = ClassifierHead.create(2 * config.d_p, rng)
        return cls(config, role_table, layers, interaction, classifier)

    # ---- parameter bookkeeping -------------------------------------------

    def block_slices(self) -> list[tuple[str, slice]]:
        return [(name, sl) for name, sl, _ in self._blocks]

    @property
    def num_params(self) -> int:
        return self.flat.size

    def parameter_vector(self, out: np.ndarray | None = None) -> np.ndarray:
        """A copy of the parameters: a new vector, or ``out`` filled."""
        if out is None:
            return self.flat.copy()
        np.copyto(out, self.flat)
        return out

    def set_parameter_vector(self, vector: np.ndarray) -> None:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != self.flat.shape:
            raise ValueError(f"expected {self.num_params} parameters, got {vector.shape}")
        self.flat[...] = vector

    # ---- forward / backward ----------------------------------------------

    def forward(self, samples: list[Sample]):
        """Run the full forward pass over a batch; returns (probs, cache)
        with probs of shape (B, 2)."""
        batch = collate(samples)
        d_h = self.config.d_h
        if batch.nodes.shape[2] != d_h:
            raise ValueError(f"sample embeddings have dim {batch.nodes.shape[2]}, "
                             f"model expects {d_h}")
        # One-hot role rows; role-less and padding nodes get a zero row.
        table = self.role_table.embeddings @ self.role_table.projection.T
        roles = (batch.role_ids[..., None] == np.arange(table.shape[0])).astype(np.float64)
        # Layer 0 reads [embedding ; roles @ table] through W_0 = [W_e | W_r],
        # which equals [W_e | W_r tableᵀ] applied to [embedding ; roles].
        first = self.gat_layers[0].weight
        weights = [layer.weight for layer in self.gat_layers]
        weights[0] = np.concatenate([first[:, :d_h], first[:, d_h:] @ table.T], axis=1)
        activations = np.concatenate([batch.nodes, roles], axis=2)
        gat_caches = []
        for layer, weight in zip(self.gat_layers, weights):
            activations, cache = gat_forward_cached(layer, activations, batch.adjacency, weight)
            gat_caches.append(cache)
        # The last layer is the identity: its output is activations @
        # weights[-1]ᵀ, and interaction folds that map into graph_proj.
        pooled = global_mean_pool(activations, batch.mask)
        fused, att_cache = interact_cached(
            batch.news, activations, pooled, weights[-1], self.interaction,
            self.config.interaction_mode, batch.mask,
        )
        probs = classify(fused, self.classifier)
        return probs, {"batch": batch, "table": table, "gat": gat_caches,
                       "attention": att_cache, "fused": fused, "probs": probs}

    def gradient(self, cache: dict, labels: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Gradient of the mean cross-entropy of a forward batch, as one
        flat vector aligned with ``parameter_vector``: a new one, or
        ``out`` filled. Each block is written in place by the product
        that computes it."""
        if out is None:
            out = np.empty(self.num_params)
        elif out.shape != self.flat.shape or out.dtype != np.float64 \
                or not out.flags.c_contiguous:
            raise ValueError(f"out must be a contiguous float64 vector of {self.num_params}")
        grads = {name: out[sl].reshape(shape) for name, sl, shape in self._blocks}
        batch: Batch = cache["batch"]
        d_logits = cache["probs"].copy()
        d_logits[np.arange(len(labels)), labels] -= 1.0
        d_logits /= len(labels)

        np.matmul(d_logits.T, cache["fused"], out=grads["classifier.weight"])
        np.sum(d_logits, axis=0, out=grads["classifier.bias"])
        d_fused = d_logits @ self.classifier.weight

        d_activations, d_pooled, d_graph_map = interact_backward(
            self.interaction, cache["attention"], d_fused,
            {name: grads[f"interaction.{name}"] for name in PROJECTIONS},
        )
        counts = batch.mask.sum(axis=1)
        d_mean = batch.mask[..., None] * (d_pooled / counts[:, None])[:, None, :]
        if d_activations is None:
            d_activations = d_mean
        else:
            d_activations += d_mean

        # Layer 0 applied [W_e | W_r tableᵀ], width d_h + roles; its
        # gradient goes to the leading columns of W_0's block when they
        # fit, and the role columns are then mapped back below.
        d_h, table = self.config.d_h, cache["table"]
        d_w0 = grads["gat0.weight"]
        width = d_h + table.shape[0]
        fits = width <= d_w0.shape[1]
        d_applied = d_w0[:, :width] if fits else np.empty((len(d_w0), width))

        last = len(self.gat_layers) - 1
        for l in range(last, -1, -1):
            d_activations = gat_backward(
                self.gat_layers[l], cache["gat"][l], d_activations,
                d_applied if l == 0 else grads[f"gat{l}.weight"], grads[f"gat{l}.attn"],
                input_grad=l > 0,
                map_grad=(self._score_and_graph_proj, d_graph_map) if l == last else None,
            )

        # Back from [W_e | W_r tableᵀ] to W_0 and the role table.
        d_roles = d_applied[:, d_h:].copy()
        if not fits:
            d_w0[:, :d_h] = d_applied[:, :d_h]
        np.matmul(d_roles, table, out=d_w0[:, d_h:])
        d_table = d_roles.T @ self.gat_layers[0].weight[:, d_h:]
        np.matmul(d_table, self.role_table.projection, out=grads["role_embeddings"])
        np.matmul(d_table.T, self.role_table.embeddings, out=grads["role_projection"])
        return out


def batch_loss(model: AnalysisModel, batch: list[Sample]) -> float:
    """Mean cross-entropy over the batch."""
    labels = _labels(batch)
    probs, _ = model.forward(batch)
    return cross_entropy(probs, labels)


def backward(model: AnalysisModel, batch: list[Sample]) -> np.ndarray:
    """Gradient of the mean batch loss as one flat vector aligned with
    ``parameter_vector``."""
    return loss_and_grad(model, batch)[1]


def loss_and_grad(model: AnalysisModel, batch: list[Sample],
                  out: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Mean batch loss and its gradient: a new vector, or ``out``
    filled and returned."""
    labels = _labels(batch)
    probs, cache = model.forward(batch)
    grad = model.gradient(cache, labels, out)
    if not all_finite(grad):
        bad = [name for name, sl in model.block_slices() if not all_finite(grad[sl])]
        raise NumericalFault(f"non-finite gradient in parameter blocks: {bad}")
    return cross_entropy(probs, labels), grad
