"""The full debate classifier and its exact gradients, over one padded
dense batch.

``collate`` pads B samples to the batch's largest node count n. Padding
nodes have zero features, no role and a lone self-loop, and are masked
out of pooling and of the attention keys, so a sample's result does not
depend on what it is batched with. The model concatenates the projected
role vectors onto the frozen turn embeddings, runs its two GAT layers,
lets the news embedding attend over the resulting nodes, and a softmax
head reads that attention's context beside the mean of the real nodes
and predicts (p_real, p_fake).
``loss_and_grad`` differentiates the mean batch cross-entropy w.r.t.
every parameter block. All parameters live in one flat buffer of the
model's dtype (``ModelConfig.dtype``, float32 by default); each named
block is a view into it, and every array of a forward and backward pass
has that dtype. The embedding rows are float32, so float32 arithmetic
loses nothing the inputs hold; the test oracles build float64 models
through the same code.

The paper's last GAT layer has no activation, so its projection W_last
(node_dim x in_dim, node_dim = 2 * d_h) reaches the output only as the
score vectors [u ; v] = [W_lastᵀ a_src ; W_lastᵀ a_dst] and as
graph_map = graph_proj @ W_last. The model trains those products as
its blocks; ``create`` draws W_last, a and graph_proj in the factored
model's order and multiplies them out.

The shape is fixed: one hidden GAT layer, then the collapsed last
layer, then the interaction. No node_dim wide activation is built: the
hidden layer's W_0 = [W_e | W_r] meets the node features [embedding ;
onehot @ T], with T the role table, so it is applied as [W_e | W_r Tᵀ]
to [embedding ; onehot]; the backward pass takes the same route.

The gradient is one flat vector aligned with the parameters, and the
caller may pass it in (``out``): training fills one buffer at every
step. Each block is written in place by the product that computes it
(``np.matmul(..., out=view)``), so a step allocates, copies and frees
no parameter-block-sized array. ``loss_and_grad`` does not check the
gradient's finiteness: ``adam_step`` refuses a non-finite one, and
``train`` and ``backward`` name its blocks in a ``NumericalFault``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..domain import DebateLog, DebateRole, Stance
from ..graph import log_mask
from .adam import all_finite
from .attention import PROJECTIONS, InteractionHead, interact_backward, interact_cached
from .gat import (
    FLOAT_DTYPES,
    GatLayer,
    LastGatLayer,
    float_params,
    gat_backward,
    gat_forward_cached,
    softmax,
)

LOG_CLAMP = 1e-12

# Fixed ordering of the trainable role vectors.
ROLE_STANCE_PAIRS = tuple((role, stance) for role in DebateRole for stance in Stance)
_ROLES, _STANCES = tuple(DebateRole), tuple(Stance)


def role_pair_ids(turns) -> list[int]:
    """Each turn's index into ROLE_STANCE_PAIRS. The members are found by
    position, which compares them by identity; looking the pair up in a
    dict would hash both through the Python-level ``Enum.__hash__``."""
    return [_ROLES.index(t.role) * len(_STANCES) + _STANCES.index(t.stance) for t in turns]


class NumericalFault(RuntimeError):
    """A non-finite value surfaced during training; names the parameter
    blocks involved."""


class RoleTable:
    """Trainable role vocabulary: one vector per (role, stance) pair, so
    the two teams' rebutters stay distinguishable, plus the projection
    that lifts role vectors to the embedding dimension."""

    def __init__(self, embeddings: np.ndarray, projection: np.ndarray):
        embeddings, projection = float_params(embeddings, projection)
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


@dataclass
class ClassifierHead:
    weight: np.ndarray  # (2, 2 * d_p)
    bias: np.ndarray    # (2,)

    def __post_init__(self):
        self.weight, self.bias = float_params(self.weight, self.bias)
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
    fused = np.asarray(fused, dtype=head.weight.dtype)
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
    features = np.asarray(features)
    if mask is None:
        if features.ndim != 2 or features.shape[0] == 0:
            raise ValueError("global_mean_pool needs at least one node")
        return global_mean_pool(features[None], np.ones((1, len(features)), dtype=bool))[0]
    counts = mask.sum(axis=1, keepdims=True, dtype=features.dtype)
    return (features * mask[..., None]).sum(axis=1) / counts


@dataclass(frozen=True)
class ModelConfig:
    d_h: int = 384
    d_r: int = 16
    gat_hidden: int = 128
    d_p: int = 128
    heads: int = 4
    seed: int = 0
    # The dtype of the parameters and of every array a pass computes.
    dtype: str = "float32"

    def __post_init__(self):
        for name in ("d_h", "d_r", "gat_hidden", "d_p", "heads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.d_p % self.heads != 0:
            raise ValueError("d_p must be divisible by heads")
        if self.dtype not in FLOAT_DTYPES:
            raise ValueError(f"dtype must be 'float32' or 'float64', got {self.dtype!r}")


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


def make_sample(log: DebateLog, turn_embeddings: np.ndarray, news_embedding: np.ndarray,
                label: int | None = None) -> Sample:
    """The sample of one debate, from its ``(n, d_h)`` turn embedding
    matrix (one row per turn, in turn order) and its ``(d_h,)`` news
    embedding, kept in the dtype they come in: ``collate`` writes them
    into the model's."""
    news_embedding = np.asarray(news_embedding)
    turn_embeddings = np.asarray(turn_embeddings)
    if news_embedding.ndim != 1 or turn_embeddings.shape != (len(log.turns), len(news_embedding)):
        raise ValueError("need one embedding row per turn, as wide as the news embedding")
    role_ids = np.array(role_pair_ids(log.turns), dtype=np.intp)
    return Sample(
        news_id=log.news_id,
        node_embeddings=turn_embeddings,
        role_ids=role_ids,
        adjacency=log_mask(log),
        news_embedding=news_embedding,
        label=label,
    )


def make_news_only_sample(news_id: str, news_embedding: np.ndarray,
                          label: int | None = None) -> Sample:
    """Degenerate one-node sample used when the debate is ablated away:
    the news embedding is the only node and carries no role."""
    news_embedding = np.asarray(news_embedding)
    return Sample(
        news_id=news_id,
        node_embeddings=news_embedding[None, :],
        role_ids=np.array([-1], dtype=np.intp),
        adjacency=np.ones((1, 1), dtype=bool),
        news_embedding=news_embedding,
        label=label,
    )


@dataclass(frozen=True)
class Batch:
    nodes: np.ndarray      # (B, n, d_h), zero on padding
    role_ids: np.ndarray   # (B, n), -1 for role-less and padding nodes
    adjacency: np.ndarray  # (B, n, n) bool, [b, i, j] iff j is an in-neighbor of i
    mask: np.ndarray       # (B, n) bool, real nodes
    news: np.ndarray       # (B, d_h)


def collate(samples: list[Sample], dtype: np.dtype | str) -> Batch:
    """Pad samples to the batch's largest node count, writing their
    embeddings into ``dtype``. The adjacency starts as the identity, so
    each padding node keeps a lone self-loop and its softmax row stays
    finite."""
    if not samples:
        raise ValueError("batch must be non-empty")
    n = max(s.node_embeddings.shape[0] for s in samples)
    d_h = samples[0].node_embeddings.shape[1]
    nodes = np.zeros((len(samples), n, d_h), dtype=dtype)
    news = np.empty((len(samples), d_h), dtype=dtype)
    role_ids = np.full((len(samples), n), -1, dtype=np.intp)
    adjacency = np.tile(np.eye(n, dtype=bool), (len(samples), 1, 1))
    mask = np.zeros((len(samples), n), dtype=bool)
    for b, s in enumerate(samples):
        k = s.node_embeddings.shape[0]
        nodes[b, :k] = s.node_embeddings
        role_ids[b, :k] = s.role_ids
        adjacency[b, :k, :k] = s.adjacency
        mask[b, :k] = True
        news[b] = s.news_embedding
    return Batch(nodes, role_ids, adjacency, mask, news)


def _labels(batch: list[Sample]) -> np.ndarray:
    for sample in batch:
        if sample.label is None:
            raise ValueError(f"sample {sample.news_id!r} has no label")
    return np.array([s.label for s in batch], dtype=np.intp)


class AnalysisModel:
    """All trainable parameters, held as views into one flat buffer,
    ``flat``; updating it in place updates every block."""

    def __init__(self, config: ModelConfig, role_table: RoleTable, hidden: GatLayer,
                 last: LastGatLayer, interaction: InteractionHead, classifier: ClassifierHead):
        self.config = config
        self.role_table = role_table
        self.gat_layers = [hidden, last]
        self.interaction = interaction
        self.classifier = classifier

        owners = [("role_embeddings", role_table, "embeddings"),
                  ("role_projection", role_table, "projection")]
        owners += [(f"gat{l}.{attr}", layer, attr)
                   for l, layer in enumerate(self.gat_layers) for attr in layer.params]
        owners += [(f"interaction.{attr}", interaction, attr) for attr in PROJECTIONS]
        owners += [(f"classifier.{attr}", classifier, attr) for attr in ("weight", "bias")]

        # Move every block into one buffer and leave a view in its place.
        self.flat = np.concatenate([getattr(owner, attr).ravel() for _, owner, attr in owners],
                                   dtype=config.dtype)
        self._blocks: list[tuple[str, slice, tuple[int, ...]]] = []
        self._views: dict[str, np.ndarray] = {}
        offset = 0
        for name, owner, attr in owners:
            shape = getattr(owner, attr).shape
            sl = slice(offset, offset + math.prod(shape))
            self._views[name] = self.flat[sl].reshape(shape)
            setattr(owner, attr, self._views[name])
            self._blocks.append((name, sl, shape))
            offset = sl.stop

    @classmethod
    def create(cls, config: ModelConfig) -> "AnalysisModel":
        rng = np.random.default_rng(config.seed)
        role_table = RoleTable.create(config.d_h, config.d_r, rng)
        node_dim = 2 * config.d_h
        hidden = GatLayer.create(node_dim, config.gat_hidden, rng)
        # The paper's last layer and graph projection, drawn in this
        # order, enter the model only multiplied out.
        factored = GatLayer.create(config.gat_hidden, node_dim, rng)
        interaction = InteractionHead.create(node_dim, config.d_h, config.d_p,
                                             config.heads, rng)
        last = LastGatLayer(factored.attn.reshape(2, node_dim) @ factored.weight)
        interaction.graph_map = interaction.graph_map @ factored.weight
        classifier = ClassifierHead.create(2 * config.d_p, rng)
        return cls(config, role_table, hidden, last, interaction, classifier)

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
        vector = np.asarray(vector)
        if vector.shape != self.flat.shape:
            raise ValueError(f"expected {self.num_params} parameters, got {vector.shape}")
        self.flat[...] = vector

    # ---- forward / backward ----------------------------------------------

    def forward(self, samples: list[Sample]):
        """Run the full forward pass over a batch; returns (probs, cache)
        with probs of shape (B, 2)."""
        batch = collate(samples, self.flat.dtype)
        d_h = self.config.d_h
        if batch.nodes.shape[2] != d_h:
            raise ValueError(f"sample embeddings have dim {batch.nodes.shape[2]}, "
                             f"model expects {d_h}")
        # One-hot role rows; role-less and padding nodes get a zero row.
        table = self.role_table.embeddings @ self.role_table.projection.T
        roles = (batch.role_ids[..., None] == np.arange(table.shape[0])).astype(table.dtype)
        hidden, last = self.gat_layers
        # W_0 = [W_e | W_r] over [embedding ; roles @ table] equals
        # [W_e | W_r tableᵀ] applied to [embedding ; roles].
        applied = np.concatenate([hidden.weight[:, :d_h], hidden.weight[:, d_h:] @ table.T],
                                 axis=1)
        features = np.concatenate([batch.nodes, roles], axis=2)
        features, hidden_cache = gat_forward_cached(hidden, features, batch.adjacency, applied)
        # The last layer returns its input-space aggregate, which only
        # graph_map reads.
        aggregated, last_cache = gat_forward_cached(last, features, batch.adjacency, last.score)
        pooled = global_mean_pool(aggregated, batch.mask)
        fused, att_cache = interact_cached(batch.news, aggregated, pooled, self.interaction,
                                           batch.mask)
        probs = classify(fused, self.classifier)
        return probs, {"batch": batch, "table": table, "gat": [hidden_cache, last_cache],
                       "attention": att_cache, "fused": fused, "probs": probs}

    def gradient(self, cache: dict, labels: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Gradient of the mean cross-entropy of a forward batch, as one
        flat vector aligned with ``parameter_vector``: a new one, or
        ``out`` filled. Each block is written in place by the product
        that computes it.

        An entry of p - y below the dtype's epsilon is taken as 0: it is
        below what p - y resolves for a probability near 1, and in float32
        it is a subnormal that would slow every product downstream."""
        if out is None:
            out = np.empty_like(self.flat)
        elif out.shape != self.flat.shape or out.dtype != self.flat.dtype \
                or not out.flags.c_contiguous:
            raise ValueError(f"out must be a contiguous {self.flat.dtype} vector "
                             f"of {self.num_params}")
        grads = {name: out[sl].reshape(shape) for name, sl, shape in self._blocks}
        batch: Batch = cache["batch"]
        d_logits = cache["probs"].copy()
        d_logits[np.arange(len(labels)), labels] -= 1.0
        d_logits[np.abs(d_logits) < np.finfo(d_logits.dtype).eps] = 0.0
        d_logits /= len(labels)

        np.matmul(d_logits.T, cache["fused"], out=grads["classifier.weight"])
        np.sum(d_logits, axis=0, out=grads["classifier.bias"])
        d_fused = d_logits @ self.classifier.weight

        # Layer 0 applied [W_e | W_r tableᵀ], width d_h + roles, and gets
        # that map's gradient: in the leading columns of W_0's block when
        # they fit, else in a buffer of its own; the role columns are
        # mapped back below.
        d_h, table = self.config.d_h, cache["table"]
        width = d_h + table.shape[0]
        d_weight = grads["gat0.weight"]
        fits = width <= 2 * d_h
        d_applied = d_weight[:, :width] if fits else np.empty((len(d_weight), width), out.dtype)

        d_aggregated, d_pooled = interact_backward(
            self.interaction, cache["attention"], d_fused,
            {name: grads[f"interaction.{name}"] for name in PROJECTIONS},
        )
        counts = batch.mask.sum(axis=1, dtype=out.dtype)
        d_aggregated += batch.mask[..., None] * (d_pooled / counts[:, None])[:, None, :]

        hidden, last = self.gat_layers
        hidden_cache, last_cache = cache["gat"]
        d_features = gat_backward(last, last_cache, d_aggregated, grads["gat1.score"])
        gat_backward(hidden, hidden_cache, d_features, d_applied, grads["gat0.attn"])

        # Back from [W_e | W_r tableᵀ] to W_0 and the role table.
        d_roles = d_applied[:, d_h:].copy()
        if not fits:
            d_weight[:, :d_h] = d_applied[:, :d_h]
        np.matmul(d_roles, table, out=d_weight[:, d_h:])
        d_table = d_roles.T @ hidden.weight[:, d_h:]
        np.matmul(d_table, self.role_table.projection, out=grads["role_embeddings"])
        np.matmul(d_table.T, self.role_table.embeddings, out=grads["role_projection"])
        return out


def check_gradient(model: AnalysisModel, grad: np.ndarray) -> None:
    """Raise NumericalFault naming the parameter blocks where ``grad``
    is not finite."""
    bad = [name for name, sl in model.block_slices() if not all_finite(grad[sl])]
    if bad:
        raise NumericalFault(f"non-finite gradient in parameter blocks: {bad}")


def batch_loss(model: AnalysisModel, batch: list[Sample]) -> float:
    """Mean cross-entropy over the batch."""
    labels = _labels(batch)
    probs, _ = model.forward(batch)
    return cross_entropy(probs, labels)


def backward(model: AnalysisModel, batch: list[Sample]) -> np.ndarray:
    """Gradient of the mean batch loss as one flat vector aligned with
    ``parameter_vector``; a non-finite one raises NumericalFault."""
    grad = loss_and_grad(model, batch)[1]
    check_gradient(model, grad)
    return grad


def loss_and_grad(model: AnalysisModel, batch: list[Sample],
                  out: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Mean batch loss and its gradient: a new vector, or ``out``
    filled and returned. The gradient is not checked for finiteness
    here (see the module docstring)."""
    labels = _labels(batch)
    probs, cache = model.forward(batch)
    grad = model.gradient(cache, labels, out)
    return cross_entropy(probs, labels), grad
