"""Independent oracles the implementation is checked against.

Each function here recomputes a quantity from first principles by a
route the production code never takes: central finite differences for
gradients, raw confusion-count arithmetic for metrics, edge-scan
neighbor recomputation for graphs, and a literal one-sample-at-a-time
forward pass of the classifier.
"""

from __future__ import annotations

import numpy as np

from veridebate.neural import AnalysisModel, Sample, batch_loss


def finite_difference_gradient(model: AnalysisModel, batch: list[Sample],
                               step: float = 1e-4) -> np.ndarray:
    """Central finite differences of the mean batch loss over every
    parameter, treating the model's forward pass as a black box."""
    params = model.parameter_vector()
    grad = np.empty_like(params)
    for k in range(params.size):
        perturbed = params.copy()
        perturbed[k] += step
        model.set_parameter_vector(perturbed)
        up = batch_loss(model, batch)
        perturbed[k] -= 2 * step
        model.set_parameter_vector(perturbed)
        down = batch_loss(model, batch)
        grad[k] = (up - down) / (2 * step)
    model.set_parameter_vector(params)
    return grad


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max())
    return e / e.sum()


def reference_forward(model: AnalysisModel, samples: list[Sample]) -> np.ndarray:
    """(len(samples), 2) class probabilities, computed from the model's
    formulas one sample at a time, with every layer's full-width output
    built: node features are [embedding ; role vector], each GAT layer
    forms W h, scores every edge and aggregates, the debate vectors are
    the last layer's outputs (or their mean) projected by graph_proj,
    and the news queries them head by head."""
    roles, head, classifier = model.role_table, model.interaction, model.classifier
    role_vectors = roles.embeddings @ roles.projection.T  # one row per role
    probs = []
    for sample in samples:
        n = len(sample.node_embeddings)
        role_part = np.zeros_like(sample.node_embeddings)
        for i, role in enumerate(sample.role_ids):
            if 0 <= role < len(role_vectors):  # -1: a node without a role
                role_part[i] = role_vectors[role]
        h = np.concatenate([sample.node_embeddings, role_part], axis=1)
        for layer in model.gat_layers:
            wh = h @ layer.weight.T
            a_src, a_dst = layer.attn[: layer.out_dim], layer.attn[layer.out_dim :]
            h = np.zeros_like(wh)
            for i in range(n):
                neighbors = [j for j in range(n) if sample.adjacency[i, j]]
                scores = np.array([a_src @ wh[i] + a_dst @ wh[j] for j in neighbors])
                weights = _softmax(np.where(scores > 0, scores, 0.2 * scores))
                h[i] = sum(w * wh[j] for w, j in zip(weights, neighbors))
            if layer.activation == "elu":
                h = np.where(h > 0, h, np.expm1(h))
        g = head.graph_proj @ h.mean(axis=0)
        kv = h @ head.graph_proj.T if model.config.interaction_mode == "nodes" else g[None]
        query = head.query @ (head.news_proj @ sample.news_embedding)
        keys, values = kv @ head.key.T, kv @ head.value.T
        context = []
        for k in range(head.heads):
            cols = slice(k * head.head_dim, (k + 1) * head.head_dim)
            weights = _softmax(keys[:, cols] @ query[cols] / np.sqrt(head.head_dim))
            context.append(weights @ values[:, cols])
        fused = np.concatenate([g, head.out @ np.concatenate(context)])
        probs.append(_softmax(classifier.weight @ fused + classifier.bias))
    return np.array(probs)


def literal_attention_weights(head, news_embedding: np.ndarray, sources: np.ndarray,
                              node_map: np.ndarray) -> np.ndarray:
    """(heads, n) interaction weights of one graph's n real sources z_j,
    computed with every per-node key built: key_j = K M z_j with M =
    graph_proj @ node_map, the query q = Q W_e news, and head h a
    softmax over (key_j,h · q_h) / sqrt(head_dim)."""
    graph_map = head.graph_proj @ node_map
    query = head.query @ (head.news_proj @ news_embedding)
    keys = [head.key @ (graph_map @ z) for z in sources]
    weights = []
    for k in range(head.heads):
        cols = slice(k * head.head_dim, (k + 1) * head.head_dim)
        scores = np.array([key[cols] @ query[cols] for key in keys])
        weights.append(_softmax(scores / np.sqrt(head.head_dim)))
    return np.array(weights)


def block_relative_errors(model: AnalysisModel, analytic: np.ndarray,
                          numeric: np.ndarray) -> dict[str, float]:
    errors = {}
    for name, sl in model.block_slices():
        a, f = analytic[sl], numeric[sl]
        denom = max(np.abs(a).max(), np.abs(f).max(), 1e-8)
        errors[name] = float(np.abs(a - f).max() / denom)
    return errors


def brute_force_metrics(predictions, labels) -> dict[str, float]:
    """Recompute accuracy and per-class F1 from raw confusion counts."""
    predictions = list(predictions)
    labels = list(labels)
    out: dict[str, float] = {}
    f1s = []
    for cls, name in ((0, "real"), (1, "fake")):
        tp = fp = fn = 0
        for p, y in zip(predictions, labels):
            if p == cls and y == cls:
                tp += 1
            elif p == cls and y != cls:
                fp += 1
            elif p != cls and y == cls:
                fn += 1
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        out[f"f1_{name}"] = f1
        f1s.append(f1)
    out["macro_f1"] = sum(f1s) / 2
    out["accuracy"] = sum(1 for p, y in zip(predictions, labels) if p == y) / len(labels)
    return out


def brute_force_neighbors(edges, num_nodes: int) -> list[set[int]]:
    """In-neighbor sets rebuilt by scanning the edge list."""
    result = [set() for _ in range(num_nodes)]
    for src, dst in edges:
        result[dst].add(src)
    return result
