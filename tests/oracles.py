"""Independent oracles the implementation is checked against.

Each function here recomputes a quantity from first principles by a
route the production code never takes: central finite differences for
gradients, raw confusion-count arithmetic for metrics, edge-scan
neighbor recomputation for graphs, set-based debate-log validation, a
literal one-sample-at-a-time forward pass of the classifier, as it
stands and in the paper's factored form, a whole-file scan of a
pack's records that parses each header as JSON, and a transcript
written by ``json.dumps``.
"""

from __future__ import annotations

import json

import numpy as np

from veridebate.domain import STAGE_LABELS, STAGES, DebateLog, DebateRole, DebateStage, Stance
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


def _literal_forward(model: AnalysisModel, samples: list[Sample], factors) -> np.ndarray:
    """Probabilities one sample at a time. ``factors`` is None for the
    model as it stands, or (W, a, graph_proj) for the last layer's
    projection and attention vector and the graph projection."""
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
            if hasattr(layer, "weight"):
                weight, attn = layer.weight, layer.attn
            elif factors is None:  # the last layer scores in its input space
                weight, attn = np.eye(h.shape[1]), layer.score.ravel()
            else:
                weight, attn = factors[0], factors[1]
            wh = h @ weight.T
            a_src, a_dst = attn[: len(weight)], attn[len(weight) :]
            h = np.zeros_like(wh)
            for i in range(n):
                neighbors = [j for j in range(n) if sample.adjacency[i, j]]
                scores = np.array([a_src @ wh[i] + a_dst @ wh[j] for j in neighbors])
                weights = _softmax(np.where(scores > 0, scores, 0.2 * scores))
                h[i] = sum(w * wh[j] for w, j in zip(weights, neighbors))
            if hasattr(layer, "weight"):
                h = np.where(h > 0, h, np.expm1(h))
        graph_proj = head.graph_map if factors is None else factors[2]
        g = graph_proj @ h.mean(axis=0)
        kv = h @ graph_proj.T
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


def reference_forward(model: AnalysisModel, samples: list[Sample]) -> np.ndarray:
    """(len(samples), 2) class probabilities, computed from the model's
    formulas one sample at a time, with every layer's full-width output
    built: node features are [embedding ; role vector], each hidden GAT
    layer forms W h, scores every edge and aggregates, the last layer
    scores edges by [u ; v] and aggregates its inputs, the debate
    vectors are those aggregates projected by graph_map, and the news
    queries them head by head."""
    return _literal_forward(model, samples, None)


def factored_forward(model: AnalysisModel, samples: list[Sample], weight: np.ndarray,
                     attn: np.ndarray, graph_proj: np.ndarray) -> np.ndarray:
    """The paper's form of the same classifier, one sample at a time:
    the last GAT layer projects by ``weight`` (node_dim, in_dim), scores
    every edge by ``attn`` = [a_src ; a_dst] over its node_dim-wide
    projections and aggregates them, and ``graph_proj`` (d_p, node_dim)
    projects the result; every other parameter is the model's."""
    return _literal_forward(model, samples, (weight, attn, graph_proj))


def literal_attention_weights(head, news_embedding: np.ndarray, sources: np.ndarray,
                              graph_map: np.ndarray) -> np.ndarray:
    """(heads, n) interaction weights of one graph's n real sources z_j,
    computed with every per-node key built: key_j = K graph_map z_j,
    the query q = Q W_e news, and head h a softmax over (key_j,h · q_h)
    / sqrt(head_dim)."""
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


# The four legal (role, stage) pairs of the paper's protocol, stated here
# apart from domain.STAGE_ROLES. No stage admits the Responder.
LEGAL_ROLE_STAGES = {
    (DebateRole.OPENING_SPEAKER, DebateStage.OPENING),
    (DebateRole.QUESTIONER, DebateStage.CROSS_EXAMINATION),
    (DebateRole.REBUTTER, DebateStage.REBUTTAL),
    (DebateRole.CLOSING_SPEAKER, DebateStage.CLOSING),
}


def reference_validate_log(log: DebateLog) -> list[str]:
    """validate_log's violations, found with sets of the stages and of each
    stage's stances present and one scan of the turns per rule group."""
    violations: list[str] = []
    turns = log.turns

    present_stages = {t.stage for t in turns}
    for stage in STAGES:
        if stage not in present_stages:
            violations.append(f"missing stage {STAGE_LABELS[stage]}")

    for i, turn in enumerate(turns):
        if turn.turn_index != i:
            violations.append(
                f"turn_index {turn.turn_index} at position {i} breaks contiguous ordering"
            )
        if not turn.text or not turn.text.strip():
            violations.append(f"empty text at turn {i}")
        for target in turn.targets:
            if target < 0:
                violations.append(f"target out of range at turn {i}")
            elif target >= turn.turn_index:
                violations.append(f"forward reference at turn {i}")
        if (turn.role, turn.stage) not in LEGAL_ROLE_STAGES:
            violations.append(
                f"role {turn.role.value} illegal in stage "
                f"{STAGE_LABELS[turn.stage]} at turn {i}"
            )
        if i > 0 and turn.stage < turns[i - 1].stage:
            violations.append(f"stage regression at turn {i}")

    for stage in STAGES:
        if stage not in present_stages:
            continue
        stances = {t.stance for t in turns if t.stage is stage}
        for stance in Stance:
            if stance not in stances:
                violations.append(
                    f"stage {STAGE_LABELS[stage]} missing stance {stance.value}"
                )

    return violations


def reference_scan(data: bytes, max_header: int) -> dict[str, tuple[int, int, int]]:
    """The records a pack's bytes, read whole, frame: key -> (payload
    offset, size, crc), a later record of a key replacing an earlier one.
    A header is a line of at most ``max_header`` bytes, newline included,
    that is exactly ``json.dumps({"key": k, "size": n, "crc": c})`` for a
    key of printable ASCII without '"' or '\\' and integers n, c >= 0. The
    first line that is not one, or a payload that runs past the end of the
    data, ends the scan."""
    index: dict[str, tuple[int, int, int]] = {}
    offset = 0
    while (newline := data.find(b"\n", offset, offset + max_header)) >= 0:
        try:
            line = data[offset:newline].decode("ascii")
            header = json.loads(line)
        except ValueError:
            break
        if not isinstance(header, dict):
            break
        key, size, crc = header.get("key"), header.get("size"), header.get("crc")
        if not (isinstance(key, str) and all(" " <= c <= "~" and c not in '"\\' for c in key)
                and type(size) is int and size >= 0 and type(crc) is int and crc >= 0
                and json.dumps({"key": key, "size": size, "crc": crc}) == line):
            break
        if newline + 1 + size > len(data):
            break
        index[key] = (newline + 1, size, crc)
        offset = newline + 1 + size
    return index


def reference_log_json(log: DebateLog) -> str:
    """A transcript as ``json.dumps`` with a two-space indent, sorted keys
    and non-ASCII kept writes the log's record."""
    data = {
        "news_id": log.news_id,
        "turns": [
            {"turn_index": t.turn_index, "agent_id": t.agent_id, "stance": t.stance.value,
             "role": t.role.value, "stage": t.stage.key, "text": t.text,
             "targets": list(t.targets)}
            for t in log.turns
        ],
    }
    return json.dumps(data, ensure_ascii=False, sort_keys=True, indent=2)
