"""Shared generators: hypothesis strategies and plain-rng builders for
valid debate logs and model inputs."""

from __future__ import annotations

import dataclasses
import random

import numpy as np
from hypothesis import strategies as st

from veridebate.domain import STAGES, STAGE_ROLES, DebateLog, DebateRole, DebateTurn, Stance
from veridebate.neural import AnalysisModel, ModelConfig, Sample

_WORDS = ("alpha", "bravo", "cedar", "delta", "ember", "frost", "gale", "harbor")


def _turn_text(rng: random.Random) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(2, 6)))


def random_valid_log(rng: random.Random, max_extra_turns: int = 2,
                     max_targets: int = 2) -> DebateLog:
    """A log satisfying every validate_log invariant, with randomized
    per-stage turn counts and randomized backward targets."""
    turns: list[DebateTurn] = []
    for stage in STAGES:
        n_pairs = 1 + rng.randint(0, max_extra_turns)
        for _ in range(n_pairs):
            for stance in (Stance.TRUE, Stance.FAKE):
                index = len(turns)
                n_targets = rng.randint(0, max_targets) if index > 0 else 0
                targets = tuple(
                    sorted(rng.sample(range(index), min(n_targets, index)))
                )
                turns.append(
                    DebateTurn(
                        turn_index=index,
                        agent_id=f"{stance.team}_0",
                        stance=stance,
                        role=STAGE_ROLES[stage],
                        stage=stage,
                        text=_turn_text(rng),
                        targets=targets,
                    )
                )
    return DebateLog(news_id=f"rnd-{rng.randint(0, 10**6)}", turns=tuple(turns))


@st.composite
def valid_logs(draw) -> DebateLog:
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_valid_log(random.Random(seed))


@st.composite
def mutated_logs(draw) -> DebateLog:
    """A valid log after up to five random edits (a turn's stage, role,
    stance, text, index or targets replaced, a turn dropped, two turns
    swapped), so that every validate_log rule can fire, alone or
    together."""
    log = draw(valid_logs())
    turns = list(log.turns)
    for _ in range(draw(st.integers(0, 5))):
        if not turns:
            break
        i = draw(st.integers(0, len(turns) - 1))
        n = len(turns)
        edit = draw(st.sampled_from(
            ("stage", "role", "stance", "text", "index", "targets", "drop", "swap")))
        if edit == "drop":
            del turns[i]
        elif edit == "swap":
            j = draw(st.integers(0, n - 1))
            turns[i], turns[j] = turns[j], turns[i]
        else:
            value = {
                "stage": st.sampled_from(STAGES),
                "role": st.sampled_from(tuple(DebateRole)),
                "stance": st.sampled_from(tuple(Stance)),
                "text": st.sampled_from(("", "  \n ", "fresh words")),
                "index": st.integers(-2, n + 2),
                "targets": st.lists(st.integers(-3, n + 3), max_size=3).map(tuple),
            }[edit]
            field = "turn_index" if edit == "index" else edit
            turns[i] = dataclasses.replace(turns[i], **{field: draw(value)})
    return DebateLog(log.news_id, tuple(turns))


def random_graph_sample(rng: np.random.Generator, n_nodes: int, d_h: int,
                        label: int | None = None) -> Sample:
    """A synthetic classification sample over a random connected
    symmetric graph (chain plus a few extra symmetric edges), given as
    its in-neighbor mask."""
    chain = np.arange(n_nodes - 1)
    adjacency = np.eye(n_nodes, dtype=bool)
    adjacency[chain, chain + 1] = adjacency[chain + 1, chain] = True
    for _ in range(int(rng.integers(0, 3))):
        a, b = (int(x) for x in rng.integers(0, n_nodes, 2))
        adjacency[a, b] = adjacency[b, a] = True
    return Sample(
        news_id="sample",
        node_embeddings=rng.standard_normal((n_nodes, d_h)),
        role_ids=rng.integers(0, 10, n_nodes).astype(np.intp),
        adjacency=adjacency,
        news_embedding=rng.standard_normal(d_h),
        label=int(rng.integers(0, 2)) if label is None else label,
    )


def _kink_clearance(model: AnalysisModel, batch: list[Sample]) -> float:
    """Smallest |leaky-ReLU pre-activation| reached on any real edge of a
    real node in the batch's forward pass (a padding node's self-loop
    pre-activation is exactly 0 and never reaches a real output)."""
    _, cache = model.forward(batch)
    real = cache["batch"].adjacency & cache["batch"].mask[:, :, None]
    return min(float(np.abs(layer.logits_pre[real]).min()) for layer in cache["gat"])


def make_gradcheck_case(seed: int, heads: int = 1, batch_size: int = 2,
                        min_clearance: float = 3e-3, d_h: int = 4,
                        node_counts: tuple[int, ...] | None = None):
    """A random tiny model plus batch suitable for finite-difference
    checking at step 1e-4. The batch holds ``batch_size`` graphs of 3 to
    8 nodes, or one graph per entry of ``node_counts``.

    The model is float64, as the oracle's step and bounds assume.

    The attention logits pass through a leaky ReLU, which has no
    derivative at 0; configurations whose pre-activations sit inside the
    guard band around the kink are resampled so the central difference
    never straddles a non-differentiable point.
    """
    rng = np.random.default_rng(seed)
    while True:
        config = ModelConfig(
            d_h=d_h, d_r=2, gat_hidden=5, d_p=4, heads=heads,
            seed=int(rng.integers(0, 2**31)), dtype="float64",
        )
        model = AnalysisModel.create(config)
        counts = node_counts or [int(rng.integers(3, 9)) for _ in range(batch_size)]
        batch = [random_graph_sample(rng, n, d_h) for n in counts]
        if _kink_clearance(model, batch) >= min_clearance:
            return model, batch
