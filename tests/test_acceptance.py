"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion (a failed assert is the FAIL line).
"""

import dataclasses
import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    block_relative_errors,
    brute_force_metrics,
    brute_force_neighbors,
    finite_difference_gradient,
)
from strategies import make_gradcheck_case, random_graph_sample, random_valid_log
from veridebate.cli import main
from veridebate.config import PipelineConfig
from veridebate.domain import DebateConfig, DebateRole, DebateStage, Stance, validate_log
from veridebate.engine import log_to_json, run_debate
from veridebate.evaluation import compute_metrics, write_dataset_jsonl
from veridebate.gateway import Gateway, MockBackend
from veridebate.graph import adjacency_mask, edges_for_log
from veridebate.neural import backward, classify, interact
from veridebate.neural.attention import InteractionHead
from veridebate.neural.gat import GatLayer, gat_forward
from veridebate.neural.model import ClassifierHead
from veridebate.pipeline import Pipeline
from veridebate.synthetic import make_synthetic_corpus, write_transcripts

REPO_ROOT = Path(__file__).resolve().parent.parent


def report(criterion: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nPASS {criterion}{suffix}")


def test_criterion_1_reproduction_mode_documented():
    """Full-scale benchmark numbers are not desk-scale reproducible; the
    README must document the non-CI reproduction mode and its expected
    operating band instead."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "Reproduction mode" in readme
    assert "0.78" in readme and "0.81" in readme
    assert "VERIDEBATE_API_KEY" in readme
    assert "--backend remote" in readme or "backend = remote" in readme
    assert "1,258" in readme or "1258" in readme
    report("criterion 1: reproduction mode documented in README")


def test_criterion_2_gradient_oracle():
    start = time.perf_counter()
    worst = 0.0
    worst_block = ""
    for i in range(20):
        model, batch = make_gradcheck_case(seed=1000 + i, heads=1)
        analytic = backward(model, batch)
        numeric = finite_difference_gradient(model, batch, step=1e-4)
        errors = block_relative_errors(model, analytic, numeric)
        for name, err in errors.items():
            assert err < 1e-4, (i, name, err)
            if err > worst:
                worst, worst_block = err, name
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report("criterion 2: gradient oracle",
           f"20 models, worst block {worst_block} rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_normalization_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(77)

    for _ in range(1000):
        n = int(rng.integers(2, 7))
        sample = random_graph_sample(rng, n, 3)
        layer = GatLayer.create(3, 4, rng)
        _, alpha = gat_forward(layer, sample.node_embeddings, sample.adjacency,
                               return_attention=True)
        assert np.all(np.abs(alpha.sum(axis=1) - 1.0) < 1e-6)
        assert not alpha[~sample.adjacency].any()

    head = InteractionHead.create(node_dim=6, news_dim=3, d_p=8, heads=4,
                                  rng=np.random.default_rng(78))
    for _ in range(1000):
        nodes = rng.standard_normal((int(rng.integers(1, 7)), 6))
        _, weights = interact(rng.standard_normal(3), nodes, nodes.mean(axis=0),
                              head, return_weights=True)
        assert np.all(np.abs(weights.sum(axis=1) - 1.0) < 1e-6)

    for _ in range(1000):
        cls = ClassifierHead(weight=rng.standard_normal((2, 5)),
                             bias=rng.standard_normal(2))
        probs = classify(rng.standard_normal(5), cls)
        assert abs(probs.sum() - 1.0) < 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("criterion 3: normalization suite", f"3x1000 inputs, {elapsed:.1f}s")


def test_criterion_4_protocol_suite(news_item, tmp_path):
    start = time.perf_counter()
    gateway = Gateway(MockBackend(), tmp_path)
    log = run_debate(news_item, DebateConfig(), gateway)

    expected = [
        (DebateStage.OPENING, DebateRole.OPENING_SPEAKER, Stance.TRUE, ()),
        (DebateStage.OPENING, DebateRole.OPENING_SPEAKER, Stance.FAKE, ()),
        (DebateStage.CROSS_EXAMINATION, DebateRole.QUESTIONER, Stance.TRUE, (0,)),
        (DebateStage.CROSS_EXAMINATION, DebateRole.QUESTIONER, Stance.FAKE, (1,)),
        (DebateStage.REBUTTAL, DebateRole.REBUTTER, Stance.TRUE, (3,)),
        (DebateStage.REBUTTAL, DebateRole.REBUTTER, Stance.FAKE, (2,)),
        (DebateStage.CLOSING, DebateRole.CLOSING_SPEAKER, Stance.TRUE, ()),
        (DebateStage.CLOSING, DebateRole.CLOSING_SPEAKER, Stance.FAKE, ()),
    ]
    observed = [(t.stage, t.role, t.stance, t.targets) for t in log.turns]
    assert observed == expected
    assert validate_log(log) == []
    rerun = run_debate(news_item, DebateConfig(), gateway)
    assert log_to_json(rerun) == log_to_json(log)

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("criterion 4: protocol suite", f"8-slot sequence exact, {elapsed:.2f}s")


def test_criterion_5_graph_oracle():
    start = time.perf_counter()
    rng = random.Random(123)
    for _ in range(100):
        log = random_valid_log(rng)
        n = len(log.turns)
        edges = edges_for_log(log)
        total_targets = sum(len(t.targets) for t in log.turns)
        assert len(edges) == n + 2 * (n - 1) + 2 * total_targets
        mask = adjacency_mask(edges, n)
        oracle = brute_force_neighbors(edges, n)
        for i in range(n):
            assert set(np.flatnonzero(mask[i]).tolist()) == oracle[i]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("criterion 5: graph oracle", f"100 random logs, {elapsed:.2f}s")


def test_criterion_6_metric_oracle():
    start = time.perf_counter()
    rng = random.Random(321)
    for _ in range(200):
        size = rng.randint(1, 60)
        predictions = [rng.randint(0, 1) for _ in range(size)]
        labels = [rng.randint(0, 1) for _ in range(size)]
        got = compute_metrics(predictions, labels)
        want = brute_force_metrics(predictions, labels)
        assert abs(got.macro_f1 - want["macro_f1"]) < 1e-12
        assert abs(got.accuracy - want["accuracy"]) < 1e-12
        assert abs(got.f1_real - want["f1_real"]) < 1e-12
        assert abs(got.f1_fake - want["f1_fake"]) < 1e-12

    hand = compute_metrics([0, 0, 0, 0], [0, 0, 1, 1])
    assert hand.macro_f1 == pytest.approx(1 / 3, abs=1e-12)

    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    report("criterion 6: metric oracle", f"200 random cases exact, {elapsed:.2f}s")


def test_criterion_7_synthetic_separability(tmp_path):
    start = time.perf_counter()

    # -- stance-signal task through the pipeline + ablation harness -------
    corpus = make_synthetic_corpus(n_train=500, n_test=200, seed=7, task="stance")
    workspace = tmp_path / "ws"
    write_transcripts(corpus, workspace / "transcripts")
    config = PipelineConfig(
        d_h=32, d_r=8, gat_hidden=16, d_p=16, heads=4,
        lr=5e-3, epochs=20, batch_size=32, seed=1,
    )
    pipeline = Pipeline(config, workspace)
    table = pipeline.ablate(corpus.dataset, ("no_analysis",))

    full = table["full"]
    hint_based = table["no_analysis"]
    assert full.accuracy >= 0.95
    assert hint_based.macro_f1 < full.macro_f1

    # -- role-dependent task: the no_roles toggle, same harness ------------
    role_corpus = make_synthetic_corpus(n_train=500, n_test=200, seed=11, task="role")
    role_workspace = tmp_path / "role-ws"
    write_transcripts(role_corpus, role_workspace / "transcripts")
    role_table = Pipeline(dataclasses.replace(config, epochs=30), role_workspace).ablate(
        role_corpus.dataset, ("no_roles",))
    role_full_acc = role_table["full"].accuracy
    role_less_acc = role_table["no_roles"].accuracy

    assert role_full_acc - role_less_acc >= 0.05

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(
        "criterion 7: synthetic separability",
        f"full acc {full.accuracy:.3f}, hint macF1 {hint_based.macro_f1:.3f} < "
        f"full macF1 {full.macro_f1:.3f}; role task {role_full_acc:.3f} vs "
        f"no_roles {role_less_acc:.3f}; {elapsed:.0f}s",
    )


def test_criterion_8_single_key_degeneracy():
    """A one-node graph, as every sample of the no_debate variant is,
    gives the attention one key: its weight is exactly 1, and the
    context does not depend on the news."""
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    head = InteractionHead.create(node_dim=8, news_dim=4, d_p=8, heads=2, rng=rng)
    nodes = rng.standard_normal((6, 8))
    news_a = rng.standard_normal(4)
    news_b = rng.standard_normal(4)
    assert not np.array_equal(news_a, news_b)
    fused_a, weights_a = interact(news_a, nodes[:1], nodes[0], head, return_weights=True)
    fused_b, weights_b = interact(news_b, nodes[:1], nodes[0], head, return_weights=True)
    context_a, context_b = fused_a[8:], fused_b[8:]
    assert np.array_equal(context_a, context_b)
    assert weights_a.shape == weights_b.shape == (2, 1)
    assert np.all(weights_a == 1.0) and np.all(weights_b == 1.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("criterion 8: single-key degeneracy",
           "weights exactly 1, context bitwise identical across distinct news embeddings")


def test_criterion_9_pipeline_determinism(tmp_path):
    corpus = make_synthetic_corpus(n_train=8, n_val=4, n_test=4, seed=3, task="stance")
    dataset_path = tmp_path / "data.jsonl"
    write_dataset_jsonl(corpus.dataset, dataset_path)
    config_path = tmp_path / "cfg.ini"
    config_path.write_text(
        "[embedding]\nd_h = 16\n\n"
        "[model]\nd_r = 4\ngat_hidden = 8\nd_p = 8\nheads = 2\n"
        "epochs = 3\nbatch_size = 4\n"
    )
    blobs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = main([
            "pipeline", "--config", str(config_path), "--dataset", str(dataset_path),
            "--out", str(out), "--seed", "5", "--backend", "mock",
        ])
        assert code == 0
        blobs.append((out / "metrics.json").read_bytes())
    assert blobs[0] == blobs[1]
    metrics = json.loads(blobs[0])
    assert 0.0 <= metrics["macro_f1"] <= 1.0
    report("criterion 9: pipeline determinism", "metrics.json bit-identical")
