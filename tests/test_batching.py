"""The padded dense batch: a sample's probabilities and gradient do not
depend on what it is batched with."""

import dataclasses

import numpy as np

from conftest import tiny_model
from strategies import random_graph_sample
from veridebate.neural import backward, predict_proba
from veridebate.neural.model import collate

NODE_COUNTS = (1, 3, 8, 24, 3, 1)


def mixed_samples(seed: int):
    rng = np.random.default_rng(seed)
    samples = [random_graph_sample(rng, n, 4) for n in NODE_COUNTS]
    # A news-only sample: one node without a role.
    samples[0] = dataclasses.replace(samples[0], role_ids=np.array([-1], dtype=np.intp))
    return samples


def test_collate_pads_to_largest_graph():
    samples = mixed_samples(0)
    batch = collate(samples, "float64")
    n = max(NODE_COUNTS)
    assert batch.nodes.shape == (len(samples), n, 4)
    assert batch.news.shape == (len(samples), 4)
    for b, (s, k) in enumerate(zip(samples, NODE_COUNTS)):
        assert batch.mask[b].sum() == k and batch.mask[b, :k].all()
        assert np.array_equal(batch.nodes[b, :k], s.node_embeddings)
        assert not batch.nodes[b, k:].any()
        assert np.array_equal(batch.role_ids[b, :k], s.role_ids)
        assert (batch.role_ids[b, k:] == -1).all()
        assert np.array_equal(batch.adjacency[b, :k, :k], s.adjacency)
        assert not batch.adjacency[b, :k, k:].any()
        # Padding nodes see only themselves.
        assert np.array_equal(batch.adjacency[b, k:, :], np.eye(n, dtype=bool)[k:])


def test_batched_probs_match_single_samples():
    model = tiny_model(heads=2, seed=3)
    samples = mixed_samples(1)
    batched = predict_proba(model, samples)
    single = np.stack([model.forward([s])[0][0] for s in samples])
    assert np.abs(batched - single).max() <= 1e-12


def test_batch_gradient_is_mean_of_single_gradients():
    model = tiny_model(heads=2, seed=4)
    samples = mixed_samples(2)
    batched = backward(model, samples)
    mean = np.mean([backward(model, [s]) for s in samples], axis=0)
    assert np.abs(batched - mean).max() <= 1e-12
