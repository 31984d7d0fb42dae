"""Analytic gradients against the finite-difference oracle.

The oracle (tests/oracles.py) was written first and only ever calls the
forward pass; expected values here come from it, never from the
backward path under test.
"""

import numpy as np
import pytest

from conftest import tiny_model
from oracles import block_relative_errors, finite_difference_gradient
from strategies import make_gradcheck_case, random_graph_sample
from veridebate.neural import NumericalFault, backward, batch_loss

TOLERANCE = 1e-4


@pytest.mark.parametrize("mode", ["nodes", "pooled"])
# Three layers run a hidden layer's input gradient, which layer 0 never needs.
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_gradient_matches_finite_differences(mode, layers):
    model, batch = make_gradcheck_case(seed=layers * 100 + (mode == "pooled"),
                                       mode=mode, layers=layers)
    analytic = backward(model, batch)
    numeric = finite_difference_gradient(model, batch, step=1e-4)
    errors = block_relative_errors(model, analytic, numeric)
    assert max(errors.values()) < TOLERANCE, errors


@pytest.mark.parametrize("layers", [1, 2])
def test_gradient_matches_finite_differences_with_role_columns_in_place(layers):
    # d_h = 10: layer 0's applied map is d_h + 10 roles = 20 wide, as wide
    # as W_0, so its gradient is written into W_0's own block, as at
    # default dims. (The other cases here, at d_h = 4, take the scratch
    # path.)
    model, batch = make_gradcheck_case(seed=30 + layers, layers=layers, d_h=10)
    analytic = backward(model, batch)
    numeric = finite_difference_gradient(model, batch, step=1e-4)
    errors = block_relative_errors(model, analytic, numeric)
    assert max(errors.values()) < TOLERANCE, errors


def test_gradient_check_with_multiple_heads():
    model, batch = make_gradcheck_case(seed=9, mode="nodes", layers=2, heads=2)
    analytic = backward(model, batch)
    numeric = finite_difference_gradient(model, batch, step=1e-4)
    errors = block_relative_errors(model, analytic, numeric)
    assert max(errors.values()) < TOLERANCE, errors


@pytest.mark.parametrize("mode", ["nodes", "pooled"])
@pytest.mark.parametrize("heads", [2, 4])
def test_gradient_matches_finite_differences_per_head(mode, heads):
    # Graphs of 3, 7 and 5 nodes: the shorter two are padded, so their
    # padding keys are masked out of every head's softmax.
    model, batch = make_gradcheck_case(seed=40 + heads + (mode == "pooled"), mode=mode,
                                       heads=heads, node_counts=(3, 7, 5))
    analytic = backward(model, batch)
    numeric = finite_difference_gradient(model, batch, step=1e-4)
    errors = block_relative_errors(model, analytic, numeric)
    assert max(errors.values()) < TOLERANCE, errors


def test_pooled_mode_news_projection_gradient_is_zero():
    # Attention over a single key ignores the query entirely, so the
    # news projection cannot receive gradient in pooled mode.
    model, batch = make_gradcheck_case(seed=21, mode="pooled", layers=1)
    grad = backward(model, batch)
    block = dict(model.block_slices())["interaction.news_proj"]
    assert np.array_equal(grad[block], np.zeros(block.stop - block.start))


def test_saturated_correct_prediction_has_tiny_classifier_gradient():
    model = tiny_model()
    rng = np.random.default_rng(3)
    sample = random_graph_sample(rng, 4, 4, label=0)
    _, cache = model.forward([sample])
    fused = cache["fused"][0]
    # Point the classifier so hard at the true class that the softmax
    # saturates; the loss sits on its flat optimum.
    direction = fused / (fused @ fused)
    model.classifier.weight[...] = 60.0 * np.stack([direction, -direction])
    model.classifier.bias[...] = 0.0
    grad = backward(model, [sample])
    slices = dict(model.block_slices())
    for name in ("classifier.weight", "classifier.bias"):
        block = grad[slices[name]]
        assert np.abs(block).max() < 1e-8


def test_duplicated_batch_keeps_mean_gradient():
    model, batch = make_gradcheck_case(seed=5, mode="nodes", layers=2)
    once = backward(model, batch)
    twice = backward(model, batch + batch)
    assert np.allclose(once, twice, rtol=1e-12, atol=1e-15)


def test_backward_is_deterministic():
    model, batch = make_gradcheck_case(seed=6)
    assert np.array_equal(backward(model, batch), backward(model, batch))


def test_non_finite_gradient_names_blocks():
    model, batch = make_gradcheck_case(seed=7)
    model.role_table.projection[0, 0] = np.nan
    with pytest.raises(NumericalFault) as excinfo:
        backward(model, batch)
    assert "role" in str(excinfo.value) or "gat" in str(excinfo.value)


def test_batch_loss_requires_labels():
    import dataclasses

    model, batch = make_gradcheck_case(seed=8)
    unlabeled = dataclasses.replace(batch[0], label=None)
    with pytest.raises(ValueError):
        batch_loss(model, [unlabeled])


def test_empty_batch_rejected():
    model, _ = make_gradcheck_case(seed=10)
    with pytest.raises(ValueError):
        backward(model, [])
