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


def test_gradient_matches_finite_differences():
    model, batch = make_gradcheck_case(seed=200)
    analytic = backward(model, batch)
    numeric = finite_difference_gradient(model, batch, step=1e-4)
    errors = block_relative_errors(model, analytic, numeric)
    assert max(errors.values()) < TOLERANCE, errors


def test_gradient_matches_finite_differences_with_role_columns_in_place():
    # d_h = 10: layer 0's applied map is d_h + 10 roles = 20 wide, as wide
    # as W_0, so its gradient is written into W_0's own block, as at
    # default dims. (The other cases here, at d_h = 4, take the scratch
    # path.)
    model, batch = make_gradcheck_case(seed=32, d_h=10)
    analytic = backward(model, batch)
    numeric = finite_difference_gradient(model, batch, step=1e-4)
    errors = block_relative_errors(model, analytic, numeric)
    assert max(errors.values()) < TOLERANCE, errors


def test_gradient_check_with_multiple_heads():
    model, batch = make_gradcheck_case(seed=9, heads=2)
    analytic = backward(model, batch)
    numeric = finite_difference_gradient(model, batch, step=1e-4)
    errors = block_relative_errors(model, analytic, numeric)
    assert max(errors.values()) < TOLERANCE, errors


@pytest.mark.parametrize("heads", [2, 4])
def test_gradient_matches_finite_differences_per_head(heads):
    # Graphs of 3, 7 and 5 nodes: the shorter two are padded, so their
    # padding keys are masked out of every head's softmax.
    model, batch = make_gradcheck_case(seed=40 + heads, heads=heads, node_counts=(3, 7, 5))
    analytic = backward(model, batch)
    numeric = finite_difference_gradient(model, batch, step=1e-4)
    errors = block_relative_errors(model, analytic, numeric)
    assert max(errors.values()) < TOLERANCE, errors


def test_one_node_graphs_give_the_query_path_no_gradient():
    # One key per head has weight exactly 1 whatever its score, so the
    # news projection, query and key get a gradient of exactly 0, as in
    # every batch of the no_debate variant; the values still learn.
    model = tiny_model(heads=2, seed=21)
    rng = np.random.default_rng(21)
    grad = backward(model, [random_graph_sample(rng, 1, 4, label=b % 2) for b in range(3)])
    blocks = dict(model.block_slices())
    for name in ("news_proj", "query", "key"):
        assert not grad[blocks[f"interaction.{name}"]].any(), name
    assert grad[blocks["interaction.value"]].any()


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
    model, batch = make_gradcheck_case(seed=5)
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
