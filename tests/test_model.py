"""The batched model against a literal reference, and the module globals
its forward and backward passes call once per layer."""

import dataclasses
import importlib

import numpy as np
import pytest

from oracles import reference_forward
from strategies import random_graph_sample
from veridebate.neural import AnalysisModel, ModelConfig, TrainConfig, train
from veridebate.neural.model import loss_and_grad

# import_module: veridebate.neural re-exports a function named ``train``
# over its submodule.
model_module = importlib.import_module("veridebate.neural.model")
train_module = importlib.import_module("veridebate.neural.train")

D_H = 6  # node_dim = 12, a width no other dimension here shares


def small_model(mode: str, layers: int) -> AnalysisModel:
    config = ModelConfig(d_h=D_H, d_r=3, gat_hidden=5, gat_layers=layers, d_p=4, heads=2,
                         interaction_mode=mode, seed=layers)
    return AnalysisModel.create(config)


def mixed_samples(seed: int, counts=(1, 4, 9, 2)):
    rng = np.random.default_rng(seed)
    samples = [random_graph_sample(rng, n, D_H) for n in counts]
    # A news-only sample: one node without a role.
    samples[0] = dataclasses.replace(samples[0], role_ids=np.array([-1], dtype=np.intp))
    return samples


@pytest.mark.parametrize("mode", ["nodes", "pooled"])
@pytest.mark.parametrize("layers", [1, 2])
def test_forward_matches_literal_reference(mode, layers):
    model = small_model(mode, layers)
    samples = mixed_samples(layers)
    probs, _ = model.forward(samples)
    assert np.abs(probs - reference_forward(model, samples)).max() <= 1e-12


@pytest.mark.parametrize("mode", ["nodes", "pooled"])
@pytest.mark.parametrize("layers", [1, 2])
def test_no_cached_array_is_node_dim_wide(mode, layers):
    model = small_model(mode, layers)
    _, cache = model.forward(mixed_samples(0))
    for part in [*cache["gat"], cache["attention"]]:
        for name, value in vars(part).items():
            if isinstance(value, np.ndarray) and value.ndim == 3:
                assert value.shape[2] != 2 * D_H, name


def count_calls(monkeypatch, module, names):
    """Wrap each named module global in a recorder of its first argument."""
    calls = {name: [] for name in names}
    for name in names:
        original = getattr(module, name)

        def recording(*args, _name=name, _original=original, **kwargs):
            calls[_name].append(args[0])
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
    return calls


def test_loss_and_grad_calls_each_hook_once_per_layer(monkeypatch):
    model = small_model("nodes", layers=2)
    calls = count_calls(monkeypatch, model_module, (
        "gat_forward_cached", "gat_backward", "interact_cached", "interact_backward",
        "classify"))
    loss_and_grad(model, mixed_samples(1))
    layer_ids = [[id(layer) for layer in calls[name]]
                 for name in ("gat_forward_cached", "gat_backward")]
    first, last = (id(layer) for layer in model.gat_layers)
    assert layer_ids == [[first, last], [last, first]]
    assert [len(calls[name]) for name in ("interact_cached", "interact_backward", "classify")] \
        == [1, 1, 1]


def test_one_train_step_calls_adam_once(monkeypatch):
    model = small_model("nodes", layers=2)
    calls = count_calls(monkeypatch, train_module, ("adam_step",))
    samples = mixed_samples(2)
    train(model, samples, TrainConfig(epochs=1, batch_size=len(samples)))
    assert len(calls["adam_step"]) == 1
