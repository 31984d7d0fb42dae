"""The batched model against a literal reference, the module globals
its forward and backward passes call once per layer, and the gradient
buffer a training step writes in place."""

import dataclasses
import importlib
import tracemalloc

import numpy as np
import pytest

from oracles import factored_forward, literal_attention_weights, reference_forward
from strategies import random_graph_sample
from veridebate.neural import (
    AnalysisModel,
    ModelConfig,
    NumericalFault,
    TrainConfig,
    interact,
    train,
)
from veridebate.encoding import RoleTable
from veridebate.neural.attention import InteractionHead
from veridebate.neural.gat import GatLayer
from veridebate.neural.model import loss_and_grad

# import_module: veridebate.neural re-exports a function named ``train``
# over its submodule.
model_module = importlib.import_module("veridebate.neural.model")
train_module = importlib.import_module("veridebate.neural.train")
adam_module = importlib.import_module("veridebate.neural.adam")

D_H = 6  # node_dim = 12, a width no other dimension here shares


def small_model(mode: str, layers: int, d_h: int = D_H, heads: int = 2) -> AnalysisModel:
    config = ModelConfig(d_h=d_h, d_r=3, gat_hidden=5, gat_layers=layers, d_p=4, heads=heads,
                         interaction_mode=mode, seed=layers)
    return AnalysisModel.create(config)


def mixed_samples(seed: int, counts=(1, 4, 9, 2), d_h: int = D_H):
    rng = np.random.default_rng(seed)
    samples = [random_graph_sample(rng, n, d_h) for n in counts]
    # A news-only sample: one node without a role.
    samples[0] = dataclasses.replace(samples[0], role_ids=np.array([-1], dtype=np.intp))
    return samples


@pytest.mark.parametrize("mode", ["nodes", "pooled"])
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_forward_matches_literal_reference(mode, layers):
    model = small_model(mode, layers)
    samples = mixed_samples(layers)
    probs, _ = model.forward(samples)
    assert np.abs(probs - reference_forward(model, samples)).max() <= 1e-12


@pytest.mark.parametrize("mode", ["nodes", "pooled"])
@pytest.mark.parametrize("layers", [1, 2])
def test_collapsed_blocks_match_the_factored_model(mode, layers):
    # Random factors of the paper's form: the last layer's projection W
    # (node_dim, in_dim) and attention vector a, and graph_proj (d_p,
    # node_dim). The model loaded with them multiplied out computes the
    # factored model's probabilities.
    model = small_model(mode, layers)
    node_dim, in_dim = 2 * D_H, model.gat_layers[-1].score.shape[1]
    rng = np.random.default_rng(50 + layers)
    weight = rng.uniform(-0.5, 0.5, (node_dim, in_dim))
    attn = rng.uniform(-0.5, 0.5, 2 * node_dim)
    graph_proj = rng.uniform(-0.5, 0.5, (model.config.d_p, node_dim))
    model.gat_layers[-1].score[...] = attn.reshape(2, node_dim) @ weight
    model.interaction.graph_map[...] = graph_proj @ weight
    samples = mixed_samples(layers + 10)
    probs, _ = model.forward(samples)
    expected = factored_forward(model, samples, weight, attn, graph_proj)
    assert np.abs(probs / expected - 1.0).max() <= 1e-12


@pytest.mark.parametrize("layers", [1, 2])
def test_fresh_model_multiplies_out_the_factored_draws(layers):
    # The factored layout drew the role table, the hidden layers, the
    # last layer's W and a, and graph_proj, in that order, from the
    # model seed; a fresh model is that factored model.
    model = small_model("nodes", layers)
    rng = np.random.default_rng(model.config.seed)
    RoleTable.create(D_H, 3, rng)
    in_dim = 2 * D_H
    for _ in range(layers - 1):
        in_dim = GatLayer.create(in_dim, 5, rng).out_dim
    last = GatLayer.create(in_dim, 2 * D_H, rng)
    graph_proj = InteractionHead.create(2 * D_H, D_H, 4, 2, rng).graph_map
    samples = mixed_samples(layers + 20)
    expected = factored_forward(model, samples, last.weight, last.attn, graph_proj)
    assert np.abs(model.forward(samples)[0] / expected - 1.0).max() <= 1e-12


def test_default_dims_parameter_layout():
    model = AnalysisModel.create(ModelConfig())
    assert model.num_params == 236_706
    assert [(name, sl.stop - sl.start) for name, sl in model.block_slices()] == [
        ("role_embeddings", 160), ("role_projection", 6_144),
        ("gat0.weight", 98_304), ("gat0.attn", 256), ("gat1.score", 256),
        ("interaction.graph_map", 16_384), ("interaction.news_proj", 49_152),
        ("interaction.query", 16_384), ("interaction.key", 16_384),
        ("interaction.value", 16_384), ("interaction.out", 16_384),
        ("classifier.weight", 512), ("classifier.bias", 2),
    ]


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_attention_weights_match_literal_per_node_keys(heads):
    model = small_model("nodes", layers=2, heads=heads)
    samples = mixed_samples(heads)  # 1, 4, 9 and 2 nodes: three are padded
    _, cache = model.forward(samples)
    att = cache["attention"]
    head = model.interaction
    for b, sample in enumerate(samples):
        k = len(sample.node_embeddings)
        expected = literal_attention_weights(head, sample.news_embedding,
                                             att.sources[b, :k], head.graph_map)
        assert np.abs(att.weights[b, :, :k] - expected).max() <= 1e-12
        assert np.all(att.weights[b, :, k:] == 0.0)
    # The single-graph entry point, over features as wide as graph_map reads.
    rng = np.random.default_rng(heads)
    nodes = rng.standard_normal((5, head.graph_map.shape[1]))
    news = rng.standard_normal(D_H)
    _, weights = interact(news, nodes, nodes.mean(axis=0), head, return_weights=True)
    expected = literal_attention_weights(head, news, nodes, head.graph_map)
    assert np.abs(weights - expected).max() <= 1e-12


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_pooled_attention_weights_are_exactly_one(heads):
    model = small_model("pooled", layers=2, heads=heads)
    _, cache = model.forward(mixed_samples(heads))
    assert cache["attention"].weights.shape == (4, heads, 1)
    assert np.all(cache["attention"].weights == 1.0)
    rng = np.random.default_rng(heads)
    nodes = rng.standard_normal((5, model.interaction.graph_map.shape[1]))
    _, weights = interact(rng.standard_normal(D_H), nodes, nodes.mean(axis=0),
                          model.interaction, mode="pooled", return_weights=True)
    assert np.all(weights == 1.0)


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


def test_one_train_step_checks_finiteness_once(monkeypatch):
    model = small_model("nodes", layers=2)
    samples = mixed_samples(2)
    calls = count_calls(monkeypatch, adam_module, ("all_finite",))
    calls.update(count_calls(monkeypatch, model_module, ("all_finite",)))
    train(model, samples, TrainConfig(epochs=1, batch_size=len(samples)))
    assert sum(len(c) for c in calls.values()) == 1


def test_non_finite_gradient_in_training_names_blocks():
    model = small_model("nodes", layers=2)
    model.gat_layers[-1].score[0, 0] = np.nan
    before = model.parameter_vector()
    with pytest.raises(NumericalFault, match="gat1.score"):
        train(model, mixed_samples(2), TrainConfig(epochs=1, batch_size=4))
    assert np.array_equal(model.parameter_vector(), before, equal_nan=True)


# d_h = 6 leaves layer 0's d_h + 10 role columns wider than W_0's 2 * d_h
# columns; d_h = 16 fits them, the path default dims take.
@pytest.mark.parametrize("d_h", [6, 16])
@pytest.mark.parametrize("mode", ["nodes", "pooled"])
@pytest.mark.parametrize("layers", [1, 2])
def test_out_buffer_is_filled_and_returned(mode, layers, d_h):
    model = small_model(mode, layers, d_h)
    samples = mixed_samples(3, d_h=d_h)
    out = np.full(model.num_params, np.nan)
    loss, grad = loss_and_grad(model, samples, out=out)
    assert grad is out
    fresh_loss, fresh = loss_and_grad(model, samples)
    assert loss == fresh_loss
    assert np.array_equal(out, fresh)


def test_out_buffer_of_wrong_layout_rejected():
    model = small_model("nodes", layers=2)
    with pytest.raises(ValueError, match="contiguous float64"):
        loss_and_grad(model, mixed_samples(3), out=np.empty(2 * model.num_params)[::2])


def test_train_passes_one_buffer_to_every_step(monkeypatch):
    model = small_model("nodes", layers=2)
    filled, stepped = [], []
    fill, step = train_module.loss_and_grad, train_module.adam_step

    def recording_fill(model_, batch, out=None):
        filled.append(out)
        return fill(model_, batch, out=out)

    def recording_step(params, grads, state):
        stepped.append(grads)
        return step(params, grads, state)

    monkeypatch.setattr(train_module, "loss_and_grad", recording_fill)
    monkeypatch.setattr(train_module, "adam_step", recording_step)
    train(model, mixed_samples(4), TrainConfig(epochs=2, batch_size=2, seed=1))
    assert len(filled) == len(stepped) == 4
    assert isinstance(filled[0], np.ndarray)
    assert all(buffer is filled[0] for buffer in filled + stepped)


# Peak traced allocation of one steady-state step at default dims on a
# 32-sample, 8-node batch: 6.3 MB here, 13.0 MB when each step built a
# fresh flat gradient and full-size block gradients.
STEP_PEAK_BOUND = 8e6


def test_steady_state_step_peak_is_bounded():
    model = AnalysisModel.create(ModelConfig())
    rng = np.random.default_rng(0)
    batch = [random_graph_sample(rng, 8, model.config.d_h) for _ in range(32)]
    out = np.empty(model.num_params)
    loss_and_grad(model, batch, out=out)
    tracemalloc.start()
    try:
        loss_and_grad(model, batch, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < STEP_PEAK_BOUND, peak
