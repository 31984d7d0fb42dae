"""The batched model against a literal reference, the module globals
its forward and backward passes call once per layer, and the gradient
buffer a training step writes in place."""

import dataclasses
import importlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    block_relative_errors,
    factored_forward,
    literal_attention_weights,
    reference_forward,
)
from strategies import random_graph_sample
import veridebate
from veridebate.neural import (
    AnalysisModel,
    ModelConfig,
    NumericalFault,
    TrainConfig,
    interact,
    train,
)
from veridebate.neural.attention import InteractionHead
from veridebate.neural.gat import GatLayer
from veridebate.neural.model import RoleTable, loss_and_grad

# import_module: veridebate.neural re-exports a function named ``train``
# over its submodule.
model_module = importlib.import_module("veridebate.neural.model")
train_module = importlib.import_module("veridebate.neural.train")
adam_module = importlib.import_module("veridebate.neural.adam")
gat_module = importlib.import_module("veridebate.neural.gat")
attention_module = importlib.import_module("veridebate.neural.attention")

D_H = 6  # node_dim = 12, a width no other dimension here shares


def small_model(d_h: int = D_H, heads: int = 2, dtype: str = "float64") -> AnalysisModel:
    """Float64 unless asked: the reference comparisons hold to 1e-12."""
    config = ModelConfig(d_h=d_h, d_r=3, gat_hidden=5, d_p=4, heads=heads, seed=2,
                         dtype=dtype)
    return AnalysisModel.create(config)


def mixed_samples(seed: int, counts=(1, 4, 9, 2), d_h: int = D_H):
    rng = np.random.default_rng(seed)
    samples = [random_graph_sample(rng, n, d_h) for n in counts]
    # A news-only sample: one node without a role.
    samples[0] = dataclasses.replace(samples[0], role_ids=np.array([-1], dtype=np.intp))
    return samples


def test_forward_matches_literal_reference():
    model = small_model()
    samples = mixed_samples(2)
    probs, _ = model.forward(samples)
    assert np.abs(probs - reference_forward(model, samples)).max() <= 1e-12


def test_collapsed_blocks_match_the_factored_model():
    # Random factors of the paper's form: the last layer's projection W
    # (node_dim, in_dim) and attention vector a, and graph_proj (d_p,
    # node_dim). The model loaded with them multiplied out computes the
    # factored model's probabilities.
    model = small_model()
    node_dim, in_dim = 2 * D_H, model.gat_layers[-1].score.shape[1]
    rng = np.random.default_rng(52)
    weight = rng.uniform(-0.5, 0.5, (node_dim, in_dim))
    attn = rng.uniform(-0.5, 0.5, 2 * node_dim)
    graph_proj = rng.uniform(-0.5, 0.5, (model.config.d_p, node_dim))
    model.gat_layers[-1].score[...] = attn.reshape(2, node_dim) @ weight
    model.interaction.graph_map[...] = graph_proj @ weight
    samples = mixed_samples(12)
    probs, _ = model.forward(samples)
    expected = factored_forward(model, samples, weight, attn, graph_proj)
    assert np.abs(probs / expected - 1.0).max() <= 1e-12


def test_fresh_model_multiplies_out_the_factored_draws():
    # The factored layout drew the role table, the hidden layer, the
    # last layer's W and a, and graph_proj, in that order, from the
    # model seed; a fresh model is that factored model.
    model = small_model()
    rng = np.random.default_rng(model.config.seed)
    RoleTable.create(D_H, 3, rng)
    GatLayer.create(2 * D_H, 5, rng)
    last = GatLayer.create(5, 2 * D_H, rng)
    graph_proj = InteractionHead.create(2 * D_H, D_H, 4, 2, rng).graph_map
    samples = mixed_samples(22)
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
    model = small_model(heads=heads)
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
def test_one_node_sample_has_attention_weights_of_exactly_one(heads):
    # The first sample is a one-node graph, batched with graphs of 4, 9
    # and 2 nodes: its one real key per head takes all the weight.
    model = small_model(heads=heads)
    _, cache = model.forward(mixed_samples(heads))
    weights = cache["attention"].weights[0]
    assert np.all(weights[:, 0] == 1.0) and not weights[:, 1:].any()


def test_no_cached_array_is_node_dim_wide():
    model = small_model()
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
    model = small_model()
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
    model = small_model()
    calls = count_calls(monkeypatch, train_module, ("adam_step",))
    samples = mixed_samples(2)
    train(model, samples, TrainConfig(epochs=1, batch_size=len(samples)))
    assert len(calls["adam_step"]) == 1


def test_one_train_step_checks_finiteness_once(monkeypatch):
    model = small_model()
    samples = mixed_samples(2)
    calls = count_calls(monkeypatch, adam_module, ("all_finite",))
    calls.update(count_calls(monkeypatch, model_module, ("all_finite",)))
    train(model, samples, TrainConfig(epochs=1, batch_size=len(samples)))
    assert sum(len(c) for c in calls.values()) == 1


def test_non_finite_gradient_in_training_names_blocks():
    model = small_model()
    model.gat_layers[-1].score[0, 0] = np.nan
    before = model.parameter_vector()
    with pytest.raises(NumericalFault, match="gat1.score"):
        train(model, mixed_samples(2), TrainConfig(epochs=1, batch_size=4))
    assert np.array_equal(model.parameter_vector(), before, equal_nan=True)


# d_h = 6 leaves layer 0's d_h + 10 role columns wider than W_0's 2 * d_h
# columns; d_h = 16 fits them, the path default dims take.
@pytest.mark.parametrize("d_h", [6, 16])
def test_out_buffer_is_filled_and_returned(d_h):
    model = small_model(d_h)
    samples = mixed_samples(3, d_h=d_h)
    out = np.full(model.num_params, np.nan)
    loss, grad = loss_and_grad(model, samples, out=out)
    assert grad is out
    fresh_loss, fresh = loss_and_grad(model, samples)
    assert loss == fresh_loss
    assert np.array_equal(out, fresh)


def test_out_buffer_of_wrong_layout_rejected():
    model = small_model()
    with pytest.raises(ValueError, match="contiguous float64"):
        loss_and_grad(model, mixed_samples(3), out=np.empty(2 * model.num_params)[::2])


def test_out_buffer_of_another_dtype_rejected():
    model = small_model(dtype="float32")
    with pytest.raises(ValueError, match="contiguous float32"):
        loss_and_grad(model, mixed_samples(3), out=np.empty(model.num_params))


def floating_arrays(value, path: str):
    """(path, array) for every floating array reachable from ``value``
    through dicts, sequences and dataclass fields."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            yield path, value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from floating_arrays(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from floating_arrays(item, f"{path}[{i}]")
    elif dataclasses.is_dataclass(value):
        yield from floating_arrays(vars(value), f"{path}:{type(value).__name__}")


def recording_arrays(monkeypatch, module, names) -> list:
    """Wrap each named module global so that every floating array it is
    passed or returns is appended, with its path, to the list returned."""
    seen = []
    for name in names:
        original = getattr(module, name)

        def recording(*args, _name=name, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            seen.extend(floating_arrays((args, kwargs, result), _name))
            return result

        monkeypatch.setattr(module, name, recording)
    return seen


class RecordingNumpy:
    """numpy, with every floating array a function call returns appended
    to ``seen``; classes and constants pass through."""

    def __init__(self, seen: list):
        self._seen = seen

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr) or isinstance(attr, type):
            return attr

        def call(*args, **kwargs):
            result = attr(*args, **kwargs)
            self._seen.extend(floating_arrays(result, f"np.{name}"))
            return result

        return call


def recording_numpy(monkeypatch, modules, seen: list) -> None:
    for module in modules:
        monkeypatch.setattr(module, "np", RecordingNumpy(seen))


# d_h = 6 maps the role columns back from a separate buffer; d_h = 16 in place.
@pytest.mark.parametrize("d_h", [6, 16])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_every_array_of_a_pass_has_the_model_dtype(monkeypatch, dtype, d_h):
    """numpy promotes to float64 without a word (a bool sum as a divisor,
    np.where over Python floats, a float64 literal), and a product
    written into the gradient buffer, or added in place, casts back
    without one; so each layer's inputs and outputs and every numpy
    call's result are checked, not only the results."""
    model = small_model(d_h, dtype=dtype)
    seen = recording_arrays(monkeypatch, model_module, (
        "gat_forward_cached", "gat_backward", "interact_cached", "interact_backward",
        "classify", "global_mean_pool"))
    recording_numpy(monkeypatch, (model_module, gat_module, attention_module), seen)
    samples = mixed_samples(5, d_h=d_h)  # float64 rows, of the other width for float32
    _, cache = model.forward(samples)
    grad = model.gradient(cache, np.array([s.label for s in samples]))
    seen += [*floating_arrays(cache, "cache"), ("grad", grad)]
    assert len(seen) > 20
    assert [path for path, array in seen if array.dtype != model.flat.dtype] == []


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_training_step_runs_in_the_model_dtype(monkeypatch, dtype):
    model = small_model(dtype=dtype)
    seen = recording_arrays(monkeypatch, train_module, ("adam_step",))
    recording_numpy(monkeypatch, (train_module, adam_module), seen)
    train(model, mixed_samples(2), TrainConfig(epochs=1), val_samples=mixed_samples(3))
    paths = [path for path, _ in seen]
    assert "adam_step[0][2]:AdamState.scratch" in paths
    assert paths.count("np.empty_like") == 2  # the gradient and the best parameters
    assert [path for path, array in seen if array.dtype != model.flat.dtype] == []


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_saturated_batch_has_an_exactly_zero_gradient(dtype):
    """Each true-class probability rounds to 1, and the wrong class's,
    e^-100, is a subnormal in float32: p - y resolves to 0."""
    model = small_model(dtype=dtype)
    model.classifier.weight[...] = 0.0
    model.classifier.bias[...] = [-50.0, 50.0]
    samples = [dataclasses.replace(s, label=1) for s in mixed_samples(6)]
    probs, cache = model.forward(samples)
    assert np.all(probs[:, 1] == 1.0) and np.all(probs[:, 0] > 0.0)
    assert not model.gradient(cache, np.ones(len(samples), dtype=np.intp)).any()


# Fixed before the first run. float32 carries 24 bits (eps 1.2e-7), and
# these passes chain a few dozen roundings of values near 1; the
# gradient is held to criterion 2's bound, per block relative to its
# largest entry.
FLOAT32_PROBS_BOUND = 1e-5
FLOAT32_GRAD_BLOCK_BOUND = 1e-4


def test_float32_path_tracks_the_float64_path():
    """One set of parameters and inputs, exact in both dtypes, through
    both paths."""
    wide = small_model()
    narrow = small_model(dtype="float32")
    narrow.set_parameter_vector(wide.flat)
    wide.set_parameter_vector(narrow.flat)
    samples = [dataclasses.replace(s, node_embeddings=s.node_embeddings.astype(np.float32),
                                   news_embedding=s.news_embedding.astype(np.float32))
               for s in mixed_samples(32)]
    labels = np.array([s.label for s in samples])
    (p64, c64), (p32, c32) = wide.forward(samples), narrow.forward(samples)
    assert np.abs(p32 - p64).max() <= FLOAT32_PROBS_BOUND
    errors = block_relative_errors(wide, narrow.gradient(c32, labels), wide.gradient(c64, labels))
    assert max(errors.values()) < FLOAT32_GRAD_BLOCK_BOUND, errors


def test_train_passes_one_buffer_to_every_step(monkeypatch):
    model = small_model()
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


# Peak traced allocation of one steady-state step of the default float32
# model on a 32-sample, 8-node batch: 2.7 MB here, 4.6 MB when each step
# builds a fresh flat gradient and fresh block gradients and copies them
# into the buffer it is handed. The bound leaves the headroom of the
# earlier float64 bound (8 MB over 6.3 MB).
STEP_PEAK_BOUND = 3.5e6


def test_steady_state_step_peak_is_bounded():
    model = AnalysisModel.create(ModelConfig())
    rng = np.random.default_rng(0)
    batch = [random_graph_sample(rng, 8, model.config.d_h) for _ in range(32)]
    out = np.empty_like(model.flat)
    loss_and_grad(model, batch, out=out)
    tracemalloc.start()
    try:
        loss_and_grad(model, batch, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < STEP_PEAK_BOUND, peak


@pytest.mark.parametrize("module", ["veridebate.neural", "veridebate.domain"])
def test_neural_loads_no_endpoint_code(module):
    """The classifier depends on the domain and the graph only, and the
    domain on no other module of the package: a fresh interpreter that
    imports either loads no gateway, debate engine, embedding client,
    cache or HTTP module."""
    endpoint = ("veridebate.gateway", "veridebate.engine", "veridebate.encoding",
                "veridebate.packs", "urllib.request")
    code = f"import sys, {module}; print([m for m in {endpoint!r} if m in sys.modules])"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(veridebate.__file__).parents[1]), env.get("PYTHONPATH", "")) if p)
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
