import dataclasses
import importlib
import json
import math
import re

import numpy as np
import pytest

from conftest import factored_param_count, write_factored_checkpoint, write_float64_checkpoint
from strategies import random_graph_sample
from veridebate.config import PipelineConfig
from veridebate.neural import (
    AnalysisModel,
    ModelConfig,
    TrainConfig,
    accuracy,
    load_model,
    predict_proba,
    save_model,
    train,
)
from veridebate.pipeline import Pipeline
from veridebate.synthetic import make_synthetic_corpus


def small_config(seed=0, dtype=ModelConfig.dtype):
    return ModelConfig(d_h=4, d_r=2, gat_hidden=5, d_p=4, heads=2,
                       seed=seed, dtype=dtype)


# The embedder every checkpoint here is written for.
PROVIDER = "hash-d4-s0"


def layered_param_count(config: ModelConfig, layers: int) -> int:
    """Parameters of a model with ``layers - 1`` hidden GAT layers before
    the collapsed last one, as checkpoints held when the depth was a
    setting: 874 for a two-layer model at d_h 16, 842 for one layer."""
    in_dim = 2 * config.d_h
    count = 10 * config.d_r + config.d_h * config.d_r
    for _ in range(layers - 1):
        count += config.gat_hidden * in_dim + 2 * config.gat_hidden
        in_dim = config.gat_hidden
    count += 2 * in_dim + config.d_p * (in_dim + config.d_h + 4 * config.d_p)
    return count + 2 * 2 * config.d_p + 2


def random_samples(n, seed=0):
    rng = np.random.default_rng(seed)
    return [random_graph_sample(rng, int(rng.integers(3, 7)), 4) for _ in range(n)]


class TestTrainLoop:
    def test_zero_lr_leaves_parameters_unchanged(self):
        model = AnalysisModel.create(small_config())
        before = model.parameter_vector()
        result = train(model, random_samples(12), TrainConfig(lr=0.0, epochs=4, seed=1))
        assert np.array_equal(model.parameter_vector(), before)
        # Constant up to summation-order rounding (shuffling regroups
        # the same per-sample losses each epoch).
        history = np.array(result.loss_history)
        assert history.max() - history.min() < 1e-12

    def test_same_seed_bit_identical_history(self):
        samples = random_samples(16, seed=2)
        histories = []
        for _ in range(2):
            model = AnalysisModel.create(small_config(seed=3))
            result = train(model, samples, TrainConfig(lr=1e-3, epochs=3, seed=4))
            histories.append(result.loss_history)
        assert histories[0] == histories[1]

    def test_different_seed_changes_history(self):
        samples = random_samples(16, seed=2)
        results = []
        for seed in (1, 2):
            model = AnalysisModel.create(small_config(seed=3))
            # batch_size < len(samples), so the seed changes which samples
            # share a batch, not only their order inside one.
            results.append(train(model, samples,
                                 TrainConfig(lr=1e-3, epochs=3, batch_size=4, seed=seed)))
        assert results[0].loss_history != results[1].loss_history

    def test_empty_training_set_rejected(self):
        model = AnalysisModel.create(small_config())
        with pytest.raises(ValueError, match="no training items"):
            train(model, [], TrainConfig())

    def test_best_validation_checkpoint_restored(self):
        train_samples = random_samples(20, seed=5)
        val_samples = random_samples(10, seed=6)
        model = AnalysisModel.create(small_config(seed=7))
        result = train(model, train_samples, TrainConfig(lr=5e-3, epochs=5, seed=8),
                       val_samples=val_samples)
        assert result.best_epoch is not None
        assert len(result.val_accuracy_history) == 5
        restored = accuracy(model, val_samples)
        assert restored == max(result.val_accuracy_history)
        assert result.val_accuracy_history[result.best_epoch] == restored

    @pytest.mark.parametrize("with_val", [True, False], ids=["val", "no_val"])
    def test_val_accuracy_goes_through_accuracy(self, monkeypatch, with_val):
        """Each epoch's val accuracy is one call of the module's
        ``accuracy``, so a caller that rebinds it sees every one; with no
        val split it is never called."""
        calls = []

        def counting(model, samples):
            calls.append(len(samples))
            return accuracy(model, samples)

        monkeypatch.setattr(importlib.import_module("veridebate.neural.train"), "accuracy",
                            counting)
        val_samples = random_samples(5, seed=6) if with_val else None
        model = AnalysisModel.create(small_config(seed=7))
        result = train(model, random_samples(8, seed=5), TrainConfig(epochs=3, seed=8),
                       val_samples=val_samples)
        assert calls == ([5] * 3 if with_val else [])
        assert len(result.val_accuracy_history) == len(calls)

    def test_unlabeled_val_sample_rejected_naming_it(self):
        val_samples = random_samples(3, seed=9)
        val_samples[1] = dataclasses.replace(val_samples[1], label=None)
        model = AnalysisModel.create(small_config())
        with pytest.raises(ValueError, match=f"sample {val_samples[1].news_id!r} has no label"):
            train(model, random_samples(4), TrainConfig(epochs=2), val_samples=val_samples)

    def test_loss_decreases_on_separable_mini_task(self, tmp_path):
        corpus = make_synthetic_corpus(n_train=60, n_test=20, seed=3, task="stance")
        built = Pipeline(PipelineConfig(d_h=16), tmp_path).build_samples(corpus.dataset,
                                                                         corpus.logs)

        def samples(split):
            return [built[item.id] for item in corpus.dataset.split(split)]

        model = AnalysisModel.create(
            ModelConfig(d_h=16, d_r=4, gat_hidden=8, d_p=8, heads=2, seed=1)
        )
        result = train(model, samples("train"),
                       TrainConfig(lr=5e-3, epochs=10, batch_size=16, seed=1))
        assert result.loss_history[-1] < result.loss_history[0]
        assert accuracy(model, samples("test")) >= 0.9


class TestCheckpoints:
    def test_roundtrip_preserves_predictions(self, tmp_path):
        model = AnalysisModel.create(small_config(seed=12))
        samples = random_samples(6, seed=13)
        train(model, samples, TrainConfig(lr=1e-3, epochs=2, seed=14))
        path = tmp_path / "model.bin"
        save_model(path, model, PROVIDER)
        loaded = load_model(path, PROVIDER)
        assert np.array_equal(model.parameter_vector(), loaded.parameter_vector())
        assert np.array_equal(predict_proba(model, samples),
                              predict_proba(loaded, samples))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_roundtrip_is_bit_exact_in_the_model_dtype(self, tmp_path, dtype):
        model = AnalysisModel.create(small_config(seed=15, dtype=dtype))
        train(model, random_samples(6, seed=16), TrainConfig(lr=1e-3, epochs=2, seed=17))
        path = tmp_path / "model.bin"
        save_model(path, model, PROVIDER)
        header, payload = path.read_bytes().split(b"\n", 1)
        assert json.loads(header)["dtype"] == dtype
        assert payload == model.flat.astype(np.dtype(dtype).newbyteorder("<")).tobytes()
        loaded = load_model(path, PROVIDER)
        assert loaded.config == model.config and loaded.flat.dtype == np.dtype(dtype)
        assert loaded.flat.tobytes() == model.flat.tobytes()

    def test_header_records_label_convention(self, tmp_path):
        model = AnalysisModel.create(small_config())
        path = tmp_path / "model.bin"
        save_model(path, model, PROVIDER)
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert header["labels"] == {"real": 0, "fake": 1}
        assert header["param_count"] == model.num_params
        assert header["provider_id"] == PROVIDER

    def test_other_embedder_rejected_naming_both_ids(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(path, AnalysisModel.create(small_config()), PROVIDER)
        with pytest.raises(ValueError) as excinfo:
            load_model(path, "hash-d4-s1")
        assert all(part in str(excinfo.value) for part in (str(path), PROVIDER, "hash-d4-s1"))

    def test_factored_layout_rejected_naming_both_versions(self, tmp_path):
        config = ModelConfig()
        assert factored_param_count(config) == 418_210
        path = tmp_path / "factored.bin"
        write_factored_checkpoint(path, config, PROVIDER)
        with pytest.raises(ValueError) as excinfo:
            load_model(path, PROVIDER)
        message = str(excinfo.value)
        assert str(path) in message
        assert "version 1" in message and "version 3" in message

    def test_version_2_file_rejected_naming_both_versions(self, tmp_path):
        config = small_config()
        path = tmp_path / "v2.bin"
        write_float64_checkpoint(path, config, PROVIDER, 2,
                                 AnalysisModel.create(config).num_params)
        with pytest.raises(ValueError) as excinfo:
            load_model(path, PROVIDER)
        message = str(excinfo.value)
        assert str(path) in message
        assert "version 2" in message and "version 3" in message

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_header_with_a_layer_count_loads_only_at_two(self, tmp_path, layers):
        """A version-3 header written when the depth was a setting carries
        gat_layers. The key is ignored, so a two-layer file loads as it
        was; a one- or three-layer payload fails the parameter count."""
        config = ModelConfig(d_h=16, d_r=4, gat_hidden=8, d_p=8, heads=2)
        model = AnalysisModel.create(config)
        path = tmp_path / "model.bin"
        save_model(path, model, PROVIDER)
        header, payload = path.read_bytes().split(b"\n", 1)
        count = layered_param_count(config, layers)
        if layers != 2:
            payload = np.zeros(count, dtype="<f4").tobytes()
        fields = {**json.loads(header), "gat_layers": layers, "param_count": count}
        path.write_bytes(json.dumps(fields, sort_keys=True).encode() + b"\n" + payload)
        if layers == 2:
            assert load_model(path, PROVIDER).flat.tobytes() == model.flat.tobytes()
            return
        with pytest.raises(ValueError) as excinfo:
            load_model(path, PROVIDER)
        message = str(excinfo.value)
        assert str(path) in message
        assert f"holds {count} parameters" in message and f"model has {model.num_params}" in message

    @pytest.mark.parametrize("mode", ["nodes", "pooled"])
    def test_header_with_an_interaction_mode_loads_only_at_nodes(self, tmp_path, mode):
        """A version-3 header written when the attention's key source was a
        setting carries interaction_mode. A nodes file loads as it was; a
        pooled one holds as many parameters, but attended over the pooled
        debate vector, which this program does not compute, and is
        refused."""
        model = AnalysisModel.create(small_config(seed=18))
        path = tmp_path / "model.bin"
        save_model(path, model, PROVIDER)
        header, payload = path.read_bytes().split(b"\n", 1)
        fields = {**json.loads(header), "interaction_mode": mode}
        path.write_bytes(json.dumps(fields, sort_keys=True).encode() + b"\n" + payload)
        if mode == "nodes":
            assert load_model(path, PROVIDER).flat.tobytes() == model.flat.tobytes()
            return
        with pytest.raises(ValueError) as excinfo:
            load_model(path, PROVIDER)
        message = str(excinfo.value)
        assert str(path) in message and "interaction mode 'pooled'" in message

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_payload_not_whole_values_of_header_dtype_rejected(self, tmp_path, dtype):
        path = tmp_path / "model.bin"
        save_model(path, AnalysisModel.create(small_config(dtype=dtype)), PROVIDER)
        header, payload = path.read_bytes().split(b"\n", 1)
        # Whole values of the other dtype's width when that is narrower.
        path.write_bytes(header + b"\n" + payload[:-np.dtype(dtype).itemsize // 2])
        with pytest.raises(ValueError, match=f"not a whole number of {dtype} values") as excinfo:
            load_model(path, PROVIDER)
        assert str(path) in str(excinfo.value)

    def test_unknown_dtype_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(path, AnalysisModel.create(small_config()), PROVIDER)
        header, payload = path.read_bytes().split(b"\n", 1)
        fields = json.loads(header)
        fields["dtype"] = "float16"
        path.write_bytes(json.dumps(fields).encode() + b"\n" + payload)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_model(path, PROVIDER)

    @pytest.mark.parametrize("version", [2, "3", None])
    def test_other_version_rejected(self, tmp_path, version):
        path = tmp_path / "model.bin"
        save_model(path, AnalysisModel.create(small_config()), PROVIDER)
        header, payload = path.read_bytes().split(b"\n", 1)
        fields = json.loads(header)
        assert fields["version"] == 3
        fields["version"] = version
        path.write_bytes(json.dumps(fields).encode() + b"\n" + payload)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_model(path, PROVIDER)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b'{"format": "something-else"}\n')
        with pytest.raises(ValueError):
            load_model(path, PROVIDER)


def _dropping(field):
    def drop(header: bytes, payload: bytes) -> bytes:
        fields = json.loads(header)
        del fields[field]
        return json.dumps(fields).encode() + b"\n" + payload

    return drop


def _nan_first(header: bytes, payload: bytes) -> bytes:
    return header + b"\n" + np.float64(np.nan).astype("<f8").tobytes() + payload[8:]


# Each damages a valid checkpoint, given as its header line and payload.
CHECKPOINT_FAULTS = {
    "header_not_json": lambda header, payload: b"{not json\n" + payload,
    "header_lacks_field": _dropping("d_h"),
    "payload_not_whole_floats": lambda header, payload: header + b"\n" + payload[:-3],
    "wrong_parameter_count": lambda header, payload: header + b"\n" + payload[:-8],
    "non_finite_parameter": _nan_first,
}


@pytest.mark.parametrize("fault", CHECKPOINT_FAULTS)
def test_damaged_checkpoint_rejected_with_its_name(tmp_path, fault):
    path = tmp_path / "model.bin"
    save_model(path, AnalysisModel.create(small_config()), PROVIDER)
    header, payload = path.read_bytes().split(b"\n", 1)
    path.write_bytes(CHECKPOINT_FAULTS[fault](header, payload))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_model(path, PROVIDER)


def test_header_without_provider_id_is_a_missing_field(tmp_path):
    path = tmp_path / "model.bin"
    save_model(path, AnalysisModel.create(small_config()), PROVIDER)
    path.write_bytes(_dropping("provider_id")(*path.read_bytes().split(b"\n", 1)))
    with pytest.raises(ValueError, match=re.escape(f"{path}: bad checkpoint: "
                                                   "missing header field 'provider_id'")):
        load_model(path, PROVIDER)


@pytest.mark.parametrize("values", [dict(lr=math.nan), dict(lr=math.inf), dict(lr=-1e-3),
                                    dict(epochs=0), dict(batch_size=0)],
                         ids=("lr_nan", "lr_inf", "lr_negative", "epochs", "batch_size"))
def test_bad_train_config_rejected(values):
    with pytest.raises(ValueError):
        TrainConfig(**values)
