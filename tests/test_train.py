import json
import math
import re

import numpy as np
import pytest

from strategies import random_graph_sample
from veridebate.encoding import HashEmbeddingProvider
from veridebate.neural import (
    AnalysisModel,
    ModelConfig,
    TrainConfig,
    accuracy,
    load_model,
    make_sample,
    predict_proba,
    save_model,
    train,
)
from veridebate.synthetic import make_synthetic_corpus


def small_config(seed=0):
    return ModelConfig(d_h=4, d_r=2, gat_hidden=5, gat_layers=2, d_p=4, heads=2,
                       seed=seed)


# The embedder every checkpoint here is written for.
PROVIDER = "hash-d4-s0"


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

    def test_freeze_blocks_keep_parameters_fixed(self):
        model = AnalysisModel.create(small_config(seed=9))
        frozen_before = model.role_table.embeddings.copy()
        other_before = model.classifier.weight.copy()
        train(
            model, random_samples(12, seed=10),
            TrainConfig(lr=1e-2, epochs=2, seed=11,
                        freeze_blocks=("role_embeddings", "role_projection")),
        )
        assert np.array_equal(model.role_table.embeddings, frozen_before)
        assert not np.array_equal(model.classifier.weight, other_before)

    def test_unknown_freeze_block_rejected(self):
        model = AnalysisModel.create(small_config())
        with pytest.raises(ValueError, match="unknown parameter blocks"):
            train(model, random_samples(4), TrainConfig(freeze_blocks=("nope",)))

    def test_loss_decreases_on_separable_mini_task(self):
        corpus = make_synthetic_corpus(n_train=60, n_test=20, seed=3, task="stance")
        provider = HashEmbeddingProvider(dim=16, seed=0)

        def samples(split):
            out = []
            for item in corpus.dataset.split(split):
                log = corpus.logs[item.id]
                embs = [provider.embed_text(t.text) for t in log.turns]
                out.append(make_sample(log, embs, provider.embed_text(item.content),
                                       item.label))
            return out

        model = AnalysisModel.create(
            ModelConfig(d_h=16, d_r=4, gat_hidden=8, gat_layers=2, d_p=8, heads=2, seed=1)
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
