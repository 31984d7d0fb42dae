"""Whole-file outputs: a write that fails midway leaves the old file as
it was and no temp file behind."""

import builtins
import io
import os

import pytest

from conftest import tiny_model
from veridebate.cli import main
from veridebate.config import PipelineConfig
from veridebate.evaluation import compute_metrics, write_dataset_jsonl, write_predictions_jsonl
from veridebate.files import write_json
from veridebate.neural import save_model
from veridebate.pipeline import Pipeline
from veridebate.synthetic import make_synthetic_corpus, write_transcripts

OLD = b"the previous contents\n"
SMALL = dict(d_h=16, d_r=4, gat_hidden=8, d_p=8, heads=2, epochs=2, batch_size=4)


class TornFile:
    """A file whose first write puts half its data on disk, then fails."""

    def __init__(self, inner):
        self.inner = inner

    def write(self, data):
        self.inner.write(data[: len(data) // 2])
        self.inner.flush()
        raise OSError("injected failure midway through a write")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.inner.close()

    def __getattr__(self, name):
        return getattr(self.inner, name)


def tear_writes_to(monkeypatch, name: str) -> None:
    """Every file opened for writing whose name holds ``name`` tears."""
    real_open = io.open

    def tearing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if isinstance(file, (str, os.PathLike)) and name in os.path.basename(file) \
                and set(mode) & set("wxa"):
            return TornFile(fh)
        return fh

    monkeypatch.setattr(builtins, "open", tearing_open)
    monkeypatch.setattr(io, "open", tearing_open)


def small_corpus():
    return make_synthetic_corpus(n_train=8, n_val=2, n_test=4, seed=3, task="stance")


def write_checkpoint(tmp_path):
    save_model(tmp_path / "model.bin", tiny_model(), "hash-d4-s0")


def write_predictions(tmp_path):
    write_predictions_jsonl(tmp_path / "predictions.jsonl",
                            [{"id": "a", "label": 0, "prediction": 1, "p_fake": 0.9}])


def write_explanations(tmp_path):
    Pipeline(PipelineConfig(**SMALL), tmp_path).run(small_corpus().dataset)


def write_metrics(tmp_path):
    write_json(tmp_path / "metrics.json", compute_metrics([0, 1], [0, 0]).to_dict())


def write_ablation(tmp_path):
    dataset_path, config_path = tmp_path / "data.jsonl", tmp_path / "cfg.ini"
    write_dataset_jsonl(small_corpus().dataset, dataset_path)
    config_path.write_text("[embedding]\nd_h = 16\n[model]\n"
                           + "".join(f"{k} = {v}\n" for k, v in SMALL.items() if k != "d_h"))
    if main(["ablate", "--config", str(config_path), "--dataset", str(dataset_path),
             "--out", str(tmp_path), "--toggles", "no_analysis"]) != 0:
        raise OSError("ablate exited 1")


def write_transcript(tmp_path):
    write_transcripts(small_corpus(), tmp_path)


# Writer, and the file name it writes under tmp_path.
WRITERS = {
    "checkpoint": (write_checkpoint, "model.bin"),
    "predictions": (write_predictions, "predictions.jsonl"),
    "explanations": (write_explanations, "explanations.jsonl"),
    "metrics": (write_metrics, "metrics.json"),
    "ablation": (write_ablation, "ablation.json"),
    "transcripts": (write_transcript, "syn-00000.json"),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_write_failing_midway_keeps_old_file(tmp_path, monkeypatch, writer):
    write, name = WRITERS[writer]
    target = tmp_path / name
    target.write_bytes(OLD)
    tear_writes_to(monkeypatch, name)
    with pytest.raises(OSError, match="injected failure|ablate exited 1"):
        write(tmp_path)
    monkeypatch.undo()
    assert target.read_bytes() == OLD
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]


@pytest.mark.parametrize("stage", ["transcripts", "reports"])
def test_stage_write_failing_midway_leaves_no_part(tmp_path, monkeypatch, stage):
    """A transcript or report write that fails part-way fails the stage
    and leaves neither a partial ``<id>.json`` nor a temp file."""
    dataset = small_corpus().dataset
    pipeline = Pipeline(PipelineConfig(**SMALL), tmp_path)
    news_id = dataset.items[0].id
    if stage == "reports":
        logs, _ = pipeline.run_debates(dataset)
    tear_writes_to(monkeypatch, f"{news_id}.json")
    with pytest.raises(OSError, match="injected failure"):
        if stage == "transcripts":
            pipeline.run_debates(dataset)
        else:
            pipeline.run_synthesis(logs)
    monkeypatch.undo()
    assert not (tmp_path / stage / f"{news_id}.json").exists()
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]
