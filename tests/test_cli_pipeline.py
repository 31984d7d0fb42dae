import dataclasses
import hashlib
import importlib
import json
import logging
import shutil
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (CountingBackend, CountingProvider, PoisonedProvider,
                      write_factored_checkpoint)
from veridebate.cli import main, resolve_config, build_parser
from veridebate.config import PipelineConfig, load_config
from veridebate import files as files_module, gateway as gateway_module
from veridebate import packs as packs_module, pipeline as pipeline_module
from veridebate.encoding import CachedEmbedder, RemoteEmbeddingProvider, text_key
from veridebate.evaluation import Dataset, compute_metrics, load_dataset, write_dataset_jsonl
from veridebate.domain import DebateConfig
from veridebate.neural import AnalysisModel, ModelConfig, TrainConfig, load_model
from veridebate.neural import checkpoint as checkpoint_module
from veridebate.neural.model import loss_and_grad
from veridebate.gateway import Gateway, MockBackend, RetryPolicy, TransportError
from veridebate.packs import PackStore
from veridebate.pipeline import (ABLATION_TOGGLES, Pipeline, StageError, build_embedder,
                                 build_gateway)
from veridebate.synthetic import make_synthetic_corpus

SMALL_CONFIG = """
[embedding]
d_h = 16

[model]
d_r = 4
gat_hidden = 8
d_p = 8
heads = 2
epochs = 3
batch_size = 4
"""


@pytest.fixture
def small_setup(tmp_path):
    corpus = make_synthetic_corpus(n_train=8, n_val=4, n_test=4, seed=3, task="stance")
    dataset_path = tmp_path / "data.jsonl"
    write_dataset_jsonl(corpus.dataset, dataset_path)
    config_path = tmp_path / "cfg.ini"
    config_path.write_text(SMALL_CONFIG)
    return tmp_path, dataset_path, config_path


# Values only a check at load rejects: the gateway's pacing and pool
# size, the engine's max_tokens and temperature, the model's heads, which
# must divide d_p = 128, the training settings, the seed of the
# model's and the trainer's generators, and gat_layers and
# interaction_mode, keys the model no longer has: its depth is fixed, and
# its attention always reads the per-node debate features; and
# agents_per_team, a key the debate no longer has: its speaking order is
# fixed.
BAD_STAGE_CONFIGS = ("[gateway]\nrequests_per_minute = -5\n",
                     "[gateway]\nrequests_per_minute = inf\n",
                     "[gateway]\nmax_concurrency = 0\n",
                     "[debate]\nmax_tokens = 0\n", "[debate]\ntemperature = nan\n",
                     "[debate]\ntemperature = inf\n", "[model]\nheads = 3\n",
                     "[model]\nlr = nan\n", "[model]\nlr = 0\n",
                     "[model]\nepochs = 0\n", "[model]\nbatch_size = 0\n",
                     "[paths]\nseed = -1\n", "[model]\ngat_layers = 2\n",
                     "[model]\ninteraction_mode = nodes\n", "[debate]\nagents_per_team = 2\n")
BAD_STAGE_IDS = ("rpm_negative", "rpm_inf", "max_concurrency", "max_tokens", "temperature_nan",
                 "temperature_inf", "heads", "lr_nan", "lr_zero", "epochs", "batch_size",
                 "seed_negative", "gat_layers", "interaction_mode", "agents_per_team")


README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def unlabel_one(dataset_path: Path, split: str) -> str:
    """Set the label of the first ``split`` item of a dataset file to
    null, which the CLI's lenient load keeps; returns its id."""
    records = [json.loads(line) for line in dataset_path.read_text().splitlines()]
    record = next(r for r in records if r["split"] == split)
    record["label"] = None
    dataset_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return record["id"]


def fail_one_synthesis(monkeypatch, dataset_path: Path) -> str:
    """Make the synthesis of the dataset's first test item fail; returns
    its id."""
    failed = load_dataset(dataset_path).split("test")[0].id
    synthesize = pipeline_module.synthesize

    def failing(log, *args):
        if log.news_id == failed:
            raise TransportError("unreachable")
        return synthesize(log, *args)

    monkeypatch.setattr(pipeline_module, "synthesize", failing)
    return failed


class TestConfig:
    def test_defaults(self):
        config = load_config(None)
        assert config.backend == "mock"
        assert config.d_h == 384

    def test_file_values_applied(self, small_setup):
        _, _, config_path = small_setup
        config = load_config(config_path)
        assert config.d_h == 16
        assert config.epochs == 3

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[model]\nwidth = 4\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[mystery]\nx = 1\n")
        with pytest.raises(ValueError, match="unknown config section"):
            load_config(path)

    def test_flags_override_file(self, small_setup):
        _, dataset_path, config_path = small_setup
        config_path.write_text(SMALL_CONFIG + "\n[gateway]\nbackend = remote\n")
        args = build_parser().parse_args(
            ["pipeline", "--config", str(config_path), "--dataset", str(dataset_path),
             "--seed", "42", "--backend", "mock"]
        )
        config = resolve_config(args)
        assert config.seed == 42
        assert config.backend == "mock"
        assert config.d_h == 16  # file value survives where no flag given

    def test_readme_ini_example_is_the_defaults(self, tmp_path):
        """The INI block of README's CLI section names real keys with the
        values PipelineConfig defaults to."""
        cli = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        (block,) = [b for b in cli.split("```")[1::2] if b.lstrip().startswith("[")]
        sections = [line for line in block.splitlines() if line.startswith("[")]
        assert sections == ["[gateway]", "[debate]", "[embedding]", "[model]"]
        path = tmp_path / "readme.ini"
        path.write_text(block)
        assert load_config(path) == PipelineConfig()

    def test_stage_defaults_are_stated_once(self):
        """Each stage-config field PipelineConfig repeats has the same
        default in both, and the only one it lacks is the model dtype: a
        setting removed from one class but not the other shows here."""
        ours = {f.name: f.default for f in dataclasses.fields(PipelineConfig)}
        lacking = []
        for cls in (DebateConfig, ModelConfig, TrainConfig):
            for f in dataclasses.fields(cls):
                if f.name in ours:
                    assert ours[f.name] == f.default, (cls.__name__, f.name)
                else:
                    lacking.append(f"{cls.__name__}.{f.name}")
        assert lacking == ["ModelConfig.dtype"]

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(backend="quantum")

    @pytest.mark.parametrize("body", BAD_STAGE_CONFIGS, ids=BAD_STAGE_IDS)
    def test_bad_stage_value_rejected_at_load(self, tmp_path, body):
        path = tmp_path / "bad.ini"
        path.write_text(body)
        with pytest.raises(ValueError):
            load_config(path)

    @pytest.mark.parametrize("body", BAD_STAGE_CONFIGS, ids=BAD_STAGE_IDS)
    def test_bad_stage_value_stops_cli_before_any_stage(self, small_setup, body,
                                                          monkeypatch):
        tmp_path, dataset_path, _ = small_setup
        monkeypatch.setattr(MockBackend, "complete", ExplodingBackend.complete)
        path = tmp_path / "bad.ini"
        path.write_text(body)
        code = run_cli("pipeline", "--config", path, "--dataset", dataset_path,
                       "--out", tmp_path / "ws")
        assert code == 1
        assert not (tmp_path / "ws").exists()

    def test_negative_seed_flag_stops_cli_before_any_stage(self, small_setup, caplog):
        tmp_path, dataset_path, config_path = small_setup
        code = run_cli("pipeline", "--config", config_path, "--dataset", dataset_path,
                       "--out", tmp_path / "ws", "--seed", "-1")
        assert code == 1
        assert "seed must be >= 0, got -1" in caplog.text
        assert not (tmp_path / "ws").exists()

    @pytest.mark.parametrize("section, key", [("embedding", "d_h"), ("model", "d_r"),
                                              ("model", "gat_hidden"), ("model", "d_p"),
                                              ("model", "heads")])
    def test_zero_model_dimension_stops_cli_before_any_stage(self, small_setup, section, key,
                                                             caplog):
        tmp_path, dataset_path, _ = small_setup
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = 0\n")
        code = run_cli("pipeline", "--config", path, "--dataset", dataset_path,
                       "--out", tmp_path / "ws")
        assert code == 1
        assert f"{key} must be >= 1, got 0" in caplog.text
        assert not (tmp_path / "ws").exists()

    @pytest.mark.parametrize("body", ["backend = mock\n",
                                      "[gateway]\nbackend = mock\nbackend = mock\n"],
                             ids=["no_section", "duplicate_key"])
    def test_malformed_ini_stops_cli_before_any_stage(self, small_setup, body, caplog):
        tmp_path, dataset_path, _ = small_setup
        path = tmp_path / "bad.ini"
        path.write_text(body)
        code = run_cli("pipeline", "--config", path, "--dataset", dataset_path,
                       "--out", tmp_path / "ws")
        assert code == 1
        assert str(path) in caplog.text
        assert not (tmp_path / "ws").exists()

    def test_boolean_and_string_keys_read_from_file(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[debate]\nlanguage = cn\n[paths]\nstrict = yes\n")
        config = load_config(path)
        assert (config.strict, config.language) == (True, "cn")

    def test_unreadable_boolean_stops_cli_before_any_stage(self, small_setup, caplog):
        tmp_path, dataset_path, _ = small_setup
        path = tmp_path / "bad.ini"
        path.write_text("[paths]\nstrict = maybe\n")
        code = run_cli("pipeline", "--config", path, "--dataset", dataset_path,
                       "--out", tmp_path / "ws")
        assert code == 1
        assert "not a boolean: 'maybe'" in caplog.text
        assert not (tmp_path / "ws").exists()

    def test_missing_dataset_exits_nonzero(self, tmp_path, caplog):
        code = run_cli("pipeline", "--dataset", tmp_path / "missing.jsonl",
                       "--out", tmp_path / "ws")
        assert code == 1
        assert "dataset file not found" in caplog.text


class TestDebateCommand:
    def test_writes_one_transcript_per_item(self, small_setup, capsys):
        tmp_path, dataset_path, config_path = small_setup
        out = tmp_path / "ws"
        code = run_cli("debate", "--config", config_path, "--dataset", dataset_path,
                       "--out", out, "--seed", "5")
        assert code == 0
        transcripts = sorted((out / "transcripts").glob("*.json"))
        assert len(transcripts) == 16
        assert "16 generated" in capsys.readouterr().out

    def test_rerun_reuses_all_transcripts(self, small_setup, capsys):
        tmp_path, dataset_path, config_path = small_setup
        out = tmp_path / "ws"
        run_cli("debate", "--config", config_path, "--dataset", dataset_path,
                "--out", out, "--seed", "5")
        capsys.readouterr()
        code = run_cli("debate", "--config", config_path, "--dataset", dataset_path,
                       "--out", out, "--seed", "5")
        assert code == 0
        assert "0 generated, 16 reused" in capsys.readouterr().out

    def test_resume_issues_no_gateway_calls(self, small_setup, fresh_cache):
        tmp_path, dataset_path, config_path = small_setup
        dataset = load_dataset(dataset_path)
        config = load_config(config_path)
        backend = CountingBackend()
        workspace = tmp_path / "ws"
        pipeline = Pipeline(config, workspace, gateway=Gateway(backend, fresh_cache()))
        pipeline.run_debates(dataset)
        first = backend.calls
        assert first == 16 * 8
        pipeline2 = Pipeline(config, workspace, gateway=Gateway(backend, fresh_cache()))
        _, report = pipeline2.run_debates(dataset)
        assert backend.calls == first
        assert report.skipped == 16

    def test_transcripts_deterministic_across_workspaces(self, small_setup):
        tmp_path, dataset_path, config_path = small_setup
        for name in ("a", "b"):
            run_cli("debate", "--config", config_path, "--dataset", dataset_path,
                    "--out", tmp_path / name, "--seed", "5")
        for path_a in sorted((tmp_path / "a" / "transcripts").glob("*.json")):
            path_b = tmp_path / "b" / "transcripts" / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes()

    def test_unwritable_workspace_fails(self, small_setup):
        tmp_path, dataset_path, config_path = small_setup
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = run_cli("debate", "--config", config_path, "--dataset", dataset_path,
                       "--out", blocker / "ws", "--seed", "5")
        assert code == 1

    def test_concurrent_debates_match_sequential(self, small_setup):
        tmp_path, dataset_path, config_path = small_setup
        dataset = load_dataset(dataset_path)
        sequential = load_config(config_path)
        concurrent = load_config(config_path)
        concurrent.max_concurrency = 4
        for config, name in ((sequential, "seq"), (concurrent, "par")):
            pipeline = Pipeline(config, tmp_path / name)
            pipeline.run_synthesis(pipeline.run_debates(dataset)[0])
        for stage in ("transcripts", "reports"):
            paths = sorted((tmp_path / "seq" / stage).glob("*.json"))
            assert len(paths) == len(dataset.items)
            for path in paths:
                twin = tmp_path / "par" / stage / path.name
                assert path.read_bytes() == twin.read_bytes()

    def test_per_item_failures_respect_strict_flag(self, small_setup):
        tmp_path, dataset_path, config_path = small_setup

        class FailingBackend:
            backend_id = "failing"

            def complete(self, request):
                from veridebate.gateway import TransportError

                raise TransportError("unreachable")

        from veridebate.gateway import RetryPolicy

        dataset = load_dataset(dataset_path)
        config = load_config(config_path)
        gateway = Gateway(FailingBackend(), tmp_path / "gen", retry=RetryPolicy(max_attempts=1))

        lenient = Pipeline(config, tmp_path / "lenient", gateway=gateway)
        _, report = lenient.run_debates(dataset)
        assert len(report.failures) == 16  # lenient mode counts the failures and goes on

        config.strict = True
        strict = Pipeline(config, tmp_path / "strict", gateway=gateway)
        with pytest.raises(StageError, match=r"stage debate failed: 16 item\(s\) failed"):
            strict.run_debates(dataset)


class TestPipelineCommand:
    def test_end_to_end_metrics_schema(self, small_setup, capsys):
        tmp_path, dataset_path, config_path = small_setup
        out = tmp_path / "ws"
        code = run_cli("pipeline", "--config", config_path, "--dataset", dataset_path,
                       "--out", out, "--seed", "5")
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert 0.0 <= metrics["macro_f1"] <= 1.0
        assert set(metrics) >= {"macro_f1", "accuracy", "f1_real", "f1_fake", "confusion"}
        predictions = (out / "predictions.jsonl").read_text().strip().splitlines()
        assert len(predictions) == 4  # test split size
        explanations = [json.loads(l) for l in
                        (out / "explanations.jsonl").read_text().splitlines()]
        assert all(e["transcript"].startswith("transcripts/") for e in explanations)
        assert all(e["report"].startswith("reports/") for e in explanations)

    def test_bundle_names_no_missing_report(self, small_setup, monkeypatch):
        """A lenient run whose synthesis fails for one item writes a null
        report for it in the explanation bundle, not a file that does not
        exist; every other entry names its report file."""
        tmp_path, dataset_path, config_path = small_setup
        failed = fail_one_synthesis(monkeypatch, dataset_path)
        out = tmp_path / "ws"
        assert run_cli("pipeline", "--config", config_path, "--dataset", dataset_path,
                       "--out", out, "--seed", "5") == 0
        reports = {e["id"]: e["report"] for e in
                   map(json.loads, (out / "explanations.jsonl").read_text().splitlines())}
        assert reports.pop(failed) is None
        assert not (out / "reports" / f"{failed}.json").exists()
        assert len(reports) == 3
        assert all((out / report).is_file() for report in reports.values())

    def test_failed_regeneration_leaves_no_unusable_report(self, small_setup, monkeypatch):
        """A rerun that finds a test item's report unusable and then fails
        to synthesize it removes the file, so the bundle names no report
        for the item."""
        tmp_path, dataset_path, config_path = small_setup
        common = ("--config", config_path, "--dataset", dataset_path, "--out", tmp_path / "ws",
                  "--seed", "5")
        assert run_cli("pipeline", *common) == 0
        failed = fail_one_synthesis(monkeypatch, dataset_path)
        unusable = tmp_path / "ws" / "reports" / f"{failed}.json"
        unusable.write_text("{not json")
        assert run_cli("pipeline", *common) == 0
        assert not unusable.exists()
        reports = {e["id"]: e["report"] for e in map(
            json.loads, (tmp_path / "ws" / "explanations.jsonl").read_text().splitlines())}
        assert reports[failed] is None

    def test_missing_train_split_fails(self, tmp_path, capsys):
        corpus = make_synthetic_corpus(n_train=0, n_test=4, seed=1, task="stance")
        dataset_path = tmp_path / "test_only.jsonl"
        write_dataset_jsonl(corpus.dataset, dataset_path)
        config_path = tmp_path / "cfg.ini"
        config_path.write_text(SMALL_CONFIG)
        code = run_cli("pipeline", "--config", config_path, "--dataset", dataset_path,
                       "--out", tmp_path / "ws", "--seed", "5")
        assert code == 1

    def test_seeded_runs_write_the_same_bytes(self, small_setup):
        """Two seeded runs into fresh workspaces write the same files, byte
        for byte; packs, named uniquely per writer, are compared one to one
        within each cache directory."""
        tmp_path, dataset_path, config_path = small_setup
        config_path.write_text("[gateway]\nmax_concurrency = 1\n" + SMALL_CONFIG)

        def contents(workspace):
            files, packs = {}, {}
            for path in sorted(workspace.rglob("*")):
                if path.suffix == ".pack":
                    packs.setdefault(path.parent.relative_to(workspace), []).append(
                        path.read_bytes())
                elif path.is_file():
                    files[path.relative_to(workspace)] = path.read_bytes()
            return files, {folder: sorted(blobs) for folder, blobs in packs.items()}

        runs = []
        for name in ("first", "second"):
            assert run_cli("pipeline", "--config", config_path, "--dataset", dataset_path,
                           "--out", tmp_path / name, "--seed", "5") == 0
            runs.append(contents(tmp_path / name))
        (files, packs), (other_files, other_packs) = runs
        assert set(packs) == {Path("cache/gen/mock"), Path("cache/emb/hash-d16-s0")}
        assert len(files) == 2 * 16 + 4
        assert files == other_files
        assert packs == other_packs

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_training_exits_1_naming_blocks(self, small_setup, caplog):
        tmp_path, dataset_path, config_path = small_setup
        config_path.write_text(SMALL_CONFIG + "lr = 1e300\n")
        code = run_cli("pipeline", "--config", config_path, "--dataset", dataset_path,
                       "--out", tmp_path / "ws", "--seed", "5")
        assert code == 1
        assert "stage train failed: non-finite gradient in parameter blocks" in caplog.text
        assert "classifier.weight" in caplog.text
        assert not (tmp_path / "ws" / "checkpoints").exists()

    def test_unlabeled_val_item_exits_1_naming_it(self, small_setup, caplog, monkeypatch):
        """A lenient load keeps an item whose label is null. As a val item
        it stops the train stage before the first training step; it must
        not read as a wrong prediction at every epoch and so pin the
        parameters to epoch 0's."""
        tmp_path, dataset_path, config_path = small_setup
        unlabeled = unlabel_one(dataset_path, "val")
        steps = []
        train_module = importlib.import_module("veridebate.neural.train")
        step = train_module.loss_and_grad
        monkeypatch.setattr(train_module, "loss_and_grad",
                            lambda *args, **kw: steps.append(1) or step(*args, **kw))
        code = run_cli("pipeline", "--config", config_path, "--dataset", dataset_path,
                       "--out", tmp_path / "ws", "--seed", "5")
        assert code == 1
        assert f"stage train failed: sample {unlabeled!r} has no label" in caplog.text
        assert steps == []
        assert not (tmp_path / "ws" / "checkpoints").exists()

    @pytest.mark.parametrize("command", ["pipeline", "ablate"])
    def test_unlabeled_test_item_exits_1_before_any_stage(self, small_setup, caplog, command):
        """A run that scores the test split refuses an unlabeled test item
        by name before its first stage: it debates, trains and writes
        nothing, rather than failing at the metrics with no item named."""
        tmp_path, dataset_path, config_path = small_setup
        unlabeled = unlabel_one(dataset_path, "test")
        code = run_cli(command, "--config", config_path, "--dataset", dataset_path,
                       "--out", tmp_path / "ws", "--seed", "5")
        assert code == 1
        assert f"test item {unlabeled!r} has no label" in caplog.text
        assert list((tmp_path / "ws").iterdir()) == []

    def test_predict_accepts_an_unlabeled_test_item(self, small_setup):
        tmp_path, dataset_path, config_path = small_setup
        unlabeled = unlabel_one(dataset_path, "test")
        common = ("--config", config_path, "--dataset", dataset_path, "--out", tmp_path / "ws",
                  "--seed", "5")
        assert run_cli("train", *common) == 0
        assert run_cli("predict", *common) == 0
        rows = [json.loads(line)
                for line in (tmp_path / "ws" / "predictions.jsonl").read_text().splitlines()]
        assert [row["label"] for row in rows if row["id"] == unlabeled] == [None]

    def test_diverging_training_warns_nothing(self, small_setup):
        """The NumericalFault naming the blocks is a diverging run's one
        report: numpy's overflow warnings before it are not shown."""
        tmp_path, dataset_path, config_path = small_setup
        config_path.write_text(SMALL_CONFIG + "lr = 1e300\n")
        pipeline = Pipeline(load_config(config_path), tmp_path / "ws")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(StageError, match="non-finite gradient in parameter blocks"):
                pipeline.run(load_dataset(dataset_path))
        assert [str(w.message) for w in caught] == []

    def test_train_predict_evaluate_flow(self, small_setup, capsys):
        tmp_path, dataset_path, config_path = small_setup
        out = tmp_path / "ws"
        common = ("--config", config_path, "--dataset", dataset_path, "--out", out,
                  "--seed", "5")
        assert run_cli("train", *common) == 0
        assert (out / "checkpoints" / "model.bin").exists()
        assert run_cli("predict", *common) == 0
        assert (out / "predictions.jsonl").exists()
        # No synthesize ran, so the bundle names no report.
        explanations = [json.loads(line)
                        for line in (out / "explanations.jsonl").read_text().splitlines()]
        assert [e["report"] for e in explanations] == [None] * 4
        assert run_cli("evaluate", *common) == 0
        assert (out / "metrics.json").exists()

    @pytest.fixture
    def evaluated(self, small_setup):
        """A workspace after train, predict and evaluate: the CLI
        arguments, the workspace and its metrics.json bytes."""
        tmp_path, dataset_path, config_path = small_setup
        out = tmp_path / "ws"
        common = ("--config", config_path, "--dataset", dataset_path, "--out", out,
                  "--seed", "5")
        for command in ("train", "predict", "evaluate"):
            assert run_cli(command, *common) == 0
        return common, out, (out / "metrics.json").read_bytes()

    def test_evaluate_rejects_truncated_predictions(self, evaluated, caplog):
        common, out, metrics = evaluated
        predictions = out / "predictions.jsonl"
        lines = predictions.read_text().splitlines(keepends=True)
        predictions.write_text("".join(lines[:-1]))
        assert run_cli("evaluate", *common) == 1
        assert "row ids do not match" in caplog.text
        assert (out / "metrics.json").read_bytes() == metrics

    @pytest.mark.parametrize("damage", [
        lambda row: json.dumps({k: v for k, v in row.items() if k != "id"}),
        lambda row: json.dumps({k: v for k, v in row.items() if k != "prediction"}),
        lambda row: json.dumps(list(row.values())),
        lambda row: "{not json",
    ], ids=["no_id", "no_prediction", "not_an_object", "not_json"])
    def test_evaluate_names_a_malformed_row(self, evaluated, damage, caplog):
        common, out, metrics = evaluated
        predictions = out / "predictions.jsonl"
        lines = predictions.read_text().splitlines()
        lines[1] = damage(json.loads(lines[1]))
        predictions.write_text("\n".join(lines) + "\n")
        assert run_cli("evaluate", *common) == 1
        assert f"{predictions}: line 2" in caplog.text
        assert (out / "metrics.json").read_bytes() == metrics

    def test_evaluate_names_an_unlabeled_test_item(self, small_setup, evaluated, caplog):
        common, out, metrics = evaluated
        unlabeled = unlabel_one(small_setup[1], "test")
        (out / "predictions.jsonl").write_text("not read\n")
        assert run_cli("evaluate", *common) == 1
        assert f"test item {unlabeled!r} has no label" in caplog.text
        assert (out / "metrics.json").read_bytes() == metrics

    def test_evaluate_scores_against_dataset_labels(self, evaluated):
        common, out, metrics = evaluated
        predictions = out / "predictions.jsonl"
        rows = [json.loads(line) for line in predictions.read_text().splitlines()]
        for row in rows:
            row["label"] = 1 - row["label"]
        predictions.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert run_cli("evaluate", *common) == 0
        assert (out / "metrics.json").read_bytes() == metrics

    def test_escaping_id_writes_nothing_outside_the_workspace(self, small_setup):
        tmp_path, dataset_path, config_path = small_setup
        rows = dataset_path.read_text().splitlines(keepends=True)
        escaping = json.loads(rows[0])
        escaping["id"] = "../escape"
        dataset_path.write_text(json.dumps(escaping) + "\n" + "".join(rows[1:]))
        out = tmp_path / "ws"
        assert run_cli("debate", "--config", config_path, "--dataset", dataset_path,
                       "--out", out, "--seed", "5") == 0
        assert not (out / "escape.json").exists()
        assert len(list((out / "transcripts").iterdir())) == len(rows) - 1

    def test_stage_commands_reproduce_pipeline_bytes(self, tmp_path):
        corpus = make_synthetic_corpus(n_train=24, n_val=6, n_test=12, seed=5, task="stance")
        dataset_path = tmp_path / "data.jsonl"
        write_dataset_jsonl(corpus.dataset, dataset_path)
        config_path = tmp_path / "cfg.ini"
        config_path.write_text(SMALL_CONFIG)
        common = ("--config", config_path, "--dataset", dataset_path, "--seed", "5")
        for command in ("debate", "synthesize", "train", "predict", "evaluate"):
            assert run_cli(command, *common, "--out", tmp_path / "stages") == 0
        assert run_cli("pipeline", *common, "--out", tmp_path / "whole") == 0
        per_item = [path.relative_to(tmp_path / "whole").as_posix()
                    for stage in ("transcripts", "reports")
                    for path in sorted((tmp_path / "whole" / stage).iterdir())]
        assert len(per_item) == 2 * len(corpus.dataset.items)
        for name in ("metrics.json", "predictions.jsonl", "explanations.jsonl",
                     "checkpoints/model.bin", *per_item):
            staged = (tmp_path / "stages" / name).read_bytes()
            assert staged == (tmp_path / "whole" / name).read_bytes(), name

    def test_predict_rejects_non_finite_checkpoint(self, small_setup, caplog):
        tmp_path, dataset_path, config_path = small_setup
        out = tmp_path / "ws"
        common = ("--config", config_path, "--dataset", dataset_path, "--out", out,
                  "--seed", "5")
        assert run_cli("train", *common) == 0
        checkpoint = out / "checkpoints" / "model.bin"
        header, payload = checkpoint.read_bytes().split(b"\n", 1)
        checkpoint.write_bytes(header + b"\n" + b"\xff" * 8 + payload[8:])  # a NaN
        assert run_cli("predict", *common) == 1
        assert str(checkpoint) in caplog.text
        assert not (out / "predictions.jsonl").exists()

    def test_predict_rejects_checkpoint_of_another_embedder(self, small_setup, caplog):
        tmp_path, dataset_path, config_path = small_setup
        out = tmp_path / "ws"
        common = ("--dataset", dataset_path, "--out", out, "--seed", "5")
        assert run_cli("train", "--config", config_path, *common) == 0
        other = tmp_path / "other.ini"
        other.write_text(SMALL_CONFIG.replace("d_h = 16", "d_h = 16\nembed_seed = 1"))
        assert run_cli("predict", "--config", other, *common) == 1
        checkpoint = out / "checkpoints" / "model.bin"
        for part in (str(checkpoint), "'hash-d16-s0'", "'hash-d16-s1'"):
            assert part in caplog.text
        assert not (out / "predictions.jsonl").exists()

    def test_predict_rejects_factored_layout_checkpoint(self, small_setup, caplog):
        tmp_path, dataset_path, config_path = small_setup
        out = tmp_path / "ws"
        common = ("--config", config_path, "--dataset", dataset_path, "--out", out,
                  "--seed", "5")
        assert run_cli("train", *common) == 0
        checkpoint = out / "checkpoints" / "model.bin"
        header = json.loads(checkpoint.read_bytes().split(b"\n", 1)[0])
        config = ModelConfig(**{name: header[name] for name in ModelConfig.__dataclass_fields__})
        write_factored_checkpoint(checkpoint, config, header["provider_id"])
        assert run_cli("predict", *common) == 1
        for part in (str(checkpoint), "version 1", "version 3"):
            assert part in caplog.text
        assert not (out / "predictions.jsonl").exists()

    def test_predict_without_checkpoint_exits(self, small_setup):
        tmp_path, dataset_path, config_path = small_setup
        with pytest.raises(SystemExit):
            run_cli("predict", "--config", config_path, "--dataset", dataset_path,
                    "--out", tmp_path / "fresh", "--seed", "5")
        assert not (tmp_path / "fresh").exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_reading_command_without_out_creates_nothing(self, small_setup, monkeypatch,
                                                          command):
        """Without --out, predict and evaluate exit 1 naming the missing
        workspace and leave no timestamped workspace under runs/."""
        tmp_path, dataset_path, config_path = small_setup
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit, match=f"{command} reads an existing workspace"):
            run_cli(command, "--config", config_path, "--dataset", dataset_path, "--seed", "5")
        assert not (tmp_path / "runs").exists()


class TestAblateCommand:
    def test_ablation_table_written(self, small_setup):
        tmp_path, dataset_path, config_path = small_setup
        out = tmp_path / "ws"
        code = run_cli("ablate", "--config", config_path, "--dataset", dataset_path,
                       "--out", out, "--seed", "5", "--toggles", "no_debate")
        assert code == 0
        table = json.loads((out / "ablation.json").read_text())
        assert set(table) == {"full", "no_debate"}

    def test_invalid_toggle_exits_nonzero(self, small_setup):
        """A refused toggle list exits 1 before the workspace is created."""
        tmp_path, dataset_path, config_path = small_setup
        code = run_cli("ablate", "--config", config_path, "--dataset", dataset_path,
                       "--out", tmp_path / "ws", "--seed", "5", "--toggles", "no_magic")
        assert code == 1
        assert not (tmp_path / "ws").exists()

    def test_repeated_toggle_exits_nonzero(self, small_setup, caplog):
        tmp_path, dataset_path, config_path = small_setup
        code = run_cli("ablate", "--config", config_path, "--dataset", dataset_path,
                       "--out", tmp_path / "ws", "--seed", "5", "--toggles", "no_roles,no_roles")
        assert code == 1
        assert "repeated ablation toggles ['no_roles']" in caplog.text
        assert not (tmp_path / "ws").exists()


# A transcript's first turn with one field set to a value no decoder
# accepts.
TURN_FAULTS = {
    "unknown_stance": ("stance", "maybe"),
    "unknown_role": ("role", "moderator"),
    "unknown_stage": ("stage", "intermission"),
    "non_string_stage": ("stage", 2),
    "float_turn_index": ("turn_index", 0.0),
}


def corrupt(path, fault: str, other) -> None:
    """Overwrite an artifact: cut it short, replace it with one that
    parses but is invalid, copy another item's file over it, or give a
    report's verdict hint or a transcript's first turn a value no
    decoder accepts, write the first turn targets as floats, or give the
    first rebuttal turn the role no stage speaks."""
    text = path.read_text(encoding="utf-8")
    if fault == "truncated":
        path.write_text(text[: len(text) // 2], encoding="utf-8")
    elif fault == "invalid":
        record = json.loads(text)
        if "turns" in record:
            record["turns"] = []
        else:
            record["text"] = ""
        path.write_text(json.dumps(record), encoding="utf-8")
    elif fault == "unknown_hint":
        record = json.loads(text)
        record["verdict_hint"] = "leans_sideways"
        path.write_text(json.dumps(record), encoding="utf-8")
    elif fault in TURN_FAULTS:
        record = json.loads(text)
        key, value = TURN_FAULTS[fault]
        record["turns"][0][key] = value
        path.write_text(json.dumps(record), encoding="utf-8")
    elif fault == "float_target":
        record = json.loads(text)
        turn = next(t for t in record["turns"] if t["targets"])
        turn["targets"] = [float(target) for target in turn["targets"]]
        path.write_text(json.dumps(record), encoding="utf-8")
    elif fault == "responder_rebuttal":
        record = json.loads(text)
        next(t for t in record["turns"] if t["stage"] == "rebuttal")["role"] = "responder"
        path.write_text(json.dumps(record), encoding="utf-8")
    else:
        path.write_text(other.read_text(encoding="utf-8"), encoding="utf-8")


FAULTS = ("truncated", "invalid", "other_news_id")


class TestReusedArtifacts:
    """A reused transcript or report that does not parse, fails
    validation, or belongs to another item is regenerated with a warning
    naming the file, and the stage carries on."""

    def _setup(self, small_setup):
        tmp_path, dataset_path, config_path = small_setup
        dataset = load_dataset(dataset_path)
        config = load_config(config_path)
        workspace = tmp_path / "ws"
        pipeline = Pipeline(config, workspace,
                            gateway=Gateway(CountingBackend(), tmp_path / "gen"))
        logs, _ = pipeline.run_debates(dataset)
        pipeline.run_synthesis(logs)
        return dataset, config, workspace

    @pytest.mark.parametrize("fault", FAULTS + tuple(TURN_FAULTS) + ("float_target", "responder_rebuttal"))
    def test_bad_transcript_is_regenerated(self, small_setup, fresh_cache, fault, caplog):
        dataset, config, workspace = self._setup(small_setup)
        first, second = sorted((workspace / "transcripts").glob("*.json"))[:2]
        original = first.read_bytes()
        corrupt(first, fault, second)

        backend = CountingBackend()
        pipeline = Pipeline(config, workspace, gateway=Gateway(backend, fresh_cache()))
        logs, report = pipeline.run_debates(dataset)
        assert report.failures == []
        assert (report.processed, report.skipped) == (1, 15)
        assert backend.calls == 8
        assert first.read_bytes() == original
        assert logs[first.stem].news_id == first.stem
        assert str(first) in caplog.text

    @pytest.mark.parametrize("fault", FAULTS + ("unknown_hint",))
    def test_bad_report_is_regenerated(self, small_setup, fresh_cache, fault, caplog):
        dataset, config, workspace = self._setup(small_setup)
        first, second = sorted((workspace / "reports").glob("*.json"))[:2]
        original = first.read_bytes()
        corrupt(first, fault, second)

        backend = CountingBackend()
        pipeline = Pipeline(config, workspace, gateway=Gateway(backend, fresh_cache()))
        logs, _ = pipeline.run_debates(dataset)
        reports, report = pipeline.run_synthesis(logs)
        assert report.failures == []
        assert (report.processed, report.skipped) == (1, 15)
        assert backend.calls == 1
        assert first.read_bytes() == original
        assert reports[first.stem].news_id == first.stem
        assert str(first) in caplog.text

    def test_upper_case_stage_names_still_load(self, small_setup, fresh_cache, caplog):
        dataset, config, workspace = self._setup(small_setup)
        first = sorted((workspace / "transcripts").glob("*.json"))[0]
        record = json.loads(first.read_text(encoding="utf-8"))
        for turn in record["turns"]:
            turn["stage"] = turn["stage"].upper()
        assert record["turns"][0]["stage"] == "OPENING"
        first.write_text(json.dumps(record), encoding="utf-8")

        backend = CountingBackend()
        pipeline = Pipeline(config, workspace, gateway=Gateway(backend, fresh_cache()))
        logs, report = pipeline.run_debates(dataset)
        assert (report.processed, report.skipped, backend.calls) == (0, 16, 0)
        assert [t.stage.key for t in logs[first.stem].turns][:2] == ["opening", "opening"]
        assert caplog.text == ""

    def test_records_torn_inside_a_character_are_regenerated(self, small_setup, fresh_cache,
                                                               caplog):
        dataset, config, workspace = self._setup(small_setup)
        transcript = sorted((workspace / "transcripts").glob("*.json"))[0]
        report = sorted((workspace / "reports").glob("*.json"))[1]
        originals = {path: path.read_bytes() for path in (transcript, report)}
        for path in originals:
            # Cut inside the 3-byte UTF-8 form of a CJK character.
            path.write_bytes(b'{"news_id": "\xe4\xb8')

        pipeline = Pipeline(config, workspace, gateway=Gateway(CountingBackend(), fresh_cache()))
        logs, debate_report = pipeline.run_debates(dataset)
        _, synth_report = pipeline.run_synthesis(logs)
        for stage in (debate_report, synth_report):
            assert (stage.processed, stage.skipped, stage.failures) == (1, 15, [])
        assert {path: path.read_bytes() for path in originals} == originals
        for path in originals:
            assert f"regenerating unusable artifact {path}" in caplog.text

    def test_unreadable_transcript_is_reported_not_regenerated(self, small_setup, fresh_cache):
        dataset, config, workspace = self._setup(small_setup)
        first = sorted((workspace / "transcripts").glob("*.json"))[0]
        first.unlink()
        first.mkdir()  # reading it raises an OSError, not a parse error

        pipeline = Pipeline(config, workspace, gateway=Gateway(CountingBackend(), fresh_cache()))
        with pytest.raises(IsADirectoryError):
            pipeline.run_debates(dataset)
        assert first.is_dir()


class Interrupted(BaseException):
    """A crash of the process: no stage catches it."""


# Where a run is interrupted: right after the n-th call of a write function
# whose target (a file, or a store's directory) lies under the given part
# of the workspace. The transcripts and reports go through the pipeline's
# atomic_write, the checkpoint through the checkpoint module's, and the
# outputs through the files module's; both caches go through PackStore.put.
INTERRUPTIONS = {
    "transcript": (pipeline_module, "atomic_write", "transcripts", 5),
    "report": (pipeline_module, "atomic_write", "reports", 7),
    "generation_record": (PackStore, "put", "cache/gen", 43),
    "embedding_record": (PackStore, "put", "cache/emb", 50),
    "checkpoint": (checkpoint_module, "atomic_write", "checkpoints", 1),
    "outputs": (files_module, "atomic_write", "predictions.jsonl", 1),
}


def workspace_contents(workspace: Path) -> tuple[dict, dict]:
    """Every file's bytes, and every cache directory's pack records as a
    sorted list of (key, payload): pack names differ between runs, and a
    resumed run adds a pack of its own."""
    files, records = {}, {}
    for path in sorted(workspace.rglob("*")):
        if path.suffix == ".pack":
            data, offset = path.read_bytes(), 0
            found = records.setdefault(path.parent.relative_to(workspace), [])
            while header := packs_module._HEADER.match(data, offset):
                offset = header.end() + int(header[2])
                found.append((header[1], data[header.end():offset]))
        elif path.is_file():
            files[path.relative_to(workspace)] = path.read_bytes()
    return files, {folder: sorted(found) for folder, found in records.items()}


def interrupt_and_resume(tmp_path, monkeypatch, point, config):
    """Runs the pipeline under ``config`` until the interruption ``point``,
    runs it again over the same workspace, and checks that it leaves what
    a clean sequential run leaves: the same bytes in every file, the same
    records in each cache."""
    dataset = make_synthetic_corpus(n_train=6, n_val=2, n_test=4, seed=3).dataset
    Pipeline(TINY_CONFIG, tmp_path / "clean").run(dataset)
    workspace = tmp_path / "resumed"
    owner, name, part, n = INTERRUPTIONS[point]
    write, calls = getattr(owner, name), []

    def interrupting(target, *args):
        write(target, *args)
        where = Path(target.root if isinstance(target, PackStore) else target)
        if where.relative_to(workspace).as_posix().startswith(part):
            calls.append(where)
            if len(calls) == n:
                raise Interrupted

    with monkeypatch.context() as patch:
        patch.setattr(owner, name, interrupting)
        with pytest.raises(Interrupted):
            Pipeline(config, workspace).run(dataset)
    assert not (workspace / "metrics.json").exists()
    Pipeline(config, workspace).run(dataset)
    assert workspace_contents(workspace) == workspace_contents(tmp_path / "clean")


class TestResume:
    @pytest.mark.parametrize("point", INTERRUPTIONS)
    def test_interrupted_run_resumes_to_the_clean_bytes(self, tmp_path, monkeypatch, point):
        """A run interrupted right after one artifact write, then run again
        over the same workspace, leaves what a clean run leaves."""
        interrupt_and_resume(tmp_path, monkeypatch, point, TINY_CONFIG)

    @pytest.mark.parametrize("point", ["transcript", "report", "generation_record"])
    def test_concurrent_interrupted_run_resumes_to_the_clean_bytes(self, tmp_path, monkeypatch,
                                                                   point):
        """With debates and reports made concurrently, an interruption
        in the debate or synthesis stage, which other workers' requests
        and writes may outlive, resumes to the clean sequential run's
        bytes."""
        config = dataclasses.replace(TINY_CONFIG, max_concurrency=2)
        interrupt_and_resume(tmp_path, monkeypatch, point, config)

    def test_caches_alone_rebuild_the_run(self, small_setup):
        """With transcripts and reports gone, a fresh pipeline over the
        same workspace rebuilds everything from the generation and
        embedding caches: no backend or provider call, same metrics."""
        tmp_path, dataset_path, config_path = small_setup
        dataset = load_dataset(dataset_path)
        config = load_config(config_path)
        workspace = tmp_path / "ws"

        def run():
            pipeline = Pipeline(config, workspace)
            backend = pipeline.gateway.backend = CountingBackend()
            provider = pipeline.embedder.provider = CountingProvider(pipeline.embedder.provider)
            pipeline.run(dataset)
            return backend.calls, provider.calls, (workspace / "metrics.json").read_bytes()

        cold_calls, cold_embeds, cold_metrics = run()
        assert cold_calls == 16 * 9 and cold_embeds > 0
        for name in ("transcripts", "reports"):
            shutil.rmtree(workspace / name)
        warm_calls, warm_embeds, warm_metrics = run()
        assert (warm_calls, warm_embeds) == (0, 0)
        assert warm_metrics == cold_metrics
        assert len(list((workspace / "transcripts").glob("*.json"))) == 16

    def test_generation_cache_answers_only_its_backend(self, small_setup):
        """With the transcripts gone, debates rerun in the same workspace
        through a gateway over another backend reach that backend for
        every turn; the mock's cached responses are not read back."""
        tmp_path, dataset_path, config_path = small_setup
        dataset = load_dataset(dataset_path)
        config = load_config(config_path)
        workspace = tmp_path / "ws"
        Pipeline(config, workspace).run_debates(dataset)
        shutil.rmtree(workspace / "transcripts")
        backend = OtherModelBackend()
        gateway = Gateway(backend, workspace / "cache" / "gen")
        logs, report = Pipeline(config, workspace, gateway=gateway).run_debates(dataset)
        assert report.processed == len(dataset)
        assert backend.calls == 8 * len(dataset)
        assert all(turn.text.startswith(OtherModelBackend.PREFIX)
                   for log in logs.values() for turn in log.turns)
        assert sorted(p.name for p in (workspace / "cache" / "gen").iterdir()) == [
            "mock", "remote_other-model"]


class OtherModelBackend(CountingBackend):
    """A counting backend with another model's id and its own text."""

    backend_id = "remote:other-model"
    PREFIX = "Another model answers:"

    def complete(self, req):
        return f"{self.PREFIX} {super().complete(req)}"


# sha256 of every sample's node and news matrices (little-endian float64),
# item by item, for the corpus and config of TestBuildSamples.
SAMPLES_SHA256 = "5c9a9fba5f9ead3ad7ca255c0c69ea7a3fc9d3b3184cf22a0bcf76b693056c3d"


def samples_digest(dataset, samples) -> str:
    digest = hashlib.sha256()
    for item in dataset.items:
        sample = samples[item.id]
        digest.update(np.ascontiguousarray(sample.node_embeddings, dtype="<f8").tobytes())
        digest.update(np.ascontiguousarray(sample.news_embedding, dtype="<f8").tobytes())
    return digest.hexdigest()


class TestBuildSamples:
    def test_cold_and_warm_samples_pinned(self, tmp_path, monkeypatch):
        """Cold samples match the pinned digest; a warm rebuild reads every
        vector from the cache (no provider call, no write) to the same
        bytes."""
        corpus = make_synthetic_corpus(n_train=6, n_val=2, n_test=4, seed=4, task="stance")
        config = PipelineConfig(d_h=32)
        cold = Pipeline(config, tmp_path / "ws").build_samples(corpus.dataset, corpus.logs)
        assert samples_digest(corpus.dataset, cold) == SAMPLES_SHA256

        puts = []
        pipeline = Pipeline(config, tmp_path / "ws")
        monkeypatch.setattr(pipeline.embedder.cache, "put", lambda *args: puts.append(args))
        provider = pipeline.embedder.provider = CountingProvider(pipeline.embedder.provider)
        warm = pipeline.build_samples(corpus.dataset, corpus.logs)
        assert (provider.calls, len(puts)) == (0, 0)
        assert samples_digest(corpus.dataset, warm) == SAMPLES_SHA256

    @pytest.mark.parametrize("variant", ["full", "no_debate", "no_roles"])
    def test_one_lookup_gives_each_item_its_own_rows(self, tmp_path, variant):
        """A warm stage embeds every item's texts in one call, and each
        sample holds the bytes that embedding its item's texts alone
        gives."""
        corpus = make_synthetic_corpus(n_train=6, n_val=2, n_test=4, seed=4, task="stance")
        config = PipelineConfig(d_h=32)
        Pipeline(config, tmp_path / "ws").build_samples(corpus.dataset, corpus.logs, variant)
        pipeline = Pipeline(config, tmp_path / "ws")
        calls, embed = [], pipeline.embedder.embed_texts
        pipeline.embedder.embed_texts = lambda texts: calls.append(len(texts)) or embed(texts)
        warm = pipeline.build_samples(corpus.dataset, corpus.logs, variant)
        per_item, texts = build_embedder(config, tmp_path / "ws"), 0
        for item in corpus.dataset.items:
            turns = [t.text for t in corpus.logs[item.id].turns] if variant != "no_debate" else []
            rows = per_item.embed_texts([item.content, *turns])
            nodes = rows[1:] if turns else rows[:1]
            assert warm[item.id].news_embedding.tobytes() == rows[0].tobytes()
            assert warm[item.id].node_embeddings.tobytes() == nodes.tobytes()
            texts += len(rows)
        assert calls == [texts]

    def test_non_finite_vector_shared_by_two_items_costs_one_call(self, tmp_path, caplog):
        corpus = make_synthetic_corpus(n_train=6, n_val=2, n_test=4, seed=4, task="stance")
        first, second, *rest = corpus.dataset.items
        dataset = Dataset((first, dataclasses.replace(second, content=first.content), *rest))
        config = PipelineConfig(d_h=32)
        Pipeline(config, tmp_path / "ws").build_samples(dataset, corpus.logs)
        pipeline = Pipeline(config, tmp_path / "ws")
        pipeline.embedder.cache.put(text_key(first.content),
                                    np.full(32, np.nan, dtype="<f4").tobytes())
        provider = pipeline.embedder.provider = CountingProvider(pipeline.embedder.provider)
        with caplog.at_level(logging.WARNING, logger="veridebate.encoding"):
            samples = pipeline.build_samples(dataset, corpus.logs)
        assert provider.calls == 1
        assert "recomputing" in caplog.text
        expected = np.asarray(provider.inner.embed_text(first.content), dtype="<f4")
        for item in (first, second):
            assert samples[item.id].news_embedding.tobytes() == expected.tobytes()

    def test_overflowing_fresh_vector_stops_the_encode_stage(self, tmp_path):
        """A provider vector that overflows float32 is refused by the
        encode stage, naming the provider, rather than cached as inf to
        fail training."""
        corpus = make_synthetic_corpus(n_train=2, n_test=2, seed=2, task="stance")
        pipeline = Pipeline(TINY_CONFIG, tmp_path / "ws")
        first = corpus.dataset.items[0]
        provider = pipeline.embedder.provider = PoisonedProvider(
            pipeline.embedder.provider, first.content, np.r_[np.ones(15), 1e39])
        message = f"stage encode failed: provider {provider.provider_id}"
        with pytest.raises(StageError, match=message) as info:
            pipeline.run(corpus.dataset)
        assert info.value.stage == "encode"
        assert not pipeline.checkpoint_path().exists()


class ExplodingBackend:
    backend_id = "exploding"

    def complete(self, request):
        raise AssertionError("gateway must not be called")


TINY_CONFIG = PipelineConfig(d_h=16, d_r=4, gat_hidden=8, d_p=8,
                             heads=2, epochs=1, batch_size=1)


class TestNoDebateVariant:
    def test_runs_without_touching_the_gateway(self, tmp_path):
        corpus = make_synthetic_corpus(n_train=1, n_test=1, seed=2, task="stance")
        pipeline = Pipeline(TINY_CONFIG, tmp_path / "ws",
                            gateway=Gateway(ExplodingBackend(), tmp_path / "gen"))
        report = pipeline.evaluate_variant(corpus.dataset, "no_debate")
        assert 0.0 <= report.macro_f1 <= 1.0

    def test_embedding_endpoint_error_is_an_encode_stage_error(self, tmp_path):
        corpus = make_synthetic_corpus(n_train=1, n_test=1, seed=2, task="stance")
        provider = RemoteEmbeddingProvider("https://embed.example", dim=16, api_key="k",
                                           transport=lambda *request: (503, b""))
        embedder = CachedEmbedder(provider, tmp_path / "emb",
                                  retry=RetryPolicy(sleep=lambda s: None))
        pipeline = Pipeline(TINY_CONFIG, tmp_path / "ws",
                            gateway=Gateway(ExplodingBackend(), tmp_path / "gen"),
                            embedder=embedder)
        with pytest.raises(StageError, match="stage encode failed: .*returned 503") as info:
            pipeline.evaluate_variant(corpus.dataset, "no_debate")
        assert info.value.stage == "encode"


def role_corpus_samples(tmp_path, config: PipelineConfig):
    """A role corpus's items as full and as ``no_roles`` samples."""
    corpus = make_synthetic_corpus(n_train=6, n_test=2, seed=2, task="role")
    pipeline = Pipeline(config, tmp_path / "ws")
    return [list(pipeline.build_samples(corpus.dataset, corpus.logs, variant).values())
            for variant in ("full", "no_roles")]


# d_h 8 maps the role columns back from a separate buffer; d_h 16 in place.
@pytest.mark.parametrize("d_h", [8, 16])
class TestNoRolesVariant:
    """Role-less samples through a random role table act as role samples
    through a zeroed one, and the role path gets no gradient, so no_roles
    is the ablation a zeroed, frozen role table gives."""

    def model(self, d_h, dtype, zeroed=False) -> AnalysisModel:
        config = dataclasses.replace(TINY_CONFIG, d_h=d_h).model_config()
        model = AnalysisModel.create(dataclasses.replace(config, dtype=dtype))
        if zeroed:
            model.role_table.embeddings[...] = 0.0
        return model

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_forward_equals_a_zeroed_role_table(self, tmp_path, d_h, dtype):
        full, role_less = role_corpus_samples(
            tmp_path, dataclasses.replace(TINY_CONFIG, d_h=d_h))
        assert all((s.role_ids == -1).all() for s in role_less)
        assert all((s.role_ids >= 0).all() for s in full)
        probs = self.model(d_h, dtype).forward(role_less)[0]
        zeroed = self.model(d_h, dtype, zeroed=True).forward(full)[0]
        assert probs.tobytes() == zeroed.tobytes()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_role_path_gradient_is_exactly_0(self, tmp_path, d_h, dtype):
        _, role_less = role_corpus_samples(tmp_path, dataclasses.replace(TINY_CONFIG, d_h=d_h))
        model = self.model(d_h, dtype)
        _, grad = loss_and_grad(model, role_less)
        blocks = dict(model.block_slices())
        assert not grad[blocks["role_embeddings"]].any()
        assert not grad[blocks["role_projection"]].any()
        # Only the hidden layer's W_0 meets the role features.
        block = grad[blocks["gat0.weight"]].reshape(model.gat_layers[0].weight.shape)
        assert not block[:, d_h:].any() and block[:, :d_h].any()

    def test_checkpoint_keeps_the_initial_role_blocks(self, tmp_path, d_h):
        config = dataclasses.replace(TINY_CONFIG, d_h=d_h)
        corpus = make_synthetic_corpus(n_train=6, n_test=2, seed=2, task="role")
        pipeline = Pipeline(config, tmp_path / "ws")
        fresh = AnalysisModel.create(config.model_config())

        def role_blocks(model):
            return (model.role_table.embeddings.tobytes(), model.role_table.projection.tobytes(),
                    model.gat_layers[0].weight[:, d_h:].tobytes())

        for variant in ("full", "no_roles"):
            pipeline.evaluate_variant(corpus.dataset, variant)
            trained = load_model(pipeline.checkpoint_path(f"model-{variant}.bin"),
                                 pipeline.embedder.provider_id)
            # Only the role-less samples leave the role path as created.
            kept = [a == b for a, b in zip(role_blocks(trained), role_blocks(fresh))]
            assert kept == [variant == "no_roles"] * 3


# The stage methods the benchmark wraps on a pipeline instance to time a
# run, in the order a run calls them.
STAGE_METHODS = ("run_debates", "run_synthesis", "build_samples", "train_model",
                 "predict_rows", "_metrics_from_rows")


class TestStageSequence:
    @pytest.mark.parametrize("entry, checkpoint", [
        (lambda pipeline, dataset: pipeline.run(dataset), "model.bin"),
        (lambda pipeline, dataset: pipeline.evaluate_variant(dataset, "full"), "model-full.bin"),
    ], ids=["run", "evaluate_full"])
    def test_each_stage_method_called_once_in_order(self, tmp_path, entry, checkpoint):
        corpus = make_synthetic_corpus(n_train=2, n_test=2, seed=2, task="stance")
        pipeline = Pipeline(TINY_CONFIG, tmp_path / "ws")
        calls = []
        for name in STAGE_METHODS:
            def recorded(*args, _name=name, _method=getattr(pipeline, name), **kwargs):
                calls.append(_name)
                return _method(*args, **kwargs)
            setattr(pipeline, name, recorded)
        entry(pipeline, corpus.dataset)
        assert calls == list(STAGE_METHODS)
        assert pipeline.checkpoint_path(checkpoint).exists()

    def test_unknown_variant_refused_before_any_stage(self, tmp_path):
        corpus = make_synthetic_corpus(n_train=1, n_test=1, seed=2, task="stance")
        workspace = tmp_path / "ws"
        pipeline = Pipeline(TINY_CONFIG, workspace,
                            gateway=Gateway(ExplodingBackend(), tmp_path / "gen"))
        with pytest.raises(ValueError, match="unknown ablation variant 'no_graph'") as info:
            pipeline.evaluate_variant(corpus.dataset, "no_graph")
        for name in ("full", "no_debate", "no_analysis", "no_roles"):
            assert repr(name) in str(info.value)
        assert not (workspace / "checkpoints").exists()
        assert not (workspace / "transcripts").exists()


def recording_pipeline(tmp_path) -> tuple[Pipeline, list[str]]:
    """A pipeline whose ``evaluate_variant`` only records the variant it
    is asked for, and that list."""
    pipeline = Pipeline(TINY_CONFIG, tmp_path / "ws",
                        gateway=Gateway(ExplodingBackend(), tmp_path / "gen"))
    variants = []
    pipeline.evaluate_variant = lambda dataset, variant: (
        variants.append(variant) or compute_metrics([0], [0]))
    return pipeline, variants


class TestAblate:
    def test_invalid_toggle_rejected(self, tmp_path):
        pipeline, variants = recording_pipeline(tmp_path)
        with pytest.raises(ValueError, match="unknown ablation toggles"):
            pipeline.ablate(None, ["no_debate", "no_magic"])
        assert variants == []

    def test_repeated_toggle_rejected(self, tmp_path):
        pipeline, variants = recording_pipeline(tmp_path)
        with pytest.raises(ValueError, match=r"repeated ablation toggles \['no_roles'\]"):
            pipeline.ablate(None, ["no_roles", "no_debate", "no_roles"])
        assert variants == []

    def test_runs_full_plus_requested(self, tmp_path):
        pipeline, variants = recording_pipeline(tmp_path)
        table = pipeline.ablate(None, ["no_analysis", "no_debate"])
        assert variants == ["full", "no_analysis", "no_debate"]
        assert list(table) == variants

    def test_all_toggles_are_valid(self, tmp_path):
        pipeline, variants = recording_pipeline(tmp_path)
        pipeline.ablate(None, ABLATION_TOGGLES)
        assert variants == ["full", *ABLATION_TOGGLES]


class UnreachableBackend:
    backend_id = "unreachable"

    def complete(self, request):
        raise TransportError("unreachable")


# What a stage after debate writes into a workspace.
LATER_OUTPUTS = ("reports", "checkpoints", "predictions.jsonl", "explanations.jsonl",
                 "metrics.json", "ablation.json")


def unreachable(monkeypatch) -> None:
    """Make every pipeline built from a config fail each generation request
    at its first attempt."""
    monkeypatch.setattr(pipeline_module, "MockBackend", UnreachableBackend)
    monkeypatch.setattr(pipeline_module, "RetryPolicy", lambda: RetryPolicy(max_attempts=1))


def fail_one_debate(monkeypatch, dataset_path: Path) -> str:
    """Make the debate of the dataset's first test item fail; returns its
    id."""
    failed = load_dataset(dataset_path).split("test")[0].id
    run_debate = pipeline_module.run_debate

    def failing(item, *args):
        if item.id == failed:
            raise TransportError("unreachable")
        return run_debate(item, *args)

    monkeypatch.setattr(pipeline_module, "run_debate", failing)
    return failed


class TestStrictStageCommands:
    @pytest.mark.parametrize("command", ["debate", "synthesize"])
    @pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
    def test_failed_items_exit_1_only_under_strict(self, small_setup, monkeypatch,
                                                   command, strict):
        unreachable(monkeypatch)
        tmp_path, dataset_path, config_path = small_setup
        out = tmp_path / "ws"
        code = run_cli(command, "--config", config_path, "--dataset", dataset_path,
                       "--out", out, "--seed", "5", *(["--strict"] if strict else []))
        assert code == (1 if strict else 0)
        assert len(list((out / "transcripts").iterdir())) == 0
        # Under --strict, synthesize stops at the failed debate stage.
        assert (out / "reports").exists() == (command == "synthesize" and not strict)

    @pytest.mark.parametrize("command", ["synthesize", "train", "pipeline", "ablate"])
    def test_strict_stops_at_the_failed_debate_stage(self, small_setup, monkeypatch, caplog,
                                                     command):
        unreachable(monkeypatch)
        tmp_path, dataset_path, config_path = small_setup
        out = tmp_path / "ws"
        code = run_cli(command, "--config", config_path, "--dataset", dataset_path,
                       "--out", out, "--seed", "5", "--strict")
        assert code == 1
        assert "stage debate failed: 16 item(s) failed" in caplog.text
        assert [name for name in LATER_OUTPUTS if (out / name).exists()] == []

    def test_strict_stops_at_a_failed_synthesis(self, small_setup, monkeypatch, caplog):
        tmp_path, dataset_path, config_path = small_setup
        fail_one_synthesis(monkeypatch, dataset_path)
        out = tmp_path / "ws"
        code = run_cli("pipeline", "--config", config_path, "--dataset", dataset_path,
                       "--out", out, "--seed", "5", "--strict")
        assert code == 1
        assert "stage synthesize failed: 1 item(s) failed" in caplog.text
        assert len(list((out / "reports").iterdir())) == 15
        assert [name for name in LATER_OUTPUTS[1:] if (out / name).exists()] == []

    def test_lenient_ablate_goes_on_without_the_failed_debate(self, small_setup, monkeypatch):
        """Every variant but no_debate drops the item whose debate failed;
        each row's n_items counts the test items it scored."""
        tmp_path, dataset_path, config_path = small_setup
        fail_one_debate(monkeypatch, dataset_path)
        out = tmp_path / "ws"
        assert run_cli("ablate", "--config", config_path, "--dataset", dataset_path,
                       "--out", out, "--seed", "5") == 0
        table = json.loads((out / "ablation.json").read_text())
        assert {variant: row["n_items"] for variant, row in table.items()} == {
            "full": 3, "no_debate": 4, "no_analysis": 3, "no_roles": 3}

    @pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
    def test_predict_stops_at_a_failed_debate(self, small_setup, monkeypatch, caplog, strict):
        """predict in a trained workspace that lost one test item's
        transcript and the generation cache, with the backend unreachable:
        under --strict the debate stage stops it, writing no prediction;
        without, it predicts the other test items and exits 0, and
        evaluate then refuses the file, naming the missing id."""
        tmp_path, dataset_path, config_path = small_setup
        out = tmp_path / "ws"
        common = ("--config", config_path, "--dataset", dataset_path, "--out", out,
                  "--seed", "5")
        assert run_cli("train", *common) == 0
        lost = load_dataset(dataset_path).split("test")[0].id
        (out / "transcripts" / f"{lost}.json").unlink()
        shutil.rmtree(out / "cache" / "gen")
        unreachable(monkeypatch)
        caplog.clear()
        code = run_cli("predict", *common, *(["--strict"] if strict else []))
        if strict:
            assert code == 1
            assert "stage debate failed: 1 item(s) failed" in caplog.text
            assert not (out / "predictions.jsonl").exists()
            assert not (out / "explanations.jsonl").exists()
            return
        assert code == 0
        rows = [json.loads(line) for line in (out / "predictions.jsonl").read_text().splitlines()]
        assert len(rows) == 3 and lost not in [row["id"] for row in rows]
        caplog.clear()
        assert run_cli("evaluate", *common) == 1
        assert f"missing ['{lost}']" in caplog.text
        assert not (out / "metrics.json").exists()


class TestBuildGateway:
    def test_mock_by_default(self, tmp_path):
        gateway = build_gateway(PipelineConfig(), tmp_path)
        assert gateway.backend.backend_id == "mock"

    def test_remote_requires_endpoint(self, tmp_path):
        with pytest.raises(ValueError):
            build_gateway(PipelineConfig(backend="remote"), tmp_path)

    def test_limiter_only_for_a_request_rate(self, tmp_path):
        assert build_gateway(PipelineConfig(max_concurrency=4), tmp_path).limiter is None
        assert build_gateway(PipelineConfig(requests_per_minute=60), tmp_path).limiter is not None


class TestBuildEmbedder:
    def test_limiter_only_for_a_remote_provider_with_a_rate(self, tmp_path):
        remote = dict(provider="remote", embedding_endpoint="https://embed.example")
        assert build_embedder(PipelineConfig(requests_per_minute=60), tmp_path).limiter is None
        assert build_embedder(PipelineConfig(**remote), tmp_path).limiter is None
        assert build_embedder(PipelineConfig(requests_per_minute=60, **remote),
                              tmp_path).limiter is not None

    def test_remote_misses_paced_at_the_request_rate(self, tmp_path, monkeypatch):
        sent = []

        def transport(url, body, headers, timeout):
            sent.append(time.monotonic())
            return 200, json.dumps({"data": [{"embedding": [0.25] * 16}]}).encode("utf-8")

        monkeypatch.setattr(gateway_module, "_urllib_transport", transport)
        config = PipelineConfig(provider="remote", embedding_endpoint="https://embed.example",
                                d_h=16, requests_per_minute=1200)
        embedder = build_embedder(config, tmp_path)
        start = time.monotonic()
        embedder.embed_texts(["one", "two", "three", "four"])
        # Request k starts no earlier than k intervals after the first one
        # was let through, which was after ``start``.
        interval = 60 / 1200
        assert len(sent) == 4
        assert [t - start >= k * interval for k, t in enumerate(sent)] == [True] * 4
