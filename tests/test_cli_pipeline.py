import hashlib
import json
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import CountingBackend, CountingProvider, write_factored_checkpoint
from veridebate.cli import main, resolve_config, build_parser
from veridebate.config import PipelineConfig, load_config
from veridebate import gateway as gateway_module, pipeline as pipeline_module
from veridebate.encoding import CachedEmbedder, RemoteEmbeddingProvider
from veridebate.evaluation import load_dataset, write_dataset_jsonl
from veridebate.neural import ModelConfig
from veridebate.gateway import Gateway, MockBackend, RetryPolicy, TransportError
from veridebate.pipeline import Pipeline, StageError, build_embedder, build_gateway
from veridebate.synthetic import make_synthetic_corpus

SMALL_CONFIG = """
[embedding]
d_h = 16

[model]
d_r = 4
gat_hidden = 8
gat_layers = 2
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
# size, the engine's max_tokens, the model's heads, which must divide
# d_p = 128, and the training settings.
BAD_STAGE_CONFIGS = ("[gateway]\nrequests_per_minute = -5\n",
                     "[gateway]\nrequests_per_minute = inf\n",
                     "[gateway]\nmax_concurrency = 0\n",
                     "[debate]\nmax_tokens = 0\n", "[model]\nheads = 3\n",
                     "[model]\nlr = nan\n", "[model]\nlr = 0\n",
                     "[model]\nepochs = 0\n", "[model]\nbatch_size = 0\n")
BAD_STAGE_IDS = ("rpm_negative", "rpm_inf", "max_concurrency", "max_tokens", "heads",
                 "lr_nan", "lr_zero", "epochs", "batch_size")


def run_cli(*args) -> int:
    return main([str(a) for a in args])


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
        args = build_parser().parse_args(
            ["pipeline", "--config", str(config_path), "--dataset", str(dataset_path),
             "--seed", "42", "--backend", "mock", "--interaction-mode", "pooled"]
        )
        config = resolve_config(args)
        assert config.seed == 42
        assert config.interaction_mode == "pooled"
        assert config.d_h == 16  # file value survives where no flag given

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
        assert len(report.failures) == 16
        lenient._check_stage(report)  # lenient mode tolerates failures

        config.strict = True
        strict = Pipeline(config, tmp_path / "strict", gateway=gateway)
        _, report = strict.run_debates(dataset)
        with pytest.raises(StageError, match="debate"):
            strict._check_stage(report)


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
        assert set(packs) == {Path("cache/gen"), Path("cache/emb/hash-d16-s0")}
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

    def test_train_predict_evaluate_flow(self, small_setup, capsys):
        tmp_path, dataset_path, config_path = small_setup
        out = tmp_path / "ws"
        common = ("--config", config_path, "--dataset", dataset_path, "--out", out,
                  "--seed", "5")
        assert run_cli("train", *common) == 0
        assert (out / "checkpoints" / "model.bin").exists()
        assert run_cli("predict", *common) == 0
        assert (out / "predictions.jsonl").exists()
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
        for command in ("train", "predict", "evaluate"):
            assert run_cli(command, *common, "--out", tmp_path / "stages") == 0
        assert run_cli("pipeline", *common, "--out", tmp_path / "whole") == 0
        for name in ("metrics.json", "predictions.jsonl", "checkpoints/model.bin"):
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
        for part in (str(checkpoint), "version 1", "version 2"):
            assert part in caplog.text
        assert not (out / "predictions.jsonl").exists()

    def test_predict_without_checkpoint_exits(self, small_setup):
        tmp_path, dataset_path, config_path = small_setup
        with pytest.raises(SystemExit):
            run_cli("predict", "--config", config_path, "--dataset", dataset_path,
                    "--out", tmp_path / "fresh", "--seed", "5")


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
        tmp_path, dataset_path, config_path = small_setup
        code = run_cli("ablate", "--config", config_path, "--dataset", dataset_path,
                       "--out", tmp_path / "ws", "--seed", "5", "--toggles", "no_magic")
        assert code == 1


def corrupt(path, fault: str, other) -> None:
    """Overwrite an artifact: cut it short, replace it with one that
    parses but is invalid, or copy another item's file over it."""
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

    @pytest.mark.parametrize("fault", FAULTS)
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

    @pytest.mark.parametrize("fault", FAULTS)
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


class TestResume:
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


class ExplodingBackend:
    backend_id = "exploding"

    def complete(self, request):
        raise AssertionError("gateway must not be called")


TINY_CONFIG = PipelineConfig(d_h=16, d_r=4, gat_hidden=8, gat_layers=1, d_p=8,
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


class UnreachableBackend:
    backend_id = "unreachable"

    def complete(self, request):
        raise TransportError("unreachable")


class TestStrictStageCommands:
    @pytest.mark.parametrize("command", ["debate", "synthesize"])
    @pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
    def test_failed_items_exit_1_only_under_strict(self, small_setup, monkeypatch,
                                                   command, strict):
        monkeypatch.setattr(pipeline_module, "MockBackend", UnreachableBackend)
        monkeypatch.setattr(pipeline_module, "RetryPolicy", lambda: RetryPolicy(max_attempts=1))
        tmp_path, dataset_path, config_path = small_setup
        out = tmp_path / "ws"
        code = run_cli(command, "--config", config_path, "--dataset", dataset_path,
                       "--out", out, "--seed", "5", *(["--strict"] if strict else []))
        assert code == (1 if strict else 0)
        assert len(list((out / "transcripts").iterdir())) == 0
        # Under --strict, synthesize stops at the failed debate stage.
        assert (out / "reports").exists() == (command == "synthesize" and not strict)


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
