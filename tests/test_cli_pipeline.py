import json
import shutil

import pytest

from conftest import CountingBackend
from veridebate.cli import main, resolve_config, build_parser
from veridebate.config import PipelineConfig, load_config
from veridebate.evaluation import load_dataset, write_dataset_jsonl
from veridebate.gateway import Gateway, MockBackend
from veridebate.pipeline import Pipeline, StageError, build_gateway
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


# Values only a stage config rejects: the engine's max_tokens, the
# model's heads, which must divide d_p = 128, and the training settings.
BAD_STAGE_CONFIGS = ("[debate]\nmax_tokens = 0\n", "[model]\nheads = 3\n",
                     "[model]\nlr = nan\n", "[model]\nlr = 0\n",
                     "[model]\nepochs = 0\n", "[model]\nbatch_size = 0\n")
BAD_STAGE_IDS = ("max_tokens", "heads", "lr_nan", "lr_zero", "epochs", "batch_size")


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

    def test_resume_issues_no_gateway_calls(self, small_setup):
        tmp_path, dataset_path, config_path = small_setup
        dataset = load_dataset(dataset_path)
        config = load_config(config_path)
        backend = CountingBackend()
        workspace = tmp_path / "ws"
        pipeline = Pipeline(config, workspace, gateway=Gateway(backend))
        pipeline.run_debates(dataset)
        first = backend.calls
        assert first == 16 * 8
        pipeline2 = Pipeline(config, workspace, gateway=Gateway(backend))
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
        gateway = Gateway(FailingBackend(), retry=RetryPolicy(max_attempts=1))

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

    def test_evaluate_rejects_truncated_predictions(self, small_setup, caplog):
        tmp_path, dataset_path, config_path = small_setup
        out = tmp_path / "ws"
        common = ("--config", config_path, "--dataset", dataset_path, "--out", out,
                  "--seed", "5")
        for command in ("train", "predict", "evaluate"):
            assert run_cli(command, *common) == 0
        metrics = (out / "metrics.json").read_bytes()
        predictions = out / "predictions.jsonl"
        lines = predictions.read_text().splitlines(keepends=True)
        predictions.write_text("".join(lines[:-1]))
        assert run_cli("evaluate", *common) == 1
        assert "row ids do not match" in caplog.text
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
        pipeline = Pipeline(config, workspace, gateway=Gateway(CountingBackend()))
        logs, _ = pipeline.run_debates(dataset)
        pipeline.run_synthesis(logs)
        return dataset, config, workspace

    @pytest.mark.parametrize("fault", FAULTS)
    def test_bad_transcript_is_regenerated(self, small_setup, fault, caplog):
        dataset, config, workspace = self._setup(small_setup)
        first, second = sorted((workspace / "transcripts").glob("*.json"))[:2]
        original = first.read_bytes()
        corrupt(first, fault, second)

        backend = CountingBackend()
        pipeline = Pipeline(config, workspace, gateway=Gateway(backend))
        logs, report = pipeline.run_debates(dataset)
        assert report.failures == []
        assert (report.processed, report.skipped) == (1, 15)
        assert backend.calls == 8
        assert first.read_bytes() == original
        assert logs[first.stem].news_id == first.stem
        assert str(first) in caplog.text

    @pytest.mark.parametrize("fault", FAULTS)
    def test_bad_report_is_regenerated(self, small_setup, fault, caplog):
        dataset, config, workspace = self._setup(small_setup)
        first, second = sorted((workspace / "reports").glob("*.json"))[:2]
        original = first.read_bytes()
        corrupt(first, fault, second)

        backend = CountingBackend()
        pipeline = Pipeline(config, workspace, gateway=Gateway(backend))
        logs, _ = pipeline.run_debates(dataset)
        reports, report = pipeline.run_synthesis(logs)
        assert report.failures == []
        assert (report.processed, report.skipped) == (1, 15)
        assert backend.calls == 1
        assert first.read_bytes() == original
        assert reports[first.stem].news_id == first.stem
        assert str(first) in caplog.text

    def test_unreadable_transcript_is_reported_not_regenerated(self, small_setup):
        dataset, config, workspace = self._setup(small_setup)
        first = sorted((workspace / "transcripts").glob("*.json"))[0]
        first.unlink()
        first.mkdir()  # reading it raises an OSError, not a parse error

        pipeline = Pipeline(config, workspace, gateway=Gateway(CountingBackend()))
        with pytest.raises(IsADirectoryError):
            pipeline.run_debates(dataset)
        assert first.is_dir()


class CountingProvider:
    """Embedding provider wrapper that counts embed calls."""

    def __init__(self, inner):
        self.inner = inner
        self.provider_id = inner.provider_id
        self.dim = inner.dim
        self.calls = 0

    def embed_text(self, text):
        self.calls += 1
        return self.inner.embed_text(text)


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


class ExplodingBackend:
    backend_id = "exploding"

    def complete(self, request):
        raise AssertionError("gateway must not be called")


class TestNoDebateVariant:
    def test_runs_without_touching_the_gateway(self, tmp_path):
        corpus = make_synthetic_corpus(n_train=1, n_test=1, seed=2, task="stance")
        config = PipelineConfig(d_h=16, d_r=4, gat_hidden=8, gat_layers=1, d_p=8,
                                heads=2, epochs=1, batch_size=1)
        pipeline = Pipeline(config, tmp_path / "ws", gateway=Gateway(ExplodingBackend()))
        report = pipeline.evaluate_variant(corpus.dataset, "no_debate")
        assert 0.0 <= report.macro_f1 <= 1.0


class TestBuildGateway:
    def test_mock_by_default(self, tmp_path):
        gateway = build_gateway(PipelineConfig(), tmp_path)
        assert gateway.backend.backend_id == "mock"

    def test_remote_requires_endpoint(self):
        with pytest.raises(ValueError):
            build_gateway(PipelineConfig(backend="remote"), None)
