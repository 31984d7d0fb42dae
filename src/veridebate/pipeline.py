"""End-to-end orchestration over a run workspace.

A workspace directory accumulates per-item artifacts (transcripts,
reports, embedding and generation caches, checkpoints, predictions,
metrics) so every stage is resumable: existing valid transcript and
report files are picked up (an unusable one is regenerated), and
embeddings come from the on-disk cache. Ablation variants re-wire the
feature path without touching the persisted artifacts.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .config import PipelineConfig
from .domain import DebateLog, LABEL_REAL, LABEL_FAKE, NewsItem, VerdictHint, validate_log
from .encoding import CachedEmbedder, EmbeddingCache, HashEmbeddingProvider, RemoteEmbeddingProvider
from .engine import log_from_json, log_to_json, run_debate
from .evaluation import (
    Dataset,
    MetricsReport,
    compute_metrics,
    write_metrics_json,
    write_predictions_jsonl,
)
from .gateway import Gateway, MockBackend, RateLimiter, RemoteBackend, RetryPolicy
from .neural import (
    AnalysisModel,
    Sample,
    make_news_only_sample,
    make_sample,
    predict_proba,
    save_model,
    train,
)
from .synthesis import report_from_json, report_to_json, synthesize

logger = logging.getLogger(__name__)


class StageError(Exception):
    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage} failed: {message}")
        self.stage = stage


def build_gateway(config: PipelineConfig, workspace: Path | None) -> Gateway:
    if config.backend == "mock":
        backend = MockBackend()
    else:
        backend = RemoteBackend(config.endpoint, model=config.model_name)
    cache_dir = None
    if config.gateway_cache and workspace is not None:
        cache_dir = workspace / "cache" / "gen"
    limiter = None
    if config.requests_per_minute or config.max_concurrency > 1:
        limiter = RateLimiter(
            requests_per_minute=config.requests_per_minute or None,
            max_concurrency=config.max_concurrency,
        )
    return Gateway(backend, cache_dir=cache_dir, retry=RetryPolicy(), limiter=limiter)


def build_embedder(config: PipelineConfig, workspace: Path | None) -> CachedEmbedder:
    if config.provider == "hash":
        provider = HashEmbeddingProvider(dim=config.d_h, seed=config.embed_seed)
    else:
        provider = RemoteEmbeddingProvider(
            config.embedding_endpoint, dim=config.d_h, model=config.embedding_model
        )
    cache = EmbeddingCache(workspace / "cache" / "emb") if workspace is not None else None
    return CachedEmbedder(provider, cache)


@dataclass
class StageReport:
    name: str
    processed: int = 0
    skipped: int = 0
    failures: list[str] = field(default_factory=list)


class Pipeline:
    def __init__(self, config: PipelineConfig, workspace: str | Path | None = None,
                 gateway: Gateway | None = None, embedder: CachedEmbedder | None = None):
        self.config = config
        self.workspace = Path(workspace) if workspace is not None else None
        if self.workspace is not None:
            self.workspace.mkdir(parents=True, exist_ok=True)
        self.gateway = gateway or build_gateway(config, self.workspace)
        self.embedder = embedder or build_embedder(config, self.workspace)

    # ---- artifact paths ----------------------------------------------------

    def _dir(self, name: str) -> Path:
        if self.workspace is None:
            raise StageError(name, "this operation needs a workspace directory (--out)")
        path = self.workspace / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    @staticmethod
    def _reuse(path: Path, parse, news_id: str, check=lambda record: []):
        """The record stored at ``path`` for ``news_id``, or None when the
        file is absent or unusable (it does not parse, fails ``check``, or
        belongs to another item); an unusable file is logged by name. An
        error reading the file is not a parse error and propagates."""
        if not path.exists():
            return None
        try:
            record = parse(path.read_text(encoding="utf-8"))
            problems = check(record)
            if record.news_id != news_id:
                problems.append(f"holds news_id {record.news_id!r}")
            if problems:
                raise ValueError("; ".join(problems))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            logger.warning("regenerating unusable artifact %s: %s", path, exc)
            return None
        return record

    # ---- debate stage --------------------------------------------------------

    def run_debates(self, dataset: Dataset) -> tuple[dict[str, DebateLog], StageReport]:
        """One transcript per item; existing valid transcript files are
        reused."""
        transcripts = self._dir("transcripts")
        report = StageReport("debate")
        logs: dict[str, DebateLog] = {}

        def produce(item: NewsItem):
            path = transcripts / f"{item.id}.json"
            log = self._reuse(path, log_from_json, item.id, validate_log)
            if log is not None:
                return item.id, log, True, None
            try:
                log = run_debate(item, self.config.debate_config(), self.gateway)
            except Exception as exc:
                return item.id, None, False, f"{item.id}: {exc}"
            path.write_text(log_to_json(log), encoding="utf-8")
            return item.id, log, False, None

        workers = max(1, self.config.max_concurrency)
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(produce, dataset.items))
        else:
            results = [produce(item) for item in dataset.items]

        for item_id, log, skipped, failure in results:
            if failure is not None:
                report.failures.append(failure)
                logger.error("debate failed for %s", failure)
                continue
            logs[item_id] = log
            if skipped:
                report.skipped += 1
            else:
                report.processed += 1
        return logs, report

    # ---- synthesis stage -----------------------------------------------------

    def run_synthesis(self, logs: dict[str, DebateLog]) -> tuple[dict, StageReport]:
        reports_dir = self._dir("reports")
        report = StageReport("synthesize")
        reports = {}
        for news_id in sorted(logs):
            path = reports_dir / f"{news_id}.json"
            reused = self._reuse(path, report_from_json, news_id)
            if reused is not None:
                reports[news_id] = reused
                report.skipped += 1
                continue
            try:
                summary = synthesize(
                    logs[news_id], self.gateway, self.config.language,
                    self.config.debate_config(),
                )
            except Exception as exc:
                report.failures.append(f"{news_id}: {exc}")
                logger.error("synthesis failed for %s: %s", news_id, exc)
                continue
            path.write_text(report_to_json(summary), encoding="utf-8")
            reports[news_id] = summary
            report.processed += 1
        return reports, report

    # ---- features ------------------------------------------------------------

    def build_samples(self, dataset: Dataset, logs: dict[str, DebateLog],
                      variant: str = "full") -> dict[str, Sample]:
        samples: dict[str, Sample] = {}
        for item in dataset.items:
            news_emb = self.embedder.embed_text(item.content)
            if variant == "no_debate":
                samples[item.id] = make_news_only_sample(item.id, news_emb, item.label)
                continue
            log = logs.get(item.id)
            if log is None:
                raise StageError("encode", f"no transcript for item {item.id}")
            turn_embs = [self.embedder.embed_text(t.text) for t in log.turns]
            samples[item.id] = make_sample(log, turn_embs, news_emb, item.label)
        return samples

    def encode(self, dataset: Dataset,
               logs: dict[str, DebateLog] | None = None) -> dict[str, Sample]:
        """Full-variant samples for every item. Without ``logs`` the
        debates are run (or reused) first and their stage is checked.
        Any encode error surfaces as a ``StageError``."""
        if logs is None:
            logs, debate_report = self.run_debates(dataset)
            self._check_stage(debate_report)
        try:
            return self.build_samples(dataset, logs, "full")
        except StageError:
            raise
        except Exception as exc:
            raise StageError("encode", str(exc)) from exc

    # ---- training / prediction ------------------------------------------------

    def train_model(self, dataset: Dataset, samples: dict[str, Sample],
                    checkpoint_name: str = "model.bin") -> AnalysisModel:
        train_items = dataset.split("train")
        if not train_items:
            raise StageError("train", "no training items")
        val_items = dataset.split("val")
        train_samples = [samples[i.id] for i in train_items]
        val_samples = [samples[i.id] for i in val_items] or None
        model = AnalysisModel.create(self.config.model_config())
        train(model, train_samples, self.config.train_config(), val_samples)
        if self.workspace is not None:
            save_model(self._dir("checkpoints") / checkpoint_name, model)
        return model

    def predict_rows(self, model: AnalysisModel, dataset: Dataset,
                     samples: dict[str, Sample], split: str = "test") -> list[dict]:
        items = dataset.split(split)
        if not items:
            raise StageError("predict", f"no items in split {split!r}")
        probs = predict_proba(model, [samples[item.id] for item in items])
        return [
            {
                "id": item.id,
                "label": item.label,
                "prediction": int(p.argmax()),
                "p_fake": float(p[LABEL_FAKE]),
            }
            for item, p in zip(items, probs)
        ]

    @staticmethod
    def hint_rows(dataset: Dataset, reports: dict, split: str = "test") -> list[dict]:
        """Predictions taken directly from report verdict hints; an
        undecided report falls back to the majority class (real)."""
        rows = []
        for item in dataset.split(split):
            report = reports.get(item.id)
            hint = report.verdict_hint if report is not None else None
            prediction = LABEL_FAKE if hint is VerdictHint.LEANS_FAKE else LABEL_REAL
            rows.append(
                {
                    "id": item.id,
                    "label": item.label,
                    "prediction": prediction,
                    "p_fake": 1.0 if prediction == LABEL_FAKE else 0.0,
                }
            )
        return rows

    # ---- full runs -------------------------------------------------------------

    def _metrics_from_rows(self, rows: list[dict]) -> MetricsReport:
        return compute_metrics(
            [r["prediction"] for r in rows], [r["label"] for r in rows]
        )

    def evaluate_variant(self, dataset: Dataset, variant: str) -> MetricsReport:
        """Metric row for one ablation variant (used by run_ablation)."""
        if variant == "no_debate":
            samples = self.build_samples(dataset, {}, variant)
            model = self.train_model(dataset, samples, f"model-{variant}.bin")
            return self._metrics_from_rows(self.predict_rows(model, dataset, samples))

        logs, debate_report = self.run_debates(dataset)
        self._check_stage(debate_report)
        reports, synth_report = self.run_synthesis(logs)
        self._check_stage(synth_report)
        if variant == "no_analysis":
            return self._metrics_from_rows(self.hint_rows(dataset, reports))
        samples = self.encode(dataset, logs)
        model = self.train_model(dataset, samples, f"model-{variant}.bin")
        return self._metrics_from_rows(self.predict_rows(model, dataset, samples))

    def _check_stage(self, report: StageReport) -> None:
        if report.failures and self.config.strict:
            raise StageError(report.name, f"{len(report.failures)} item(s) failed")

    def run(self, dataset: Dataset) -> MetricsReport:
        """The full pipeline: debate, synthesize, encode, train, predict,
        evaluate. Persists predictions, metrics, and the explanation
        bundle (per item: the report and transcript file references)."""
        logs, debate_report = self.run_debates(dataset)
        self._check_stage(debate_report)
        reports, synth_report = self.run_synthesis(logs)
        self._check_stage(synth_report)
        samples = self.encode(dataset, logs)
        model = self.train_model(dataset, samples)
        rows = self.predict_rows(model, dataset, samples)
        metrics = self._metrics_from_rows(rows)
        if self.workspace is not None:
            write_predictions_jsonl(self.workspace / "predictions.jsonl", rows)
            explanations = [
                {
                    "id": row["id"],
                    "prediction": row["prediction"],
                    "transcript": f"transcripts/{row['id']}.json",
                    "report": f"reports/{row['id']}.json",
                }
                for row in rows
            ]
            with open(self.workspace / "explanations.jsonl", "w", encoding="utf-8") as fh:
                for entry in explanations:
                    fh.write(json.dumps(entry, sort_keys=True) + "\n")
            write_metrics_json(self.workspace / "metrics.json", metrics)
        return metrics
