"""End-to-end orchestration over a run workspace.

A workspace directory accumulates per-item artifacts (transcripts,
reports, embedding and generation caches, checkpoints, predictions,
metrics, the explanation bundle) so every stage is resumable: existing
valid transcript and report files are picked up (an unusable one is
regenerated, or removed if that fails), and embeddings come from the
on-disk cache. Strict mode is enforced where items fail: under
``strict`` the debate or synthesis stage itself stops its caller. The ablation variants re-wire the stage
sequence or the samples without touching the persisted artifacts; a
name outside ``VARIANTS`` is refused before any stage runs.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import PipelineConfig
from .domain import DebateLog, LABEL_REAL, LABEL_FAKE, VerdictHint, validate_log
from .encoding import CachedEmbedder, HashEmbeddingProvider, RemoteEmbeddingProvider
from .engine import log_from_json, log_to_json, run_debate
from .evaluation import Dataset, MetricsReport, compute_metrics, write_predictions_jsonl
from .files import atomic_write, write_json, write_jsonl
from .gateway import Gateway, MockBackend, RateLimiter, RemoteBackend, RetryPolicy
from .neural import (
    AnalysisModel,
    NumericalFault,
    Sample,
    make_news_only_sample,
    make_sample,
    predict_proba,
    save_model,
    train,
)
from .synthesis import report_from_json, report_to_json, synthesize

logger = logging.getLogger(__name__)

# The full pipeline's checkpoint; an ablation run writes model-<variant>.bin.
CHECKPOINT = "model.bin"
# The components an ablation can switch off; _run_variant implements each.
ABLATION_TOGGLES = ("no_debate", "no_analysis", "no_roles")
VARIANTS = ("full", *ABLATION_TOGGLES)


def ablation_variants(toggles) -> tuple[str, ...]:
    """The variants an ablation over ``toggles`` runs: ``full``, then each
    toggle in the order given. An unknown or a repeated toggle is a
    ValueError."""
    toggles = tuple(toggles)
    unknown = [t for t in toggles if t not in ABLATION_TOGGLES]
    if unknown:
        raise ValueError(f"unknown ablation toggles {unknown}; valid: {list(ABLATION_TOGGLES)}")
    repeated = sorted({t for t in toggles if toggles.count(t) > 1})
    if repeated:
        raise ValueError(f"repeated ablation toggles {repeated}; each runs once")
    return ("full", *toggles)


class StageError(Exception):
    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage} failed: {message}")
        self.stage = stage


def build_gateway(config: PipelineConfig, workspace: Path) -> Gateway:
    if config.backend == "mock":
        backend = MockBackend()
    else:
        backend = RemoteBackend(config.endpoint, model=config.model_name)
    # max_concurrency needs no limiter: each worker makes one request at a time.
    limiter = RateLimiter(config.requests_per_minute) if config.requests_per_minute else None
    return Gateway(backend, cache_dir=workspace / "cache" / "gen", retry=RetryPolicy(),
                   limiter=limiter)


def build_embedder(config: PipelineConfig, workspace: Path) -> CachedEmbedder:
    limiter = None
    if config.provider == "hash":
        provider = HashEmbeddingProvider(dim=config.d_h, seed=config.embed_seed)
    else:
        provider = RemoteEmbeddingProvider(
            config.embedding_endpoint, dim=config.d_h, model=config.embedding_model
        )
        # The embedding endpoint is paced apart from the chat endpoint.
        if config.requests_per_minute:
            limiter = RateLimiter(config.requests_per_minute)
    return CachedEmbedder(provider, workspace / "cache" / "emb", retry=RetryPolicy(),
                          limiter=limiter)


@dataclass
class StageReport:
    processed: int = 0
    skipped: int = 0
    failures: list[str] = field(default_factory=list)


class Pipeline:
    def __init__(self, config: PipelineConfig, workspace: str | Path,
                 gateway: Gateway | None = None, embedder: CachedEmbedder | None = None):
        self.config = config
        self.workspace = Path(workspace)
        self.workspace.mkdir(parents=True, exist_ok=True)
        self.gateway = gateway or build_gateway(config, self.workspace)
        self.embedder = embedder or build_embedder(config, self.workspace)

    # ---- artifact paths ----------------------------------------------------

    def checkpoint_path(self, name: str = CHECKPOINT) -> Path:
        return self.workspace / "checkpoints" / name

    @staticmethod
    def _reuse(path: str, parse, news_id: str, check=lambda record: []):
        """The record stored at ``path`` for ``news_id``, or None when the
        file is absent or unusable (not UTF-8, does not parse, fails ``check``
        or belongs to another item); an unusable file is logged by name. An
        error reading the file is not a parse error and propagates."""
        try:
            fd = os.open(path, os.O_RDONLY)
        except FileNotFoundError:
            return None
        try:
            data = os.read(fd, os.fstat(fd).st_size)
        finally:
            os.close(fd)
        try:
            record = parse(data.decode("utf-8"))
            problems = check(record)
            if record.news_id != news_id:
                problems.append(f"holds news_id {record.news_id!r}")
            if problems:
                raise ValueError("; ".join(problems))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            logger.warning("regenerating unusable artifact %s: %s", path, exc)
            return None
        return record

    # ---- debate and synthesis stages ------------------------------------------

    def _run_items(self, stage: str, dirname: str, jobs, produce, parse, dump,
                   check=lambda record: []) -> tuple[dict, StageReport]:
        """One record per ``(news_id, source)`` job, stored as
        ``<dirname>/<news_id>.json``: a valid stored record is reused,
        otherwise ``produce(source)`` makes one and ``atomic_write``
        writes it whole. A failure to produce is counted per item; on
        ``max_concurrency > 1`` the jobs run on a thread pool. Under
        ``strict``, a stage with a failed item is a ``StageError`` once
        every job has run."""
        directory = self.workspace / dirname
        directory.mkdir(parents=True, exist_ok=True)

        def one(job):
            news_id, source = job
            path = os.path.join(directory, f"{news_id}.json")
            record = self._reuse(path, parse, news_id, check)
            if record is not None:
                return news_id, record, True, None
            try:
                record = produce(source)
            except Exception as exc:
                # An unusable file left in place would be named as the item's.
                Path(path).unlink(missing_ok=True)
                return news_id, None, False, f"{news_id}: {exc}"
            atomic_write(path, dump(record))
            return news_id, record, False, None

        workers = self.config.max_concurrency
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(one, jobs))
        else:
            results = [one(job) for job in jobs]

        report = StageReport()
        records = {}
        for news_id, record, reused, failure in results:
            if failure is not None:
                report.failures.append(failure)
                logger.error("%s failed for %s", stage, failure)
                continue
            records[news_id] = record
            if reused:
                report.skipped += 1
            else:
                report.processed += 1
        if report.failures and self.config.strict:
            raise StageError(stage, f"{len(report.failures)} item(s) failed")
        return records, report

    # The stage functions and parsers below are looked up as module globals
    # at call time, so a caller may rebind them (the benchmark times them so).

    def run_debates(self, dataset: Dataset) -> tuple[dict[str, DebateLog], StageReport]:
        """One transcript per item; existing valid transcript files are
        reused."""
        config = self.config.debate_config()
        return self._run_items(
            "debate", "transcripts", [(item.id, item) for item in dataset.items],
            lambda item: run_debate(item, config, self.gateway),
            log_from_json, log_to_json, validate_log,
        )

    def run_synthesis(self, logs: dict[str, DebateLog]) -> tuple[dict, StageReport]:
        """One judge report per transcript; existing valid report files
        are reused."""
        config = self.config.debate_config()
        return self._run_items(
            "synthesize", "reports", [(news_id, logs[news_id]) for news_id in sorted(logs)],
            lambda log: synthesize(log, self.gateway, self.config.language, config),
            report_from_json, report_to_json,
        )

    # ---- features ------------------------------------------------------------

    def build_samples(self, dataset: Dataset, logs: dict[str, DebateLog],
                      variant: str = "full") -> dict[str, Sample]:
        """One sample per item: its news and turn embeddings, or for
        ``no_debate`` its news alone, sliced from one ``embed_texts`` of
        all items' texts; ``no_roles`` gives no node a role (id -1), so the
        role path adds exactly 0 and gets a gradient of exactly 0. Any
        error is a ``StageError`` of the encode stage."""
        try:
            if variant == "no_debate":
                news = self.embedder.embed_texts([item.content for item in dataset.items])
                return {item.id: make_news_only_sample(item.id, row, item.label)
                        for item, row in zip(dataset.items, news)}
            texts, spans = [], []
            for item in dataset.items:
                log = logs.get(item.id)
                if log is None:
                    raise ValueError(f"no transcript for item {item.id}")
                spans.append((item, log, len(texts)))
                texts += [item.content, *(t.text for t in log.turns)]
            rows = self.embedder.embed_texts(texts)
            samples = {item.id: make_sample(log, rows[at + 1:at + 1 + len(log)], rows[at],
                                            item.label) for item, log, at in spans}
            if variant == "no_roles":
                samples = {news_id: replace(s, role_ids=np.full_like(s.role_ids, -1))
                           for news_id, s in samples.items()}
            return samples
        except Exception as exc:
            raise StageError("encode", str(exc)) from exc

    # ---- training / prediction ------------------------------------------------

    def train_model(self, dataset: Dataset, samples: dict[str, Sample],
                    checkpoint_name: str = CHECKPOINT) -> AnalysisModel:
        train_items = dataset.split("train")
        if not train_items:
            raise StageError("train", "no training items")
        val_items = dataset.split("val")
        train_samples = [samples[i.id] for i in train_items]
        val_samples = [samples[i.id] for i in val_items] or None
        model = AnalysisModel.create(self.config.model_config())
        try:
            train(model, train_samples, self.config.train_config(), val_samples)
        except (NumericalFault, ValueError) as exc:
            raise StageError("train", str(exc)) from exc
        save_model(self.checkpoint_path(checkpoint_name), model, self.embedder.provider_id)
        return model

    def predict_rows(self, model: AnalysisModel, dataset: Dataset,
                     samples: dict[str, Sample]) -> list[dict]:
        """One prediction row per test item."""
        items = dataset.split("test")
        if not items:
            raise StageError("predict", "no items in split 'test'")
        probs = predict_proba(model, [samples[item.id] for item in items])
        return [{"id": item.id, "label": item.label, "prediction": int(p.argmax()),
                 "p_fake": float(p[LABEL_FAKE])} for item, p in zip(items, probs)]

    @staticmethod
    def hint_rows(dataset: Dataset, reports: dict) -> list[dict]:
        """Test-item predictions taken directly from report verdict hints;
        an undecided report falls back to the majority class (real)."""
        rows = []
        for item in dataset.split("test"):
            report = reports.get(item.id)
            fake = report is not None and report.verdict_hint is VerdictHint.LEANS_FAKE
            rows.append({"id": item.id, "label": item.label,
                         "prediction": LABEL_FAKE if fake else LABEL_REAL,
                         "p_fake": 1.0 if fake else 0.0})
        return rows

    # ---- full runs -------------------------------------------------------------

    def _metrics_from_rows(self, rows: list[dict]) -> MetricsReport:
        return compute_metrics([r["prediction"] for r in rows], [r["label"] for r in rows])

    def _run_variant(self, dataset: Dataset, variant: str, checkpoint_name: str) -> list[dict]:
        """The one stage sequence, giving the test split's prediction rows:
        debate, synthesize, encode, train and predict. ``no_debate`` skips
        the debate and encodes the news alone; ``no_analysis`` stops at the
        reports' verdict hints; ``no_roles`` trains on role-less samples
        (see ``build_samples``). Past the debate stage only the items with
        a transcript go on, so a lenient run drops its failed debates. Any
        name outside ``VARIANTS``, and any test item with no label, is a
        ValueError before the first stage."""
        if variant not in VARIANTS:
            raise ValueError(f"unknown ablation variant {variant!r}; valid: {list(VARIANTS)}")
        dataset.labeled_test_split()
        logs = {}
        if variant != "no_debate":
            logs, _ = self.run_debates(dataset)
            dataset = dataset.subset(logs)
            reports, _ = self.run_synthesis(logs)
            if variant == "no_analysis":
                return self.hint_rows(dataset, reports)
        samples = self.build_samples(dataset, logs, variant)
        model = self.train_model(dataset, samples, checkpoint_name)
        return self.predict_rows(model, dataset, samples)

    def evaluate_variant(self, dataset: Dataset, variant: str) -> MetricsReport:
        """Metric row for one ablation variant."""
        return self._metrics_from_rows(
            self._run_variant(dataset, variant, f"model-{variant}.bin"))

    def ablate(self, dataset: Dataset, toggles) -> dict[str, MetricsReport]:
        """Each variant's metrics, for the variants ``ablation_variants``
        gives; every toggle is checked before the first variant runs."""
        return {variant: self.evaluate_variant(dataset, variant)
                for variant in ablation_variants(toggles)}

    def write_predictions(self, rows: list[dict]) -> None:
        """The per-item outputs: ``predictions.jsonl``, and the explanation
        bundle ``explanations.jsonl``, which gives each item's prediction
        and its transcript and report files, the report as null where
        the item has no report file."""
        write_predictions_jsonl(self.workspace / "predictions.jsonl", rows)
        bundle = []
        for row in rows:
            report = f"reports/{row['id']}.json"
            bundle.append({"id": row["id"], "prediction": row["prediction"],
                           "transcript": f"transcripts/{row['id']}.json",
                           "report": report if (self.workspace / report).is_file() else None})
        write_jsonl(self.workspace / "explanations.jsonl", bundle)

    def run(self, dataset: Dataset) -> MetricsReport:
        """The full pipeline: debate, synthesize, encode, train, predict,
        evaluate. Persists the per-item outputs (``write_predictions``)
        and the metrics."""
        rows = self._run_variant(dataset, "full", CHECKPOINT)
        metrics = self._metrics_from_rows(rows)
        self.write_predictions(rows)
        write_json(self.workspace / "metrics.json", metrics.to_dict())
        return metrics
