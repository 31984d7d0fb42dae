"""Dataset ingestion and the metric suite.

Datasets are JSONL files with one {id, content, label, split} object
per line; labels may be "real"/"fake" strings or 0/1 integers. Metrics
are per-class F1 (zero when a class has no predicted and no actual
positives), their unweighted mean (macro F1), and accuracy. The
ablation harness re-runs a pipeline with components switched off and
tabulates the resulting metrics.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass
from pathlib import Path

from .domain import LABEL_FAKE, LABEL_NAMES, LABEL_REAL, NewsItem, label_to_int
from .files import write_jsonl

logger = logging.getLogger(__name__)

ABLATION_TOGGLES = ("no_debate", "no_analysis")


class DatasetError(ValueError):
    pass


@dataclass(frozen=True)
class Dataset:
    items: tuple[NewsItem, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        seen: set[str] = set()
        for item in self.items:
            if item.id in seen:
                raise ValueError(f"duplicate id {item.id!r} in dataset")
            seen.add(item.id)

    def __len__(self) -> int:
        return len(self.items)

    def split(self, name: str) -> tuple[NewsItem, ...]:
        return tuple(item for item in self.items if item.split == name)


def load_dataset(path: str | Path, strict: bool = True) -> Dataset:
    """Parse a JSONL dataset file.

    In strict mode any malformed line, duplicate id, or missing label
    raises with the offending line numbers; in lenient mode bad lines
    are skipped with a warning.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset file not found: {path}")

    items: list[NewsItem] = []
    seen_ids: set[str] = set()
    problems: list[str] = []
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("line is not a JSON object")
            item_id = str(record["id"])
            if item_id in seen_ids:
                raise ValueError(f"duplicate id {item_id!r}")
            label = record.get("label")
            if label is None and strict:
                raise ValueError("missing label")
            item = NewsItem(
                id=item_id,
                content=record["content"],
                label=None if label is None else label_to_int(label),
                split=record.get("split"),
            )
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"line {line_no}: {exc}")
            continue
        seen_ids.add(item_id)
        items.append(item)

    if problems:
        if strict:
            raise DatasetError(
                f"{path}: {len(problems)} malformed line(s): " + "; ".join(problems[:10])
            )
        for problem in problems:
            logger.warning("%s: skipped %s", path, problem)
    if not items:
        raise DatasetError(f"{path}: no items")
    return Dataset(items=tuple(items))


def write_dataset_jsonl(dataset: Dataset, path: str | Path) -> None:
    """Persist a dataset in the form ``load_dataset`` reads, labels as names."""
    write_jsonl(path, [{"id": item.id, "content": item.content, "split": item.split,
                        "label": None if item.label is None else LABEL_NAMES[item.label]}
                       for item in dataset.items])


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricsReport:
    n_items: int
    confusion: dict  # per class name: {tp, fp, fn, tn}
    accuracy: float
    f1_real: float
    f1_fake: float
    macro_f1: float

    def to_dict(self) -> dict:
        return asdict(self)

    def format_table(self) -> str:
        rows = [
            ("items", f"{self.n_items}"),
            ("accuracy", f"{self.accuracy:.4f}"),
            ("macro_f1", f"{self.macro_f1:.4f}"),
            ("f1_real", f"{self.f1_real:.4f}"),
            ("f1_fake", f"{self.f1_fake:.4f}"),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def _f1(tp: int, fp: int, fn: int) -> float:
    # Convention: F1 = 0 when there are neither predicted nor actual
    # positives for the class.
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 0.0
    return 2 * tp / denom


def compute_metrics(predictions, labels) -> MetricsReport:
    predictions = list(predictions)
    labels = list(labels)
    if len(predictions) != len(labels):
        raise ValueError(
            f"got {len(predictions)} predictions for {len(labels)} labels"
        )
    if not predictions:
        raise ValueError("cannot compute metrics over zero items")
    for value in predictions + labels:
        if value not in (LABEL_REAL, LABEL_FAKE):
            raise ValueError(f"class values must be 0 or 1, got {value!r}")

    confusion = {}
    f1 = {}
    for cls, name in LABEL_NAMES.items():
        tp = sum(1 for p, y in zip(predictions, labels) if p == cls and y == cls)
        fp = sum(1 for p, y in zip(predictions, labels) if p == cls and y != cls)
        fn = sum(1 for p, y in zip(predictions, labels) if p != cls and y == cls)
        tn = len(labels) - tp - fp - fn
        confusion[name] = {"tp": tp, "fp": fp, "fn": fn, "tn": tn}
        f1[name] = _f1(tp, fp, fn)

    correct = sum(1 for p, y in zip(predictions, labels) if p == y)
    return MetricsReport(
        n_items=len(labels),
        confusion=confusion,
        accuracy=correct / len(labels),
        f1_real=f1["real"],
        f1_fake=f1["fake"],
        macro_f1=(f1["real"] + f1["fake"]) / 2,
    )


def write_predictions_jsonl(path: str | Path, rows: list[dict]) -> None:
    """Persist per-item predictions as {id, label, prediction, p_fake}."""
    write_jsonl(path, rows)


# --------------------------------------------------------------------------
# Ablations
# --------------------------------------------------------------------------


def run_ablation(toggles, pipeline, dataset: Dataset) -> dict[str, MetricsReport]:
    """Evaluate the full pipeline and each requested ablation variant.

    ``pipeline`` must expose ``evaluate_variant(dataset, variant)``
    returning a MetricsReport; variants are "full" plus the requested
    toggles.
    """
    toggles = tuple(toggles)
    unknown = [t for t in toggles if t not in ABLATION_TOGGLES]
    if unknown:
        raise ValueError(
            f"unknown ablation toggles {unknown}; valid: {list(ABLATION_TOGGLES)}"
        )
    table: dict[str, MetricsReport] = {}
    for variant in ("full",) + toggles:
        table[variant] = pipeline.evaluate_variant(dataset, variant)
    return table


def format_ablation_table(table: dict[str, MetricsReport]) -> str:
    header = f"{'variant':<14} {'macF1':>8} {'acc':>8} {'f1_real':>8} {'f1_fake':>8}"
    lines = [header, "-" * len(header)]
    for variant, report in table.items():
        lines.append(
            f"{variant:<14} {report.macro_f1:>8.4f} {report.accuracy:>8.4f} "
            f"{report.f1_real:>8.4f} {report.f1_fake:>8.4f}"
        )
    return "\n".join(lines)
