"""Command-line surface.

    veridebate debate|synthesize|train|predict|evaluate|pipeline|ablate
        --config FILE --dataset FILE --out DIR --seed N
        --backend {mock,remote} --strict

Every command operates on a run workspace (--out): transcripts, reports,
caches, checkpoints, and result files accumulate there, which makes
reruns cheap and ablation runs side-by-side comparable. The staged
debate, synthesize, train, predict, evaluate sequence writes the bytes
``pipeline`` writes, explanation bundle included. Exit code is 0 iff
the command completed; under --strict, a failed item in the debate or
synthesis stage stops any command there with exit code 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
import time
from pathlib import Path

from .config import PipelineConfig, load_config
from .evaluation import compute_metrics, format_ablation_table, load_dataset
from .files import write_json
from .neural import load_model
from .pipeline import ABLATION_TOGGLES, Pipeline, StageError, ablation_variants

logger = logging.getLogger("veridebate")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="INI config file (flags override it)")
    parser.add_argument("--dataset", help="JSONL dataset path")
    parser.add_argument("--out", help="run workspace directory")
    parser.add_argument("--seed", type=int, help="seed for debates, init, and shuffling")
    parser.add_argument("--backend", choices=["mock", "remote"], help="generation backend")
    parser.add_argument("--strict", action="store_true", default=None,
                        help="treat per-item failures as fatal")


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    overrides = {
        key: getattr(args, key)
        for key in ("dataset", "out", "seed", "backend", "strict")
        if getattr(args, key, None) is not None
    }
    return dataclasses.replace(load_config(args.config), **overrides)


def _workspace(config: PipelineConfig) -> Path:
    if config.out:
        return Path(config.out)
    # Unnamed runs land in a fresh timestamp+seed workspace so repeated
    # experiments never clobber each other.
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return Path("runs") / f"{stamp}-seed{config.seed}"


def _existing_workspace(config: PipelineConfig, command: str) -> Path:
    """The workspace a command that reads one works in: --out, which must
    name an existing directory; nothing is created."""
    if not config.out or not Path(config.out).is_dir():
        raise SystemExit(f"{command} reads an existing workspace: --out (or [paths] out) "
                         f"must name one, got {config.out or 'none'}")
    return Path(config.out)


def _dataset(config: PipelineConfig):
    if not config.dataset:
        raise SystemExit("a dataset is required (--dataset or [paths] dataset)")
    return load_dataset(config.dataset, strict=config.strict)


def _setup(config: PipelineConfig):
    """The dataset, then the pipeline over the workspace; a dataset error
    stops the command before the workspace is created."""
    dataset = _dataset(config)
    return Pipeline(config, _workspace(config)), dataset


def cmd_debate(config: PipelineConfig, args: argparse.Namespace) -> int:
    pipeline, dataset = _setup(config)
    _, report = pipeline.run_debates(dataset)
    print(
        f"debate: {report.processed} generated, {report.skipped} reused, "
        f"{len(report.failures)} failed -> {pipeline.workspace / 'transcripts'}"
    )
    return 0


def cmd_synthesize(config: PipelineConfig, args: argparse.Namespace) -> int:
    pipeline, dataset = _setup(config)
    logs, debate_report = pipeline.run_debates(dataset)
    _, report = pipeline.run_synthesis(logs)
    failures = len(debate_report.failures) + len(report.failures)
    print(
        f"synthesize: {report.processed} written, {report.skipped} reused, "
        f"{failures} failed -> {pipeline.workspace / 'reports'}"
    )
    return 0


def cmd_train(config: PipelineConfig, args: argparse.Namespace) -> int:
    pipeline, dataset = _setup(config)
    logs, _ = pipeline.run_debates(dataset)
    dataset = dataset.subset(logs)
    pipeline.train_model(dataset, pipeline.build_samples(dataset, logs))
    print(f"train: checkpoint -> {pipeline.checkpoint_path()}")
    return 0


def cmd_predict(config: PipelineConfig, args: argparse.Namespace) -> int:
    _existing_workspace(config, "predict")
    pipeline, dataset = _setup(config)
    checkpoint = pipeline.checkpoint_path()
    if not checkpoint.exists():
        raise SystemExit(f"no checkpoint at {checkpoint}; run `veridebate train` first")
    model = load_model(checkpoint, pipeline.embedder.provider_id)
    logs, _ = pipeline.run_debates(dataset)
    dataset = dataset.subset(logs)
    rows = pipeline.predict_rows(model, dataset, pipeline.build_samples(dataset, logs))
    pipeline.write_predictions(rows)
    print(f"predict: {len(rows)} rows -> {pipeline.workspace / 'predictions.jsonl'}")
    return 0


def _read_predictions(path: Path) -> list[dict]:
    """The rows of a predictions file, each a JSON object with an id and a prediction."""
    rows = []
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except ValueError:
            row = None
        if not isinstance(row, dict) or "id" not in row or "prediction" not in row:
            raise ValueError(f"{path}: line {line_no} is not a JSON object with an id "
                             "and a prediction; rerun `veridebate predict`")
        rows.append(row)
    return rows


def cmd_evaluate(config: PipelineConfig, args: argparse.Namespace) -> int:
    """Score predictions.jsonl, which must hold one row per test item of
    the dataset, in order, against the dataset's own labels, which every
    test item must have; otherwise exit 1 and leave metrics.json be."""
    workspace = _existing_workspace(config, "evaluate")
    test_items = _dataset(config).labeled_test_split()
    test_ids = [item.id for item in test_items]
    predictions_path = workspace / "predictions.jsonl"
    if not predictions_path.exists():
        raise SystemExit(f"no predictions at {predictions_path}; run `veridebate predict`")
    rows = _read_predictions(predictions_path)
    row_ids = [r["id"] for r in rows]
    if row_ids != test_ids:
        missing = sorted(set(test_ids) - set(row_ids))[:5]
        unexpected = sorted(set(row_ids) - set(test_ids))[:5]
        raise ValueError(
            f"{predictions_path}: its {len(row_ids)} row ids do not match the dataset's "
            f"{len(test_ids)} test ids (missing {missing}, unexpected {unexpected}); "
            "rerun `veridebate predict`"
        )
    metrics = compute_metrics([r["prediction"] for r in rows], [item.label for item in test_items])
    write_json(workspace / "metrics.json", metrics.to_dict())
    print(metrics.format_table())
    return 0


def cmd_pipeline(config: PipelineConfig, args: argparse.Namespace) -> int:
    pipeline, dataset = _setup(config)
    metrics = pipeline.run(dataset)
    print(metrics.format_table())
    print(f"pipeline: artifacts -> {pipeline.workspace}")
    return 0


def cmd_ablate(config: PipelineConfig, args: argparse.Namespace) -> int:
    names = tuple(t.strip() for t in args.toggles.split(",") if t.strip())
    ablation_variants(names)  # a refused toggle stops before the workspace is created
    pipeline, dataset = _setup(config)
    table = pipeline.ablate(dataset, names)
    out = pipeline.workspace / "ablation.json"
    write_json(out, {variant: report.to_dict() for variant, report in table.items()})
    print(format_ablation_table(table))
    print(f"ablate: table -> {out}")
    return 0


COMMANDS = {
    "debate": (cmd_debate, "run debates and write one transcript per item"),
    "synthesize": (cmd_synthesize, "write a judge report per existing transcript"),
    "train": (cmd_train, "train the classifier on the train split"),
    "predict": (cmd_predict, "write per-item predictions for the test split"),
    "evaluate": (cmd_evaluate, "score an existing predictions file"),
    "pipeline": (cmd_pipeline, "run all stages end to end"),
    "ablate": (cmd_ablate, "run component-removal variants and tabulate metrics"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="veridebate")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, hint) in COMMANDS.items():
        command = sub.add_parser(name, help=hint)
        _add_common(command)
        if name == "ablate":
            toggles = ",".join(ABLATION_TOGGLES)
            command.add_argument("--toggles", default=toggles,
                                 help=f"comma-separated subset of {toggles}")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        handler, _ = COMMANDS[args.command]
        return handler(config, args)
    except (StageError, ValueError, OSError) as exc:
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
