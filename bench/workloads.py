"""The benchmark's workloads, their inputs and their output checks.

Every workload runs the real ``veridebate.pipeline.Pipeline`` on the
mock backend with hash embeddings over a stance-task synthetic corpus
generated from the workload seed. Model dims are the defaults (d_h=384,
gat_hidden=128, d_p=128, heads=4).

Shares of run_s below are from one traced run (seed 7) on a 2-vCPU
Xeon VM.

* ``ingest_cold`` - fresh workspace every run, debates generated through
  the mock gateway: the generation side (prompt rendering, gateway
  hashing, cache writes, hash embedder, embedding-cache writes) does
  most of the work. Debate 32%, synthesize 8%, encode 49% (embedding-
  cache writes 37%), train 5%, predict 4%.
* ``resume_warm`` - the same dataset rerun over the workspace one
  untimed ``ingest_cold`` run left: the same cache layers through their
  read path and 0 gateway calls. Encode 23%, train 40%, predict 28%,
  the largest predict share.
* ``train_warm`` - planted transcripts, reports and embeddings prefilled
  once: GAT, interaction attention, classifier, Adam and parameter
  flattening do almost all of the work. Train 89%, encode 6%.
* ``remote_latency`` - fresh workspace behind a latency-model backend
  with ``max_concurrency=2``: the only workload on the concurrent debate
  path, bound by endpoint latency, where CPU-side gains should not show.
  Debate 60%, synthesize 17%, encode 15%.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

from veridebate.config import PipelineConfig
from veridebate.evaluation import Dataset, load_dataset, write_dataset_jsonl
from veridebate.gateway import cache_key
from veridebate.pipeline import Pipeline, build_embedder, build_gateway
from veridebate.synthetic import make_synthetic_corpus, write_transcripts

# Chat calls per item: 8 debate turns plus the judge report.
CALLS_PER_ITEM = 9


@dataclass(frozen=True)
class Workload:
    name: str
    train: int
    val: int
    test: int
    epochs: int
    fresh: bool            # a new workspace for every run (cold caches)
    planted: bool = False  # corpus transcripts instead of generated debates
    latency: bool = False  # latency-model backend behind a 2-slot limiter
    min_accuracy: float | None = None

    @property
    def items(self) -> int:
        return self.train + self.val + self.test

    @property
    def expected_requests(self) -> int:
        return CALLS_PER_ITEM * self.items if self.fresh else 0

    def config(self) -> PipelineConfig:
        return PipelineConfig(epochs=self.epochs, max_concurrency=2 if self.latency else 1)

    def pipeline(self, workspace: Path) -> Pipeline:
        config = self.config()
        gateway = build_gateway(config, workspace)
        if self.latency:
            gateway.backend = LatencyBackend(gateway.backend)
        return Pipeline(config, workspace, gateway=gateway,
                        embedder=build_embedder(config, workspace))


# The generation-side workloads keep the train/val/test proportions of
# the shapes 40/10/550 and 40/10/100 at 1/5 scale, so a window holds
# several runs for a median. train_warm keeps 200/50/200, the
# smallest size at which every seed tried reaches test accuracy 1.0
# (100/25/100 fell to 0.73 on one seed).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("ingest_cold", 8, 2, 110, epochs=3, fresh=True),
        Workload("resume_warm", 8, 2, 110, epochs=3, fresh=False),
        Workload("train_warm", 200, 50, 200, epochs=5, fresh=False, planted=True,
                 min_accuracy=0.95),
        Workload("remote_latency", 8, 2, 20, epochs=3, fresh=True, latency=True),
    )
}


# Mean endpoint latency of the latency-model backend, and the items per
# split of the untimed warm-up run.
BASE_LATENCY_S = 0.010
WARMUP_PER_SPLIT = 4


class LatencyBackend:
    """Wraps a backend with a sleep of ``BASE_LATENCY_S * U`` before each
    call, where U in [0.5, 1.5) is a pure function of the request digest,
    so every run of the same inputs sleeps the same schedule."""

    def __init__(self, inner, sleep=time.sleep):
        self.inner = inner
        self.backend_id = inner.backend_id
        self._sleep = sleep

    def latency(self, req) -> float:
        return BASE_LATENCY_S * (0.5 + int(cache_key(req)[:16], 16) / 16**16)

    def complete(self, req) -> str:
        self._sleep(self.latency(req))
        return self.inner.complete(req)


def warmup_dataset(dataset: Dataset) -> Dataset:
    """The first few items of each split, for an untimed warm-up run that
    fills lazy state (imports, BLAS, regex and allocator caches)."""
    return Dataset(items=tuple(item for split in ("train", "val", "test")
                               for item in dataset.split(split)[:WARMUP_PER_SPLIT]))


def dataset_path(root: Path) -> Path:
    return root / "data.jsonl"


def workspace_path(root: Path, spec: Workload, index: int) -> Path:
    return root / (f"run{index}" if spec.fresh else "ws")


def prepare(spec: Workload, seed: int, root: Path) -> None:
    """Write the workload's dataset and, for warm workloads, fill the
    workspace its runs reuse."""
    corpus = make_synthetic_corpus(n_train=spec.train, n_val=spec.val, n_test=spec.test,
                                   seed=seed, task="stance")
    write_dataset_jsonl(corpus.dataset, dataset_path(root))
    if spec.fresh:
        return
    workspace = workspace_path(root, spec, 0)
    dataset = load_dataset(dataset_path(root))
    pipeline = spec.pipeline(workspace)
    if spec.planted:
        write_transcripts(corpus, workspace / "transcripts")
        logs, _ = pipeline.run_debates(dataset)
        pipeline.run_synthesis(logs)
        pipeline.build_samples(dataset, logs)
    else:
        pipeline.run(dataset)
    # Write the prefill to disk now, untimed, so its writeback cannot
    # land in the measuring window.
    for dirpath, _, files in os.walk(workspace):
        for name in files + ["."]:
            fd = os.open(os.path.join(dirpath, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def check_run(spec: Workload, dataset: Dataset, workspace: Path, stage_failures: int,
              requests: list[bool], reference: bytes | None) -> list[str]:
    """Problems with one run's outputs; empty when the run is correct.
    ``requests`` holds one cache-hit flag per gateway request."""
    problems = []
    if stage_failures:
        problems.append(f"{stage_failures} stage failure(s)")
    test_ids = [item.id for item in dataset.split("test")]
    rows = [json.loads(line) for line in
            (workspace / "predictions.jsonl").read_text(encoding="utf-8").splitlines()]
    if [row["id"] for row in rows] != test_ids:
        problems.append("predictions are not one row per test item")
    bad = [row["id"] for row in rows
           if not (math.isfinite(row["p_fake"]) and 0.0 <= row["p_fake"] <= 1.0)]
    if bad:
        problems.append(f"p_fake outside [0, 1] for {bad[:3]}")
    metrics = (workspace / "metrics.json").read_bytes()
    if reference is not None and metrics != reference:
        problems.append("metrics.json differs from the workload's first run")
    hits = sum(requests)
    if len(requests) != spec.expected_requests or (spec.fresh and hits):
        problems.append(f"{len(requests)} gateway requests with {hits} cache hits, "
                        f"expected {spec.expected_requests} with 0")
    if spec.min_accuracy is not None:
        accuracy = json.loads(metrics)["accuracy"]
        if accuracy < spec.min_accuracy:
            problems.append(f"test accuracy {accuracy} < {spec.min_accuracy}")
    return problems
