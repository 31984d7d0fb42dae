#!/usr/bin/env python3
"""Print per-seed test accuracy on the planted-signal corpora, for four
(task, dims) cells over a range of model and training seeds, each run
once in float64 and once in float32 from the same seed.

Cells: the stance task (corpus seed 7) and the role task (corpus seed
11), each at criterion 7's dims (d_h 32, d_r 8, gat_hidden 16, d_p 16,
heads 4; 500 train / 200 test items; 20 epochs on stance, 30 on role)
and at the default dims (200 / 200 items, 5 epochs). Every run uses lr
5e-3, batch 32, hash embeddings of width d_h (salt 0), no validation
split, and the same seed for the model and for training. The samples
come from ``Pipeline.build_samples``, so both dtypes read the float32
rows a pipeline run feeds. Each cell ends with the mean and the
min-to-max spread of each dtype.

    PYTHONPATH=src python3 scripts/seed_table.py --seeds 16-25

Runs hermetically (synthetic debates, numpy only) and deterministically.
"""

from __future__ import annotations

import argparse
import tempfile
import time

import numpy as np

from veridebate.config import PipelineConfig
from veridebate.neural import AnalysisModel, ModelConfig, TrainConfig, accuracy, train
from veridebate.pipeline import Pipeline
from veridebate.synthetic import make_synthetic_corpus

CORPUS_SEEDS = {"stance": 7, "role": 11}
DTYPES = ("float64", "float32")
SMALL_DIMS = dict(d_h=32, d_r=8, gat_hidden=16, d_p=16, heads=4)
# (name, task, model dims, train items, test items, epochs)
CELLS = (
    ("c7-stance", "stance", SMALL_DIMS, 500, 200, 20),
    ("c7-role", "role", SMALL_DIMS, 500, 200, 30),
    ("default-stance", "stance", {}, 200, 200, 5),
    ("default-role", "role", {}, 200, 200, 5),
)


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def cell_samples(task: str, d_h: int, n_train: int, n_test: int):
    corpus = make_synthetic_corpus(n_train=n_train, n_test=n_test,
                                   seed=CORPUS_SEEDS[task], task=task)
    with tempfile.TemporaryDirectory() as workspace:
        samples = Pipeline(PipelineConfig(d_h=d_h), workspace).build_samples(corpus.dataset,
                                                                             corpus.logs)
    return [[samples[item.id] for item in corpus.dataset.split(split)]
            for split in ("train", "test")]


def run_cell(dims: dict, epochs: int, train_samples, test_samples, seed: int,
             dtype: str) -> float:
    model = AnalysisModel.create(ModelConfig(**dims, seed=seed, dtype=dtype))
    train(model, train_samples, TrainConfig(lr=5e-3, epochs=epochs, batch_size=32, seed=seed))
    return accuracy(model, test_samples)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("16-25"),
                        help="inclusive seed range, e.g. 16-25 (default)")
    args = parser.parse_args()

    for name, task, dims, n_train, n_test, epochs in CELLS:
        started = time.perf_counter()
        train_samples, test_samples = cell_samples(task, dims.get("d_h", ModelConfig.d_h),
                                                   n_train, n_test)
        values = {dtype: [] for dtype in DTYPES}
        for seed in args.seeds:
            for dtype in DTYPES:
                values[dtype].append(run_cell(dims, epochs, train_samples, test_samples,
                                              seed, dtype))
            print(f"{name:15s} seed {seed:3d}  acc "
                  + "  ".join(f"{dtype} {values[dtype][-1]:.3f}" for dtype in DTYPES),
                  flush=True)
        for dtype, accs in values.items():
            print(f"{name:15s} {dtype}  mean {np.mean(accs):.4f}  min {min(accs):.3f}  "
                  f"max {max(accs):.3f}  spread {max(accs) - min(accs):.3f}", flush=True)
        print(f"{name:15s} ({time.perf_counter() - started:.0f}s)", flush=True)


if __name__ == "__main__":
    main()
