#!/usr/bin/env python3
"""Train on the planted-signal corpora and print an ablation table for
each cell and seed.

Cells: the stance task (corpus seed 7) and the role-dependent task
(corpus seed 11), each at criterion 7's dims (d_h 32, d_r 8,
gat_hidden 16, d_p 16, heads 4; 500 train / 200 test items; 20 epochs
on stance, 30 on role) and at the default dims (200 / 200 items, 5
epochs). Every run uses lr 5e-3, batch 32, hash embeddings of width d_h,
no validation split, and one seed for the model and for training.

Each (cell, seed) writes the corpus transcripts into its own workspace
and runs the full pipeline and its three toggles (no_debate,
no_analysis, no_roles) through ``Pipeline.ablate``. Expect the full
model near-perfect on both tasks, the verdict-hint variant
(no_analysis) near chance, and the role-less variant (no_roles) near
chance on the role-dependent task. With more than one seed, each cell
ends with each variant's mean, min, max and spread of test accuracy.

    PYTHONPATH=src python3 scripts/run_synthetic_experiment.py --seeds 16-25

Runs hermetically (synthetic debates, hash embeddings, mock reports)
and deterministically.
"""

import argparse
import statistics
import tempfile
import time
from pathlib import Path

from veridebate.config import PipelineConfig
from veridebate.evaluation import format_ablation_table
from veridebate.pipeline import ABLATION_TOGGLES, Pipeline
from veridebate.synthetic import make_synthetic_corpus, write_transcripts

SMALL_DIMS = dict(d_h=32, d_r=8, gat_hidden=16, d_p=16, heads=4)
# (name, task, corpus seed, model dims, train items, test items, epochs)
CELLS = (
    ("c7-stance", "stance", 7, SMALL_DIMS, 500, 200, 20),
    ("c7-role", "role", 11, SMALL_DIMS, 500, 200, 30),
    ("default-stance", "stance", 7, {}, 200, 200, 5),
    ("default-role", "role", 11, {}, 200, 200, 5),
)


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1"),
                        help="inclusive seed range, e.g. 16-25 (default 1)")
    parser.add_argument("--train-size", type=int, help="train items of every cell")
    parser.add_argument("--test-size", type=int, help="test items of every cell")
    parser.add_argument("--epochs", type=int, help="epochs of every cell")
    parser.add_argument("--workspace", help="keep each (cell, seed) workspace in a directory "
                                            "under this one instead of a temp dir")
    args = parser.parse_args()

    started = time.time()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(args.workspace or tmp)
        for name, task, corpus_seed, dims, n_train, n_test, epochs in CELLS:
            corpus = make_synthetic_corpus(
                n_train=n_train if args.train_size is None else args.train_size,
                n_test=n_test if args.test_size is None else args.test_size,
                seed=corpus_seed, task=task)
            config = dict(dims, lr=5e-3, batch_size=32,
                          epochs=epochs if args.epochs is None else args.epochs)
            accuracies: dict[str, list[float]] = {}
            for seed in args.seeds:
                # Reused reports do not depend on the seed: one workspace per seed.
                workspace = root / name / f"seed-{seed}"
                write_transcripts(corpus, workspace / "transcripts")
                table = Pipeline(PipelineConfig(**config, seed=seed), workspace).ablate(
                    corpus.dataset, ABLATION_TOGGLES)
                print(f"== {name} seed {seed} ==\n{format_ablation_table(table)}\n", flush=True)
                for variant, metrics in table.items():
                    accuracies.setdefault(variant, []).append(metrics.accuracy)
            if len(args.seeds) > 1:
                for variant, accs in accuracies.items():
                    print(f"{name:15s} {variant:12s} mean {statistics.fmean(accs):.4f}  "
                          f"min {min(accs):.3f}  max {max(accs):.3f}  "
                          f"spread {max(accs) - min(accs):.3f}")
                print(flush=True)
    print(f"done in {time.time() - started:.0f}s")


if __name__ == "__main__":
    main()
