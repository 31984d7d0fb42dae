#!/usr/bin/env python3
"""Train on the planted-signal corpora and print an ablation table for each.

Runs hermetically: synthetic debates, hash embeddings, mock reports.
Each task runs the full pipeline and its three toggles (no_debate,
no_analysis, no_roles) through ``Pipeline.ablate``. Expect the full
model near-perfect on both tasks, the verdict-hint variant
(no_analysis) near chance, and the role-less variant (no_roles) near
chance on the role-dependent task.
"""

import argparse
import dataclasses
import tempfile
import time
from pathlib import Path

from veridebate.config import PipelineConfig
from veridebate.evaluation import format_ablation_table
from veridebate.pipeline import ABLATION_TOGGLES, Pipeline
from veridebate.synthetic import make_synthetic_corpus, write_transcripts

# (task, corpus seed, least epochs): the role signal takes 30 epochs to learn.
TASKS = (("stance", 7, 1), ("role", 11, 30))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train-size", type=int, default=500)
    parser.add_argument("--test-size", type=int, default=200)
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workspace", help="keep each task's workspace in a directory "
                                            "under this one instead of a temp dir")
    args = parser.parse_args()

    started = time.time()
    config = PipelineConfig(
        d_h=32, d_r=8, gat_hidden=16, gat_layers=2, d_p=16, heads=4,
        lr=5e-3, epochs=args.epochs, batch_size=32, seed=args.seed,
    )
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(args.workspace or tmp)
        for task, corpus_seed, least_epochs in TASKS:
            print(f"== {task} task ==")
            corpus = make_synthetic_corpus(n_train=args.train_size, n_test=args.test_size,
                                           seed=corpus_seed, task=task)
            write_transcripts(corpus, root / task / "transcripts")
            pipeline = Pipeline(dataclasses.replace(config, epochs=max(args.epochs, least_epochs)),
                                root / task)
            print(format_ablation_table(pipeline.ablate(corpus.dataset, ABLATION_TOGGLES)) + "\n")
    print(f"done in {time.time() - started:.0f}s")


if __name__ == "__main__":
    main()
