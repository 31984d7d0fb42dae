#!/usr/bin/env python3
"""Train on the planted-signal corpora and print the ablation picture.

Runs hermetically: synthetic debates, hash embeddings, mock reports.
Expect the full model near-perfect on both tasks, the verdict-hint
variant near chance, and the zeroed-role variant at chance on the
role-dependent task.
"""

import argparse
import tempfile
import time
from pathlib import Path

import numpy as np

from veridebate.config import PipelineConfig
from veridebate.encoding import HashEmbeddingProvider
from veridebate.evaluation import format_ablation_table
from veridebate.neural import (
    AnalysisModel,
    ModelConfig,
    TrainConfig,
    accuracy,
    make_sample,
    train,
)
from veridebate.pipeline import Pipeline
from veridebate.synthetic import make_synthetic_corpus, write_transcripts


def samples_for(corpus, provider, split):
    out = []
    for item in corpus.dataset.split(split):
        log = corpus.logs[item.id]
        embs = np.stack([provider.embed_text(t.text) for t in log.turns])
        out.append(make_sample(log, embs, provider.embed_text(item.content), item.label))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train-size", type=int, default=500)
    parser.add_argument("--test-size", type=int, default=200)
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workspace", help="keep artifacts here instead of a temp dir")
    args = parser.parse_args()

    started = time.time()
    config = PipelineConfig(
        d_h=32, d_r=8, gat_hidden=16, gat_layers=2, d_p=16, heads=4,
        lr=5e-3, epochs=args.epochs, batch_size=32, seed=args.seed,
    )

    print("== stance-signal task: pipeline ablations ==")
    corpus = make_synthetic_corpus(n_train=args.train_size, n_test=args.test_size,
                                   seed=7, task="stance")
    with tempfile.TemporaryDirectory() as tmp:
        workspace = Path(args.workspace) if args.workspace else Path(tmp) / "ws"
        write_transcripts(corpus, workspace / "transcripts")
        pipeline = Pipeline(config, workspace)
        table = pipeline.ablate(corpus.dataset, ("no_debate", "no_analysis"))
        print(format_ablation_table(table))

    print("\n== role-dependent task: role-embedding ablation ==")
    role_corpus = make_synthetic_corpus(n_train=args.train_size, n_test=args.test_size,
                                        seed=11, task="role")
    provider = HashEmbeddingProvider(dim=32, seed=0)
    train_samples = samples_for(role_corpus, provider, "train")
    test_samples = samples_for(role_corpus, provider, "test")
    model_config = ModelConfig(d_h=32, d_r=8, gat_hidden=16, gat_layers=2, d_p=16,
                               heads=4, seed=args.seed)
    train_config = TrainConfig(lr=5e-3, epochs=max(args.epochs, 30), batch_size=32,
                               seed=args.seed)

    model = AnalysisModel.create(model_config)
    train(model, train_samples, train_config)
    print(f"with role embeddings:            acc {accuracy(model, test_samples):.3f}")

    ablated = AnalysisModel.create(model_config)
    ablated.role_table.embeddings[:] = 0.0
    train(ablated, train_samples,
          TrainConfig(lr=train_config.lr, epochs=train_config.epochs,
                      batch_size=train_config.batch_size, seed=train_config.seed,
                      freeze_blocks=("role_embeddings", "role_projection")))
    print(f"role table zeroed and frozen:    acc {accuracy(ablated, test_samples):.3f}")
    print(f"\ndone in {time.time() - started:.0f}s")


if __name__ == "__main__":
    main()
