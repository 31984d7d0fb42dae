"""Training loop: seeded shuffling, Adam updates, per-epoch loss history,
and best-validation checkpointing."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adam import AdamState, adam_step
from .model import AnalysisModel, Sample, loss_and_grad

# Samples per forward pass when predicting; bounds peak memory on large
# splits.
PREDICT_CHUNK = 64


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 5e-3
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0
    # Parameter blocks whose gradients are zeroed before each update
    # (e.g. to freeze a zeroed role table for an ablation).
    freeze_blocks: tuple[str, ...] = ()


@dataclass
class TrainResult:
    loss_history: list[float]
    val_accuracy_history: list[float]
    best_epoch: int | None


def predict_proba(model: AnalysisModel, samples: list[Sample]) -> np.ndarray:
    """(len(samples), 2) class probabilities, in chunks of PREDICT_CHUNK."""
    return np.concatenate([model.forward(samples[start : start + PREDICT_CHUNK])[0]
                           for start in range(0, len(samples), PREDICT_CHUNK)])


def predict(model: AnalysisModel, samples: list[Sample]) -> np.ndarray:
    return predict_proba(model, samples).argmax(axis=1)


def accuracy(model: AnalysisModel, samples: list[Sample]) -> float:
    labels = np.array([s.label for s in samples])
    return float((predict(model, samples) == labels).mean())


def train(model: AnalysisModel, train_samples: list[Sample], config: TrainConfig,
          val_samples: list[Sample] | None = None) -> TrainResult:
    """Train in place; deterministic for a fixed seed.

    The per-epoch loss history records the sample-weighted mean loss
    seen during the epoch. With a validation set, the parameters with
    the best validation accuracy are restored at the end (ties keep the
    earliest epoch).
    """
    if not train_samples:
        raise ValueError("no training items")
    rng = np.random.default_rng(config.seed)
    state = AdamState.create(model.num_params, config.lr)

    frozen_mask = None
    if config.freeze_blocks:
        slices = dict(model.block_slices())
        unknown = set(config.freeze_blocks) - set(slices)
        if unknown:
            raise ValueError(f"unknown parameter blocks to freeze: {sorted(unknown)}")
        frozen_mask = np.ones(model.num_params)
        for name in config.freeze_blocks:
            frozen_mask[slices[name]] = 0.0

    loss_history: list[float] = []
    val_history: list[float] = []
    best_epoch: int | None = None
    best_acc = -1.0
    best_params: np.ndarray | None = None

    n = len(train_samples)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            batch = [train_samples[i] for i in order[start : start + config.batch_size]]
            loss, grad = loss_and_grad(model, batch)
            total += loss * len(batch)
            if frozen_mask is not None:
                grad = grad * frozen_mask
            adam_step(model.flat, grad, state)
        loss_history.append(total / n)

        if val_samples:
            acc = accuracy(model, val_samples)
            val_history.append(acc)
            if acc > best_acc:
                best_acc = acc
                best_epoch = epoch
                best_params = model.parameter_vector()

    if best_params is not None:
        model.set_parameter_vector(best_params)
    return TrainResult(loss_history, val_history, best_epoch)
