"""Training loop: seeded shuffling, Adam updates, per-epoch loss history,
and best-validation checkpointing."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adam import AdamState, adam_step
from .model import AnalysisModel, Sample, _labels, check_gradient, loss_and_grad

# Samples per forward pass when predicting; bounds peak memory on large
# splits.
PREDICT_CHUNK = 64


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 5e-3
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        # lr = 0 is a well-defined no-op update; PipelineConfig refuses it.
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"lr must be finite and non-negative, got {self.lr}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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
    """The share predicted right; an unlabeled sample is a ValueError."""
    labels = _labels(samples)
    return float((predict(model, samples) == labels).mean())


def train(model: AnalysisModel, train_samples: list[Sample], config: TrainConfig,
          val_samples: list[Sample] | None = None) -> TrainResult:
    """Train in place; deterministic for a fixed seed.

    The per-epoch loss history records the sample-weighted mean loss
    seen during the epoch. With a validation set, the parameters with
    the best validation accuracy are restored at the end (ties keep the
    earliest epoch). A non-finite gradient raises NumericalFault naming
    its parameter blocks, before the step that would apply it.
    """
    if not train_samples:
        raise ValueError("no training items")
    if val_samples:
        _labels(val_samples)  # an unlabeled val sample is refused before the first step
    rng = np.random.default_rng(config.seed)
    state = AdamState.create(model.flat, config.lr)

    # One gradient buffer serves every step, and one snapshot buffer
    # holds the best epoch's parameters.
    grad = np.empty_like(model.flat)
    best_params = np.empty_like(model.flat) if val_samples else None
    loss_history: list[float] = []
    val_history: list[float] = []
    best_epoch: int | None = None
    best_acc = -1.0

    n = len(train_samples)
    # A diverging run is reported once, by the NumericalFault below, not by numpy.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(n)
            total = 0.0
            for start in range(0, n, config.batch_size):
                batch = [train_samples[i] for i in order[start : start + config.batch_size]]
                loss, _ = loss_and_grad(model, batch, out=grad)
                total += loss * len(batch)
                try:
                    adam_step(model.flat, grad, state)
                except ValueError:
                    # adam_step refuses a non-finite gradient before it
                    # updates anything; name the blocks it came from.
                    check_gradient(model, grad)
                    raise
            loss_history.append(total / n)

            if val_samples:
                acc = accuracy(model, val_samples)
                val_history.append(acc)
                if acc > best_acc:
                    best_acc = acc
                    best_epoch = epoch
                    model.parameter_vector(out=best_params)

    if best_epoch is not None:
        model.set_parameter_vector(best_params)
    return TrainResult(loss_history, val_history, best_epoch)
