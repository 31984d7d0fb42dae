"""Hand-rolled numerical core for the debate classifier.

Graph attention layers, the debate-news interactive attention block,
the softmax classifier, exact reverse-mode gradients for all of it, an
Adam optimizer, and the training loop. Everything runs on numpy over
one padded dense batch (see ``model.collate``), in the model's dtype:
float32 by default, matching the float32 embedding rows, or float64.
No autograd framework is involved, which is what makes the
finite-difference oracle in the test suite, run on float64 models,
meaningful.
"""

from .adam import AdamState, adam_step
from .attention import InteractionHead, interact
from .checkpoint import load_model, save_model
from .gat import GatLayer, gat_forward
from .model import (
    AnalysisModel,
    ClassifierHead,
    ModelConfig,
    NumericalFault,
    Sample,
    backward,
    batch_loss,
    classify,
    cross_entropy,
    global_mean_pool,
    make_news_only_sample,
    make_sample,
)
from .train import TrainConfig, TrainResult, accuracy, predict, predict_proba, train

__all__ = [
    "AdamState",
    "AnalysisModel",
    "ClassifierHead",
    "GatLayer",
    "InteractionHead",
    "ModelConfig",
    "NumericalFault",
    "Sample",
    "TrainConfig",
    "TrainResult",
    "accuracy",
    "adam_step",
    "backward",
    "batch_loss",
    "classify",
    "cross_entropy",
    "gat_forward",
    "global_mean_pool",
    "interact",
    "load_model",
    "make_news_only_sample",
    "make_sample",
    "predict",
    "predict_proba",
    "save_model",
    "train",
]
