import dataclasses
import json

import numpy as np
import pytest

from veridebate.domain import DebateConfig, NewsItem
from veridebate.engine import run_debate
from veridebate.gateway import Gateway, MockBackend
from veridebate.neural import AnalysisModel, ModelConfig


@pytest.fixture
def news_item():
    return NewsItem(
        id="n-001",
        content="City officials confirmed a bridge closure downtown after an inspection.",
        label=0,
        split="test",
    )


@pytest.fixture
def fresh_cache(tmp_path_factory):
    """Makes a new, empty cache directory on each call."""
    return lambda: tmp_path_factory.mktemp("gen")


@pytest.fixture
def mock_gateway(fresh_cache):
    return Gateway(MockBackend(), fresh_cache())


@pytest.fixture
def default_log(news_item, mock_gateway):
    return run_debate(news_item, DebateConfig(), mock_gateway)


def tiny_model(seed: int = 0, heads: int = 1) -> AnalysisModel:
    """A float64 model, for comparisons at float64 tolerances."""
    config = ModelConfig(d_h=4, d_r=2, gat_hidden=5, d_p=4, heads=heads, seed=seed,
                         dtype="float64")
    return AnalysisModel.create(config)


class CountingBackend:
    """Mock backend that counts completion calls."""

    backend_id = "counting-mock"

    def __init__(self):
        self.calls = 0
        self._inner = MockBackend()

    def complete(self, req):
        self.calls += 1
        return self._inner.complete(req)


class CountingProvider:
    """Embedding provider wrapper that counts embed calls."""

    def __init__(self, inner):
        self.inner = inner
        self.provider_id = inner.provider_id
        self.dim = inner.dim
        self.calls = 0

    def embed_text(self, text):
        self.calls += 1
        return self.inner.embed_text(text)


class PoisonedProvider(CountingProvider):
    """Counting provider that returns ``vector`` for ``text`` and the
    inner provider's embedding for every other text."""

    def __init__(self, inner, text, vector):
        super().__init__(inner)
        self.text, self.vector = text, vector

    def embed_text(self, text):
        return self.vector if text == self.text else super().embed_text(text)


def factored_param_count(config: ModelConfig) -> int:
    """Parameters of the version-1 checkpoint layout, which held the last
    GAT layer's projection and attention vector and the interaction's
    graph_proj as factors: 418,210 at default dims."""
    node_dim = 2 * config.d_h
    count = 10 * config.d_r + config.d_h * config.d_r
    # The hidden layer, then the last layer's projection and attention vector.
    count += config.gat_hidden * node_dim + 2 * config.gat_hidden
    count += node_dim * config.gat_hidden + 2 * node_dim
    count += config.d_p * (node_dim + config.d_h + 4 * config.d_p)
    return count + 2 * 2 * config.d_p + 2


def write_float64_checkpoint(path, config: ModelConfig, provider_id: str, version: int,
                             param_count: int) -> None:
    """A checkpoint as versions 1 and 2 wrote it: no dtype in the header,
    and ``param_count`` zeros as little-endian float64."""
    fields = {k: v for k, v in dataclasses.asdict(config).items() if k != "dtype"}
    header = {"format": "veridebate-checkpoint", "version": version, **fields,
              "labels": {"real": 0, "fake": 1}, "param_count": param_count,
              "provider_id": provider_id}
    payload = np.zeros(param_count, dtype="<f8").tobytes()
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)


def write_factored_checkpoint(path, config: ModelConfig, provider_id: str) -> None:
    """A checkpoint as version 1 wrote it, with the factored layout's
    parameter count (all zeros)."""
    write_float64_checkpoint(path, config, provider_id, 1, factored_param_count(config))
