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
def mock_gateway():
    return Gateway(MockBackend())


@pytest.fixture
def default_log(news_item, mock_gateway):
    return run_debate(news_item, DebateConfig(), mock_gateway)


def tiny_model(mode: str = "nodes", layers: int = 2, seed: int = 0,
               heads: int = 1) -> AnalysisModel:
    config = ModelConfig(
        d_h=4, d_r=2, gat_hidden=5, gat_layers=layers, d_p=4, heads=heads,
        interaction_mode=mode, seed=seed,
    )
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
