"""Pipeline configuration.

One INI-style file (sections [gateway], [debate], [embedding], [model],
[paths]) holds a full experiment manifest; command-line flags override
file values. Defaults run the hermetic mock stack.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from .domain import DebateConfig
from .neural.model import ModelConfig
from .neural.train import TrainConfig


def _in(section: str, default):
    """A field set from ``[section]`` of the config file."""
    return field(default=default, metadata={"section": section})


@dataclass
class PipelineConfig:
    backend: str = _in("gateway", "mock")
    endpoint: str = _in("gateway", "")
    model_name: str = _in("gateway", "gpt-4o-mini")
    requests_per_minute: float = _in("gateway", 0.0)  # 0 disables pacing
    max_concurrency: int = _in("gateway", 1)

    agents_per_team: int = _in("debate", 2)
    temperature: float = _in("debate", 0.7)
    max_tokens: int = _in("debate", 300)
    history_char_budget: int = _in("debate", 6000)
    language: str = _in("debate", "en")

    provider: str = _in("embedding", "hash")
    d_h: int = _in("embedding", 384)
    embed_seed: int = _in("embedding", 0)
    embedding_endpoint: str = _in("embedding", "")
    embedding_model: str = _in("embedding", "text-embedding-3-small")

    d_r: int = _in("model", 16)
    gat_hidden: int = _in("model", 128)
    gat_layers: int = _in("model", 2)
    d_p: int = _in("model", 128)
    heads: int = _in("model", 4)
    interaction_mode: str = _in("model", "nodes")
    lr: float = _in("model", 5e-3)
    epochs: int = _in("model", 30)
    batch_size: int = _in("model", 32)

    dataset: str = _in("paths", "")
    out: str = _in("paths", "")
    seed: int = _in("paths", 0)
    strict: bool = _in("paths", False)

    def __post_init__(self):
        """Validate every setting, so a bad value fails at load, before any
        stage starts."""
        if self.backend not in ("mock", "remote"):
            raise ValueError(f"backend must be 'mock' or 'remote', got {self.backend!r}")
        if self.provider not in ("hash", "remote"):
            raise ValueError(f"provider must be 'hash' or 'remote', got {self.provider!r}")
        if self.language not in ("en", "cn"):
            raise ValueError("language must be 'en' or 'cn'")
        self.debate_config()
        self.model_config()
        self.train_config()

    def _stage_config(self, cls):
        """A ``cls`` built from this config's fields of the same names;
        its other fields keep their defaults."""
        ours = {f.name for f in dataclasses.fields(self)}
        return cls(**{f.name: getattr(self, f.name)
                      for f in dataclasses.fields(cls) if f.name in ours})

    def debate_config(self) -> DebateConfig:
        return self._stage_config(DebateConfig)

    def model_config(self) -> ModelConfig:
        return self._stage_config(ModelConfig)

    def train_config(self) -> TrainConfig:
        return self._stage_config(TrainConfig)


def load_config(path: str | Path | None = None) -> PipelineConfig:
    """Read a config file into a PipelineConfig; absent keys keep their
    defaults. Unknown keys are rejected so typos fail loudly."""
    if path is None:
        return PipelineConfig()
    parser = configparser.ConfigParser()
    read = parser.read(str(path))
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    fields = {f.name: f for f in dataclasses.fields(PipelineConfig)}
    sections = {f.metadata["section"] for f in fields.values()}
    values = {}
    for section in parser.sections():
        if section not in sections:
            raise ValueError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in fields or fields[key].metadata["section"] != section:
                raise ValueError(f"unknown key {key!r} in section [{section}]")
            values[key] = _coerce(raw, fields[key].type)
    return PipelineConfig(**values)


def _coerce(raw: str, field_type: str):
    if field_type == "int":
        return int(raw)
    if field_type == "float":
        return float(raw)
    if field_type == "bool":
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    return raw
