"""Model checkpoints: one JSON header line (dims, seed, dtype, label
convention, the embedder's provider id) followed by the flat parameter
vector as little-endian values of the header's dtype (``<f4`` or
``<f8``)."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from ..files import atomic_write
from .adam import all_finite
from .model import AnalysisModel, ModelConfig

FORMAT_NAME = "veridebate-checkpoint"
# 2: gat<L>.score and interaction.graph_map replace version 1's
# gat<L>.weight, gat<L>.attn and interaction.graph_proj.
# 3: the header records the dtype, and the payload is in it.
FORMAT_VERSION = 3


def save_model(path: str | Path, model: AnalysisModel, provider_id: str) -> None:
    """Write the checkpoint of a model trained on ``provider_id``'s
    embeddings atomically; the payload is ``model.flat`` itself (no copy
    on a little-endian machine)."""
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        **dataclasses.asdict(model.config),
        "labels": {"real": 0, "fake": 1},
        "param_count": model.num_params,
        "provider_id": provider_id,
    }
    atomic_write(path, [json.dumps(header, sort_keys=True) + "\n",
                        model.flat.astype(model.flat.dtype.newbyteorder("<"), copy=False)])


def load_model(path: str | Path, provider_id: str) -> AnalysisModel:
    """Read a checkpoint to score ``provider_id``'s embeddings, checking
    its header and format version, its embedder, payload size,
    parameter count and finiteness; any defect is a ValueError that
    names the file. A header key that is no ``ModelConfig`` field is
    ignored; the parameter count refuses a file of another shape. An
    ``interaction_mode`` other than ``"nodes"`` is refused: such a model
    attended over its pooled debate vector, which this program does not
    compute."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
        if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
            raise ValueError(f"not a {FORMAT_NAME} file")
        if header["version"] != FORMAT_VERSION:
            raise ValueError(f"format version {header['version']!r}, but this program "
                             f"reads version {FORMAT_VERSION}")
        if header["provider_id"] != provider_id:
            raise ValueError(f"trained on embeddings from {header['provider_id']!r}, "
                             f"but the configured embedder is {provider_id!r}")
        if header.get("interaction_mode", "nodes") != "nodes":
            raise ValueError(f"interaction mode {header['interaction_mode']!r}, but this "
                             "program runs only 'nodes'")
        config = ModelConfig(**{f.name: header[f.name]
                                for f in dataclasses.fields(ModelConfig)})
        model = AnalysisModel.create(config)
        dtype = model.flat.dtype.newbyteorder("<")
        if len(payload) % dtype.itemsize:
            raise ValueError(f"payload of {len(payload)} bytes is not a whole number "
                             f"of {config.dtype} values")
        vector = np.frombuffer(payload, dtype=dtype)
        if vector.size != header["param_count"] or vector.size != model.num_params:
            raise ValueError(f"holds {vector.size} parameters, header says "
                             f"{header['param_count']}, model has {model.num_params}")
        if not all_finite(vector):
            raise ValueError("holds non-finite parameters")
    except (ValueError, KeyError, TypeError) as exc:
        detail = f"missing header field {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{path}: bad checkpoint: {detail}") from exc
    model.set_parameter_vector(vector)
    return model
