"""Model checkpoints: one JSON header line (dims, seed, label convention)
followed by the flat parameter vector as little-endian float64."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from .model import AnalysisModel, ModelConfig

FORMAT_NAME = "veridebate-checkpoint"


def save_model(path: str | Path, model: AnalysisModel) -> None:
    header = {
        "format": FORMAT_NAME,
        "version": 1,
        **dataclasses.asdict(model.config),
        "labels": {"real": 0, "fake": 1},
        "param_count": model.num_params,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = model.parameter_vector().astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(payload)


def load_model(path: str | Path) -> AnalysisModel:
    import numpy as np

    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    header = json.loads(header_line.decode("utf-8"))
    if header.get("format") != FORMAT_NAME:
        raise ValueError(f"{path} is not a {FORMAT_NAME} file")
    config = ModelConfig(**{f.name: header[f.name] for f in dataclasses.fields(ModelConfig)})
    model = AnalysisModel.create(config)
    vector = np.frombuffer(payload, dtype="<f8")
    if vector.size != header["param_count"] or vector.size != model.num_params:
        raise ValueError(
            f"checkpoint holds {vector.size} parameters, expected {model.num_params}"
        )
    model.set_parameter_vector(vector.astype(np.float64))
    return model
