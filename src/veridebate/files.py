"""Whole-file writes that a crash cannot leave half done, and the one
form of the run's JSON outputs."""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path


def atomic_write(path: str | Path, data) -> None:
    """Replace ``path`` with ``data``: a str (written as UTF-8), a
    bytes-like object, or a list of them written in order. The data goes
    to a uniquely named temp file in the same directory, which
    ``os.replace`` then moves over ``path``, so a reader sees the old
    file or the new one, never a part. If the write fails, the temp file
    is removed and ``path`` is untouched. Nothing is fsynced: this guards
    against a crash of the process, not of the machine."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            for chunk in data if isinstance(data, list) else [data]:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _dumps(value, indent: int | None = None) -> str:
    return json.dumps(value, sort_keys=True, ensure_ascii=False, indent=indent) + "\n"


def write_json(path: str | Path, value) -> None:
    """Atomically write ``value`` as one JSON document: sorted keys,
    unescaped UTF-8, indented by two spaces, ending in a newline."""
    atomic_write(path, _dumps(value, indent=2))


def write_jsonl(path: str | Path, rows) -> None:
    """Atomically write ``rows`` as JSON lines: one value per line, with
    sorted keys and unescaped UTF-8."""
    atomic_write(path, [_dumps(row) for row in rows])
