"""Whole-file writes that a crash cannot leave half done."""

from __future__ import annotations

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
