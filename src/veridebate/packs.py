"""Append-only, checksummed pack files: the on-disk store behind the
generation and embedding caches.

A ``PackStore`` appends only to its own pack, ``<root>/<pid>-<uuid4hex>.pack``,
created on its first ``put``. A record is one JSON header line
``{"key", "size", "crc"}`` followed by ``size`` payload bytes; ``crc`` is the
``zlib.crc32`` of the payload. Each record goes out in one ``os.write`` on an
``O_APPEND`` descriptor, so a crash can leave at most a torn tail.

On first use the store scans every ``*.pack`` under its root, in sorted
order, into an index of payload offsets (payloads stay on disk). A record
that does not parse, is short or fails its crc ends the scan of its pack, so
a torn tail is dropped and its keys read as misses. A ``get`` is one
``os.pread``, checked against the crc again.
"""

from __future__ import annotations

import json
import os
import threading
import uuid
import weakref
import zlib
from pathlib import Path

# A header holds a short key and two integers; a longer line is not one.
_MAX_HEADER = 4096


def _close_all(fds: list) -> None:
    while fds:
        os.close(fds.pop())


class PackStore:
    """Key -> bytes store over the packs in one directory. Safe to share
    across threads."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._lock = threading.Lock()
        # key -> (descriptor, payload offset, size, crc); built on first use.
        self._index: dict[str, tuple[int, int, int, int]] | None = None
        self._fds: list[int] = []  # one descriptor per pack, closed with the store
        self._writer: int | None = None  # descriptor of this store's own pack
        self._end = 0  # size of this store's own pack
        weakref.finalize(self, _close_all, self._fds)

    def _load(self) -> dict:
        """The index, scanning the packs on the first call; hold the lock."""
        if self._index is None:
            self._index = {}
            for path in sorted(self.root.glob("*.pack")):
                self._fds.append(os.open(path, os.O_RDONLY))
                self._scan(self._fds[-1])
        return self._index

    def _scan(self, fd: int) -> None:
        offset = 0
        with open(fd, "rb", closefd=False) as fh:
            while line := fh.readline(_MAX_HEADER):
                try:
                    header = json.loads(line)
                    key, size, crc = header["key"], header["size"], header["crc"]
                except (ValueError, KeyError, TypeError):
                    return
                if not (line.endswith(b"\n") and isinstance(key, str)
                        and isinstance(size, int) and size >= 0):
                    return
                payload = fh.read(size)
                if len(payload) != size or zlib.crc32(payload) != crc:
                    return
                offset += len(line)
                self._index[key] = (fd, offset, size, crc)
                offset += size

    def get(self, key: str) -> bytes | None:
        with self._lock:
            entry = self._load().get(key)
        if entry is None:
            return None
        fd, offset, size, crc = entry
        payload = os.pread(fd, size, offset)
        if len(payload) != size or zlib.crc32(payload) != crc:
            return None
        return payload

    def put(self, key: str, payload: bytes) -> None:
        crc = zlib.crc32(payload)
        header = json.dumps({"key": key, "size": len(payload), "crc": crc}).encode("ascii")
        record = header + b"\n" + payload
        with self._lock:
            index = self._load()
            if self._writer is None:
                self.root.mkdir(parents=True, exist_ok=True)
                path = self.root / f"{os.getpid()}-{uuid.uuid4().hex}.pack"
                flags = os.O_RDWR | os.O_CREAT | os.O_EXCL | os.O_APPEND
                self._fds.append(os.open(path, flags))
                self._writer, self._end = self._fds[-1], 0
            fd = self._writer
            written = os.write(fd, record)
            if written != len(record):
                # The torn record ends this pack for every later scan, so
                # later records go to a fresh pack.
                self._writer = None
                raise OSError(f"short write to {self.root}: {written} of {len(record)} bytes")
            index[key] = (fd, self._end + len(header) + 1, len(payload), crc)
            self._end += written
