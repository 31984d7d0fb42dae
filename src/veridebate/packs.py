"""Append-only, checksummed pack files: the on-disk store behind the
generation and embedding caches.

A ``PackStore`` appends only to its own pack,
``<root>/<seq>-<pid>-<uuid4hex>.pack``, created on its first ``put``, where
``seq`` is one more than the largest sequence among the packs then in the
directory. A record is one header line
``{"key": "<key>", "size": <n>, "crc": <c>}`` (the ``json.dumps`` layout,
spaces included) followed by ``n`` payload bytes; ``c`` is the ``zlib.crc32``
of the payload. A key is printable ASCII without ``"`` or ``\\``, so a
header never needs escaping, and short enough that its header line fits in
``_MAX_HEADER`` bytes, so a scan finds it; ``put`` rejects any other key.
Each record goes out in one ``os.write`` on an ``O_APPEND`` descriptor, so
a crash can leave at most a torn tail.

On first use the store scans every ``*.pack`` under its root, in creation
order (by sequence, then name; a pack named without a sequence counts as
0), into an index of payload offsets (payloads stay on disk). So a key
held in several packs maps to its record in the newest: a value
recomputed after a bad cached record, which goes to the recomputing
store's new pack, replaces it for every later reader. A pack is read in
windows, ``os.pread`` calls of ``_SCAN_WINDOW`` bytes, so a scan holds
about one window of it at a time whatever the pack's size; a payload that
reaches past the window is skipped unread. The scan only frames records:
a record whose header is not in that layout, or whose payload runs past
the end of the file, ends the scan of its pack, so a torn tail is
dropped, and it and the pack's later records read as misses. A lookup
takes the lock once for any number of keys; wanted records lying
together are then read in one ``os.pread``, and each payload is checked
against its crc there. A payload that fails it reads as a miss on its
own, even where an older pack holds a good copy of its key: the value
recomputed after the miss then replaces it.
"""

from __future__ import annotations

import os
import re
import threading
import uuid
import weakref
import zlib
from pathlib import Path

# A key is printable ASCII without '"' or '\'; a header is the line ``put``
# writes for one. The integers have no sign or leading zero.
_KEY_CHARS = rb'[ !#-\[\]-~]*'
_KEY = re.compile(_KEY_CHARS.decode("ascii"))
_HEADER = re.compile(
    rb'\{"key": "(' + _KEY_CHARS + rb')", "size": (0|[1-9][0-9]*), "crc": (0|[1-9][0-9]*)\}\n'
)
# A header holds a short key and two integers; a longer line is not one.
_MAX_HEADER = 4096
# The bytes a scan asks each ``os.pread`` for.
_SCAN_WINDOW = 1 << 16
_SEQUENCED_NAME = re.compile(r"([0-9]+)-[0-9]+-[0-9a-f]{32}\.pack")


def store_root(root: str | Path, owner_id: str) -> Path:
    """The directory of the store ``owner_id`` (a backend or an embedding
    provider) keeps under ``root``: the id made safe as a directory name."""
    return Path(root) / re.sub(r"[^\w.-]", "_", owner_id)


def _sequence(path: Path) -> int:
    """A pack's creation sequence; 0 for a pack named without one."""
    match = _SEQUENCED_NAME.fullmatch(path.name)
    return int(match[1]) if match else 0


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
            for path in sorted(self.root.glob("*.pack"), key=lambda p: (_sequence(p), p.name)):
                self._fds.append(os.open(path, os.O_RDONLY))
                self._scan(self._fds[-1])
        return self._index

    def _scan(self, fd: int) -> None:
        end = os.fstat(fd).st_size
        data, base, offset = b"", 0, 0  # data holds the pack's bytes from base on
        while True:
            if len(data) - offset < _MAX_HEADER:
                # Slide the unread tail forward (past a payload that reached
                # beyond the window, unread) and refill until a header fits.
                data, base, offset = data[offset:], base + offset, 0
                while len(data) < _MAX_HEADER and base + len(data) < end:
                    chunk = os.pread(fd, _SCAN_WINDOW, base + len(data))
                    if not chunk:  # the pack shrank under the scan
                        break
                    data += chunk
            header = _HEADER.match(data, offset, offset + _MAX_HEADER)
            if header is None:
                return
            size = int(header[2])
            offset = header.end() + size
            if base + offset > end:
                return
            self._index[header[1].decode("ascii")] = (fd, base + header.end(), size,
                                                      int(header[3]))

    def get_many(self, keys) -> list[memoryview | None]:
        """A read-only view of the payload stored under each key, None where
        it is absent, short or fails its crc. The index is looked up once for
        all keys; then each run of wanted records, in one pack and at most
        ``_MAX_HEADER`` bytes apart, is one ``os.pread``."""
        with self._lock:
            index = self._load()
            wanted = sorted((entry, i) for i, key in enumerate(keys)
                            if (entry := index.get(key)) is not None)
        views: list[memoryview | None] = [None] * len(keys)
        first = 0
        for n, ((fd, offset, size, _), _) in enumerate(wanted, 1):
            if n < len(wanted) and wanted[n][0][0] == fd and (
                    wanted[n][0][1] - offset - size <= _MAX_HEADER):
                continue  # the next record extends this run
            (_, start, _, _), _ = wanted[first]
            buffer = memoryview(os.pread(fd, offset + size - start, start))
            for (_, at, length, crc), i in wanted[first:n]:
                payload = buffer[at - start:at - start + length]
                if len(payload) == length and zlib.crc32(payload) == crc:
                    views[i] = payload
            first = n
        return views

    def get(self, key: str) -> bytes | None:
        view = self.get_many((key,))[0]
        return None if view is None else bytes(view)

    def put(self, key: str, payload: bytes) -> None:
        if not _KEY.fullmatch(key):
            raise ValueError(f"pack key must be printable ASCII without '\"' or '\\': {key!r}")
        crc = zlib.crc32(payload)
        header = b'{"key": "%s", "size": %d, "crc": %d}' % (key.encode("ascii"), len(payload), crc)
        if len(header) >= _MAX_HEADER:
            raise ValueError(f"pack key of {len(key)} characters makes a header line "
                             f"longer than {_MAX_HEADER} bytes")
        record = header + b"\n" + payload
        with self._lock:
            index = self._load()
            if self._writer is None:
                self.root.mkdir(parents=True, exist_ok=True)
                seq = 1 + max(map(_sequence, self.root.glob("*.pack")), default=0)
                path = self.root / f"{seq}-{os.getpid()}-{uuid.uuid4().hex}.pack"
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
