"""The pack store behind the generation and embedding caches: its record
layout, and what a torn, damaged or foreign file does to a later reader."""

import gc
import json
import logging
import math
import os
import sys
import tempfile
import threading
import tracemalloc
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import CountingProvider
from oracles import reference_scan
from veridebate import packs as packs_module
from veridebate.encoding import CachedEmbedder, HashEmbeddingProvider, text_key
from veridebate.packs import PackStore


def packs(root):
    return sorted(root.glob("*.pack"))


def record(key: str, payload: bytes) -> bytes:
    """One record in the layout ``put`` writes, built by hand."""
    header = json.dumps({"key": key, "size": len(payload), "crc": zlib.crc32(payload)})
    return header.encode() + b"\n" + payload


# The random part of the pack names each new store draws, in order: the
# later-created pack's name sorts after the earlier one's, or before it.
NAME_ORDERS = pytest.mark.parametrize("hexes", [("0" * 32, "f" * 32), ("f" * 32, "0" * 32)],
                                      ids=["later_sorts_last", "later_sorts_first"])


def draw_pack_names(monkeypatch, hexes):
    drawn = iter(hexes)
    monkeypatch.setattr(packs_module.uuid, "uuid4", lambda: SimpleNamespace(hex=next(drawn)))


def count_preads(monkeypatch) -> list:
    """The ``(fd, size, offset)`` of every ``os.pread`` from now on."""
    calls, pread = [], os.pread
    monkeypatch.setattr(os, "pread", lambda *args: calls.append(args) or pread(*args))
    return calls


class TestPackStore:
    def test_float32_matrix_roundtrip(self, tmp_path):
        matrix = np.random.default_rng(0).standard_normal((3, 5))
        PackStore(tmp_path).put("m", matrix.astype("<f4").tobytes())
        loaded = np.frombuffer(PackStore(tmp_path).get("m"), dtype="<f4").reshape(3, 5)
        assert np.allclose(loaded, matrix, atol=1e-6)

    def test_record_layout(self, tmp_path):
        PackStore(tmp_path).put("k", b"payload")
        (pack,) = packs(tmp_path)
        header, payload = pack.read_bytes().split(b"\n", 1)
        assert header == json.dumps({"key": "k", "size": 7, "crc": zlib.crc32(b"payload")}).encode()
        assert payload == b"payload"

    def test_key_that_needs_escaping_rejected(self, tmp_path):
        store = PackStore(tmp_path)
        for key in ('a"b', "a\\b", "a\nb", "caf\u00e9", "k" * 5000):
            with pytest.raises(ValueError, match="pack key"):
                store.put(key, b"x")
        assert packs(tmp_path) == []
        store.put("after", b"y")
        assert PackStore(tmp_path).get("after") == b"y"

    def test_header_in_another_layout_ends_the_scan(self, tmp_path):
        PackStore(tmp_path).put("a", b"alpha")
        (pack,) = packs(tmp_path)
        reordered = json.dumps({"size": 4, "key": "b", "crc": zlib.crc32(b"beta")})
        with open(pack, "ab") as fh:
            fh.write(reordered.encode() + b"\nbeta")
        reader = PackStore(tmp_path)
        assert reader.get("a") == b"alpha"
        assert reader.get("b") is None

    def test_reads_create_no_file(self, tmp_path):
        root = tmp_path / "cache"
        store = PackStore(root)
        assert store.get("absent") is None
        assert not root.exists()

    def test_new_store_sees_earlier_records(self, tmp_path):
        first = PackStore(tmp_path)
        first.put("a", b"alpha")
        assert first.get("a") == b"alpha"
        assert PackStore(tmp_path).get("a") == b"alpha"
        assert PackStore(tmp_path).get_many(["a", "absent", "a"]) == [b"alpha", None, b"alpha"]

    def test_two_writers_write_two_packs(self, tmp_path):
        one, two = PackStore(tmp_path), PackStore(tmp_path)
        for i in range(6):
            (one if i % 2 == 0 else two).put(f"k{i}", f"v{i}".encode())
        assert len(packs(tmp_path)) == 2
        third = PackStore(tmp_path)
        assert [third.get(f"k{i}") for i in range(6)] == [f"v{i}".encode() for i in range(6)]

    def test_truncated_pack_keeps_earlier_records(self, tmp_path):
        store = PackStore(tmp_path)
        for key in ("a", "b", "c"):
            store.put(key, key.encode() * 100)
        (pack,) = packs(tmp_path)
        data = pack.read_bytes()
        pack.write_bytes(data[: len(data) - 50])  # cut inside c's payload
        reader = PackStore(tmp_path)
        assert reader.get("a") == b"a" * 100
        assert reader.get("b") == b"b" * 100
        assert reader.get("c") is None

    def test_empty_pack_holds_nothing(self, tmp_path):
        (tmp_path / f"1-1-{'0' * 32}.pack").write_bytes(b"")
        store = PackStore(tmp_path)
        assert store.get_many(["a", ""]) == [None, None]
        store.put("a", b"alpha")
        assert PackStore(tmp_path).get("a") == b"alpha"

    @pytest.mark.parametrize("overlong", [0, 1], ids=["header_at_the_limit", "one_byte_over"])
    def test_first_line_longer_than_a_header_ends_the_scan(self, tmp_path, overlong):
        """A first line with no newline within ``_MAX_HEADER`` bytes is no
        header: its record and every later one in the pack read as
        misses. A header of exactly ``_MAX_HEADER`` bytes still reads."""
        def header_of(key):
            return len(record(key, b"long")) - len(b"long")

        key = "k" * (packs_module._MAX_HEADER - header_of("k") + 1 + overlong)
        assert header_of(key) == packs_module._MAX_HEADER + overlong
        (tmp_path / f"1-1-{'0' * 32}.pack").write_bytes(
            record(key, b"long") + record("z", b"zulu"))
        expected = [None, None] if overlong else [b"long", b"zulu"]
        assert PackStore(tmp_path).get_many([key, "z"]) == expected

    def test_crc_failure_mid_pack_is_a_miss_on_its_own(self, tmp_path):
        """A payload that fails its crc reads as a miss; the records before
        and after it in its pack still read."""
        store = PackStore(tmp_path)
        for key in "abcde":
            store.put(key, key.encode() * 50)
        (pack,) = packs(tmp_path)
        data = bytearray(pack.read_bytes())
        data[data.index(b"c" * 50) + 10] ^= 0x01
        pack.write_bytes(bytes(data))
        reader = PackStore(tmp_path)
        assert reader.get_many(list("abcde")) == [b"a" * 50, b"b" * 50, None, b"d" * 50,
                                                  b"e" * 50]

    def test_damaged_newest_copy_reads_as_a_miss(self, tmp_path):
        """The newest record of a key is the one read, even when its crc
        fails and an older pack holds a good copy."""
        PackStore(tmp_path).put("k", b"older")
        PackStore(tmp_path).put("k", b"newer")
        newest = packs(tmp_path)[-1]
        data = bytearray(newest.read_bytes())
        data[-1] ^= 0x01
        newest.write_bytes(bytes(data))
        assert PackStore(tmp_path).get("k") is None

    def test_record_damaged_after_the_scan_reads_as_a_miss_inside_its_run(self, tmp_path,
                                                                          monkeypatch):
        """Adjacent wanted records are read together, yet each is checked
        on its own: one damaged after the scan reads as a miss and its
        neighbours in the same read still read."""
        store = PackStore(tmp_path)
        for key in "abcde":
            store.put(key, key.encode() * 50)
        reader = PackStore(tmp_path)
        assert reader.get("a") == b"a" * 50  # the scan, before the damage
        (pack,) = packs(tmp_path)
        data = bytearray(pack.read_bytes())
        data[data.index(b"c" * 50) + 10] ^= 0x01
        pack.write_bytes(bytes(data))
        preads = count_preads(monkeypatch)
        assert reader.get_many(list("edcba")) == [b"e" * 50, b"d" * 50, None, b"b" * 50,
                                                  b"a" * 50]
        assert len(preads) == 1

    def test_record_longer_than_a_header_between_wanted_ones_splits_the_read(self, tmp_path,
                                                                            monkeypatch):
        """A read spans at most a header's length of bytes nobody asked for."""
        store = PackStore(tmp_path)
        for key, payload in (("a", b"alpha"), ("big", b"b" * packs_module._MAX_HEADER),
                             ("c", b"gamma")):
            store.put(key, payload)
        preads = count_preads(monkeypatch)
        reader = PackStore(tmp_path)
        assert reader.get_many(["a", "c"]) == [b"alpha", b"gamma"]
        assert len(preads) == 1 + 2
        assert reader.get_many(["c", "big", "a"])[::2] == [b"gamma", b"alpha"]
        assert len(preads) == 1 + 2 + 1

    def test_flipped_payload_byte_reads_as_miss(self, tmp_path):
        provider = HashEmbeddingProvider(dim=8, seed=0)
        expected = CachedEmbedder(provider, tmp_path).embed_text("flip me")
        (pack,) = packs(tmp_path / provider.provider_id)
        data = bytearray(pack.read_bytes())
        data[-3] ^= 0x40  # one bit in the float32 payload
        pack.write_bytes(bytes(data))

        embedder = CachedEmbedder(provider, tmp_path)
        assert embedder.cache.get(text_key("flip me")) is None
        recomputed = embedder.embed_text("flip me")
        assert np.array_equal(recomputed, expected)

    def test_old_layout_files_ignored(self, tmp_path):
        (tmp_path / "ab").mkdir()
        (tmp_path / "ab" / ("ab" + "0" * 62 + ".json")).write_text('{"text": "old"}')
        (tmp_path / "deadbeef.f32").write_bytes(b"\x00" * 32)
        (tmp_path / "deadbeef.json").write_text('{"dim": 8, "shape": [8]}')
        store = PackStore(tmp_path)
        assert store.get("ab" + "0" * 62) is None
        assert store.get("deadbeef") is None
        store.put("deadbeef", b"new")
        assert PackStore(tmp_path).get("deadbeef") == b"new"

    def test_concurrent_puts_all_land(self, tmp_path):
        store = PackStore(tmp_path)
        keys = [[f"t{t}-{i}" for i in range(50)] for t in range(8)]

        def put_all(own):
            for key in own:
                store.put(key, key.encode() * 7)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=put_all, args=(own,)) for own in keys]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(packs(tmp_path)) == 1
        reader = PackStore(tmp_path)
        for key in (k for own in keys for k in own):
            assert store.get(key) == key.encode() * 7
            assert reader.get(key) == key.encode() * 7

    @NAME_ORDERS
    def test_newer_pack_wins_in_either_name_order(self, tmp_path, monkeypatch, hexes):
        draw_pack_names(monkeypatch, hexes)
        PackStore(tmp_path).put("k", b"stale")
        PackStore(tmp_path).put("k", b"fresh")
        assert len(packs(tmp_path)) == 2
        assert PackStore(tmp_path).get("k") == b"fresh"

    def test_pack_named_without_sequence_is_oldest(self, tmp_path):
        PackStore(tmp_path).put("k", b"stale")
        (pack,) = packs(tmp_path)
        pack.rename(tmp_path / f"99999-{'f' * 32}.pack")  # the earlier naming
        PackStore(tmp_path).put("k", b"fresh")
        assert PackStore(tmp_path).get("k") == b"fresh"

    def test_descriptors_close_with_the_store(self, tmp_path):
        store = PackStore(tmp_path)
        store.put("a", b"alpha")
        descriptors = store._fds
        assert descriptors
        del store
        gc.collect()
        assert descriptors == []


@NAME_ORDERS
def test_recomputed_embedding_is_read_back_by_later_runs(tmp_path, monkeypatch, caplog, hexes):
    """A bad cached vector is recomputed once: the recomputed record, in
    the recomputing run's new pack, is what every later run reads."""
    draw_pack_names(monkeypatch, hexes)
    provider = HashEmbeddingProvider(dim=8, seed=0)
    CachedEmbedder(provider, tmp_path).cache.put(text_key("poisoned"),
                                                 np.full(8, np.nan, dtype="<f4").tobytes())
    with caplog.at_level(logging.WARNING, logger="veridebate.encoding"):
        expected = CachedEmbedder(provider, tmp_path).embed_texts(["poisoned"])
    assert "recomputing 1 cached embedding" in caplog.text
    caplog.clear()

    counting = CountingProvider(provider)
    with caplog.at_level(logging.WARNING, logger="veridebate.encoding"):
        rows = CachedEmbedder(counting, tmp_path).embed_texts(["poisoned"])
    assert rows.tobytes() == expected.tobytes()
    assert counting.calls == 0
    assert caplog.text == ""
    assert len(packs(tmp_path / provider.provider_id)) == 2


KEYS = tuple(f"k{i}" for i in range(6))
# Small payloads lie within a header's length of each other, large ones
# do not, so a lookup's reads both span unwanted records and split.
PAYLOADS = st.one_of(st.binary(max_size=40),
                     st.tuples(st.binary(min_size=1, max_size=8), st.integers(4500, 5000))
                     .map(lambda drawn: (drawn[0] * 5000)[:drawn[1]]))


@settings(max_examples=60, deadline=None)
@given(writes=st.lists(st.lists(st.tuples(st.sampled_from(KEYS), PAYLOADS), min_size=1,
                                max_size=6), min_size=2, max_size=3),
       wanted=st.lists(st.sampled_from(KEYS + ("absent",)), max_size=16))
def test_get_many_reads_what_get_reads(writes, wanted):
    """Over several packs, with keys repeated, absent, rewritten in a
    later pack and asked for out of pack order, one lookup of many keys
    reads what one lookup per key reads: each key's newest record."""
    with tempfile.TemporaryDirectory() as root:
        newest = {}
        for pack in writes:
            store = PackStore(root)
            for key, payload in pack:
                store.put(key, payload)
                newest[key] = payload
        reader = PackStore(root)
        assert len(packs(Path(root))) == len(writes)
        assert reader.get_many(wanted) == [reader.get(key) for key in wanted]
        assert reader.get_many(wanted) == [newest.get(key) for key in wanted]


def test_warm_embed_texts_reads_one_pread_per_lookup_block(tmp_path, monkeypatch):
    """A warm read of N rows that lie in order in one pack makes one
    ``os.pread`` per scan window of the pack and one per block of 256
    keys, not one per row."""
    provider = HashEmbeddingProvider(dim=8, seed=0)
    texts = [f"row {i}" for i in range(600)]
    expected = CachedEmbedder(provider, tmp_path).embed_texts(texts)
    (pack,) = packs(tmp_path / provider.provider_id)
    counting = CountingProvider(provider)
    preads = count_preads(monkeypatch)
    rows = CachedEmbedder(counting, tmp_path).embed_texts(texts)
    assert rows.tobytes() == expected.tobytes()
    assert counting.calls == 0
    assert len(preads) <= (math.ceil(pack.stat().st_size / packs_module._SCAN_WINDOW)
                           + math.ceil(len(texts) / 256))


def scanned_index(root) -> dict:
    """key -> (payload offset, size, crc) as a fresh store over the one
    pack under ``root`` indexes it."""
    store = PackStore(root)
    store.get_many(())
    return {key: entry[1:] for key, entry in store._index.items()}


def records(*sizes: int) -> bytes:
    return b"".join(record(f"k{i}", bytes([i % 251]) * size) for i, size in enumerate(sizes))


# A key whose header line over a 4-byte payload is exactly _MAX_HEADER
# bytes, newline included.
LONG_KEY = "L" * (packs_module._MAX_HEADER - len(record("L", b"long")) + len(b"long") + 1)
# Records of assorted sizes, so that every small window has records and
# headers straddling its edges; the larger payloads reach past both a
# small window and a header's length.
SCAN_CASES = {
    "straddling_records": records(0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377),
    "payload_longer_than_the_window": records(7, 4097, 3, 9000, 0, 300, 5000),
    "header_at_the_limit": record(LONG_KEY, b"long") + records(12, 4200, 1),
    "torn_tail_payload": records(40, 5000, 10, 700)[:-300],
    "torn_tail_header": records(40, 5000, 10) + record("last", b"x" * 20)[:15],
    "garbage_header_mid_pack": (records(40, 5000, 10) + b'{"key": "g", "size": 1}\n'
                                + records(3, 4)),
    "key_rewritten": records(10, 20) + record("k0", b"newer") + records(30),
    "empty_pack": b"",
}
SCAN_WINDOWS = range(1, 301)


@pytest.mark.parametrize("name", SCAN_CASES)
def test_window_scan_indexes_what_a_whole_file_scan_does(tmp_path, monkeypatch, name):
    """For every window from 1 byte to a few hundred, and the default one,
    the scan indexes exactly the records a whole-file scan frames, and no
    ``os.pread`` it issues asks for more than the window."""
    data = SCAN_CASES[name]
    (tmp_path / f"1-1-{'0' * 32}.pack").write_bytes(data)
    expected = reference_scan(data, packs_module._MAX_HEADER)
    assert bool(expected) == (name != "empty_pack")
    preads = count_preads(monkeypatch)
    for window in (*SCAN_WINDOWS, packs_module._SCAN_WINDOW):
        monkeypatch.setattr(packs_module, "_SCAN_WINDOW", window)
        preads.clear()
        assert scanned_index(tmp_path) == expected, window
        assert all(size <= window for _, size, _ in preads), window


@settings(max_examples=80, deadline=None)
@given(sizes=st.lists(st.integers(0, 6000), max_size=8), cut=st.integers(0, 200),
       junk=st.sampled_from([b"", b"\n", b"{}\n", b'{"key": "j", "size": 01, "crc": 0}\nx']),
       window=st.integers(1, 400))
def test_window_scan_matches_the_whole_file_scan_on_random_packs(sizes, cut, junk, window):
    """Random packs: records of any size, then foreign bytes, then the
    tail cut off at any point."""
    data = records(*sizes) + junk
    data = data[:max(0, len(data) - cut)]
    with tempfile.TemporaryDirectory() as root:
        (Path(root) / f"1-1-{'0' * 32}.pack").write_bytes(data)
        scan_window = packs_module._SCAN_WINDOW
        packs_module._SCAN_WINDOW = window
        try:
            assert scanned_index(root) == reference_scan(data, packs_module._MAX_HEADER)
        finally:
            packs_module._SCAN_WINDOW = scan_window


def test_payload_longer_than_the_window_is_skipped_unread(tmp_path, monkeypatch):
    """No read covers the middle of a payload three windows long that no
    lookup asks for."""
    window = packs_module._SCAN_WINDOW
    store = PackStore(tmp_path)
    store.put("a", b"alpha")
    store.put("big", b"b" * (3 * window))
    store.put("c", b"gamma")
    (pack,) = packs(tmp_path)
    middle = pack.read_bytes().index(b"b" * 100) + window + window // 2
    preads = count_preads(monkeypatch)
    assert PackStore(tmp_path).get_many(["a", "c"]) == [b"alpha", b"gamma"]
    assert not any(offset <= middle < offset + size for _, size, offset in preads)


def test_pack_that_shrinks_under_the_scan_ends_it(tmp_path, monkeypatch):
    """A pack cut short after the scan took its size: the scan ends, and a
    record cut off reads as a miss."""
    store = PackStore(tmp_path)
    for key in "abc":
        store.put(key, key.encode() * 100)
    (pack,) = packs(tmp_path)
    fstat = os.fstat

    def fstat_then_truncate(fd):
        stat = fstat(fd)
        os.truncate(pack, stat.st_size - 50)
        return stat

    monkeypatch.setattr(os, "fstat", fstat_then_truncate)
    assert PackStore(tmp_path).get_many(["a", "b", "c"]) == [b"a" * 100, b"b" * 100, None]


def test_scan_memory_does_not_grow_with_the_pack(tmp_path):
    """Indexing a pack holds its index and a few windows, not the pack."""
    store = PackStore(tmp_path)
    for i in range(1000):
        store.put(f"key {i:04d}", b"%04d" % i * 512)
    (pack,) = packs(tmp_path)
    reader = PackStore(tmp_path)
    tracemalloc.start()
    try:
        reader.get_many(())
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pack.stat().st_size > 2e6
    assert peak - retained < 4 * packs_module._SCAN_WINDOW, (peak, retained)
