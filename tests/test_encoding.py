import hashlib
import json
import logging
import tempfile

import numpy as np
import pytest

from conftest import CountingProvider, PoisonedProvider

from veridebate.domain import DebateLog, DebateRole, DebateStage, DebateTurn, Stance
from veridebate.encoding import (
    CachedEmbedder,
    HashEmbeddingProvider,
    RemoteEmbeddingProvider,
    text_key,
)
from veridebate.gateway import MalformedResponseError, RateLimitError, RetryPolicy, TransportError
from veridebate.neural import AnalysisModel, ModelConfig, make_sample
from veridebate.neural.model import ROLE_STANCE_PAIRS, RoleTable, role_pair_ids

# A small fixed corpus used to pin down provider distinctness. All
# entries have distinct token multisets; the provider is a bag-of-tokens
# embedder, so only multiset-distinct texts are guaranteed apart.
CORPUS = [
    "a bridge closed downtown after an inspection",
    "officials confirmed the recall of bottled water",
    "the museum received an unexpected donation",
    "a storm warning was issued for the coast",
    "the ferry line across the harbor opened today",
    "council members voted on the annual budget",
    "the library expansion broke ground downtown",
    "a power outage interrupted the stadium match",
    "a power outage interrupted the stadium match twice",
    "a power outage outage interrupted the stadium match",
]


def turn(role=DebateRole.QUESTIONER, stance=Stance.TRUE):
    return DebateTurn(2, "pro_0", stance, role, DebateStage.CROSS_EXAMINATION, "text")


class TestHashProvider:
    def test_deterministic(self):
        provider = HashEmbeddingProvider(dim=16, seed=0)
        a = provider.embed_text("hello world")
        b = provider.embed_text("hello world")
        assert np.array_equal(a, b)

    def test_distinct_across_fixed_corpus(self):
        provider = HashEmbeddingProvider(dim=32, seed=0)
        vectors = [provider.embed_text(text) for text in CORPUS]
        for i in range(len(vectors)):
            for j in range(i + 1, len(vectors)):
                assert not np.allclose(vectors[i], vectors[j]), (i, j)

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            HashEmbeddingProvider(dim=8).embed_text("  ")

    def test_dimension_and_finiteness(self):
        vec = HashEmbeddingProvider(dim=24, seed=3).embed_text("anything at all")
        assert vec.shape == (24,) and vec.dtype == np.float64
        assert np.all(np.isfinite(vec))

    def test_seed_changes_vectors(self):
        a = HashEmbeddingProvider(dim=8, seed=0).embed_text("hello")
        b = HashEmbeddingProvider(dim=8, seed=1).embed_text("hello")
        assert not np.allclose(a, b)

    def test_token_permutations_collide(self):
        # Known provider property: order is not encoded.
        provider = HashEmbeddingProvider(dim=16, seed=0)
        a = provider.embed_text("alpha bravo cedar")
        b = provider.embed_text("cedar alpha bravo")
        assert np.array_equal(a, b)

    # Mixed case, apostrophes, underscores and digits; repeated tokens; a
    # punctuation-only text (one whole-text token); Chinese; accented
    # Latin; the Kelvin sign, which lowercases to an ASCII "k".
    PIN_TEXTS = [
        "Officials SAY the harbor's ferry_line reopens at 09:30 on route 7B",
        "fake fake FAKE news, news... and 'fake' news again",
        "?!... -- ;;",
        "官方表示，港口渡轮周一恢复运营。",
        "Café naïve Résumé: the Ångström déjà vu",
        "\u212aELVIN readings of 300\u212a at the plant",
    ]

    def test_pinned_vector_bytes(self, tmp_path):
        """Golden sha256 of the float64 vectors and of the float32 rows the
        embedder caches: any change to tokenizing, bases or summation order
        shows up here."""
        provider = HashEmbeddingProvider()
        vectors = b"".join(provider.embed_text(text).tobytes() for text in self.PIN_TEXTS)
        rows = CachedEmbedder(provider, tmp_path).embed_texts(self.PIN_TEXTS)
        assert hashlib.sha256(vectors).hexdigest() == (
            "9501bf7ec7ed1679f701d0db1076544614a7b39b44fd786ed8977166ea3b1588")
        assert hashlib.sha256(rows.tobytes()).hexdigest() == (
            "70b258ecef6844e8e29c1303f7dba1f910e8279b9114de04969332b47f299dfa")


class TestEmbeddingCache:
    def test_roundtrip_bit_identical(self, tmp_path):
        provider = HashEmbeddingProvider(dim=16, seed=0)
        embedder = CachedEmbedder(provider, tmp_path)
        cold = embedder.embed_text("cache me")
        warm = embedder.embed_text("cache me")
        assert np.array_equal(cold, warm)

    def test_one_pack_per_provider(self, tmp_path):
        embedder = CachedEmbedder(HashEmbeddingProvider(dim=8, seed=0), tmp_path)
        embedder.embed_text("pack check")
        paths = list(tmp_path.rglob("*.pack"))
        assert len(paths) == 1
        assert paths[0].parent == tmp_path / embedder.provider_id
        header, payload = paths[0].read_bytes().split(b"\n", 1)
        assert json.loads(header)["size"] == len(payload)  # exactly one record
        values = np.frombuffer(payload, dtype="<f4")
        assert values.shape == (8,)
        assert np.array_equal(values, embedder.embed_text("pack check"))


# The last text repeats the first, so one call holds the same miss twice.
BULK_TEXTS = ["alpha bravo", "charlie delta", "echo foxtrot", "golf hotel", "alpha bravo"]


def per_text_rows(provider, texts) -> np.ndarray:
    """The reference: each text through ``embed_text`` on a cold cache."""
    with tempfile.TemporaryDirectory() as root:
        embedder = CachedEmbedder(provider, root)
        return np.stack([embedder.embed_text(text) for text in texts])


class TestEmbedTexts:
    @pytest.mark.parametrize("cached", [(), (0, 1, 2, 3), (1, 3)],
                             ids=["all_miss", "all_hit", "mixed"])
    def test_rows_equal_per_text_embeddings(self, tmp_path, cached):
        provider = HashEmbeddingProvider(dim=16, seed=0)
        earlier = CachedEmbedder(provider, tmp_path)
        for i in cached:
            earlier.embed_text(BULK_TEXTS[i])
        counting = CountingProvider(provider)
        rows = CachedEmbedder(counting, tmp_path).embed_texts(BULK_TEXTS)
        expected = per_text_rows(provider, BULK_TEXTS)
        assert rows.dtype == np.float32
        assert rows.tobytes() == expected.tobytes()
        assert counting.calls == 4 - len(cached)  # the repeated miss is embedded once
        warm = CachedEmbedder(counting, tmp_path).embed_texts(BULK_TEXTS)
        assert warm.tobytes() == expected.tobytes()
        assert counting.calls == 4 - len(cached)

    def test_each_miss_cached_once(self, tmp_path):
        embedder = CachedEmbedder(HashEmbeddingProvider(dim=8, seed=0), tmp_path)
        embedder.embed_texts(BULK_TEXTS)
        (pack,) = (tmp_path / embedder.provider_id).glob("*.pack")
        assert pack.read_bytes().count(b'{"key": ') == 4

    @pytest.mark.parametrize("bad", [np.full(8, np.nan), np.r_[np.ones(7), np.inf], np.ones(4)],
                             ids=["nan", "inf", "wrong_size"])
    def test_unusable_record_is_recomputed(self, tmp_path, bad, caplog):
        """A record whose crc holds but whose vector is unusable reads as a
        miss: the item is re-embedded and the provider directory named."""
        provider = HashEmbeddingProvider(dim=8, seed=0)
        texts = ["first text", "poisoned text", "last text"]
        earlier = CachedEmbedder(provider, tmp_path)
        earlier.embed_texts([texts[0], texts[2]])
        earlier.cache.put(text_key("poisoned text"), bad.astype("<f4").tobytes())

        counting = CountingProvider(provider)
        embedder = CachedEmbedder(counting, tmp_path)
        with caplog.at_level(logging.WARNING, logger="veridebate.encoding"):
            rows = embedder.embed_texts(texts)
        assert rows.tobytes() == per_text_rows(provider, texts).tobytes()
        assert counting.calls == 1
        assert str(tmp_path / provider.provider_id) in caplog.text
        assert np.array_equal(embedder.embed_text("poisoned text"), rows[1])
        assert counting.calls == 1

    def test_refusal_stops_the_miss_loop_in_order(self, tmp_path):
        """Each miss is checked and cached before the next is asked for:
        after the refusal the first text is cached and the last was never
        sent to the provider."""
        provider = PoisonedProvider(HashEmbeddingProvider(dim=8, seed=0), "poisoned",
                                    np.full(8, np.nan))
        embedder = CachedEmbedder(provider, tmp_path)
        with pytest.raises(MalformedResponseError, match=provider.provider_id):
            embedder.embed_texts(["first", "poisoned", "last"])
        assert provider.calls == 1  # "first" only: the poisoned text is not counted
        cache = CachedEmbedder(provider, tmp_path).cache
        assert cache.get(text_key("first")) is not None
        assert cache.get(text_key("last")) is None

    @pytest.mark.parametrize("bad", [np.r_[np.ones(7), np.nan], np.r_[np.ones(7), 1e39],
                                     np.ones(4)],
                             ids=["nan", "float32_overflow", "wrong_size"])
    def test_unusable_fresh_vector_is_refused(self, tmp_path, bad):
        """A fresh vector is checked as a cached record is, after the
        float32 cast: one that fails raises, naming the provider, before
        anything is cached."""
        provider = PoisonedProvider(HashEmbeddingProvider(dim=8, seed=0), "poisoned text", bad)
        embedder = CachedEmbedder(provider, tmp_path)
        with pytest.raises(MalformedResponseError, match=provider.provider_id):
            embedder.embed_texts(["poisoned text"])
        assert list(tmp_path.rglob("*.pack")) == []


class TestRemoteProvider:
    def test_parses_embedding_payload(self):
        import json

        def transport(url, body, headers, timeout):
            assert url.endswith("/embeddings")
            return 200, json.dumps({"data": [{"embedding": [0.1, 0.2, 0.3]}]}).encode()

        provider = RemoteEmbeddingProvider("https://api.example", dim=3, api_key="k",
                                           transport=transport)
        vec = provider.embed_text("hi there")
        assert vec.tolist() == [0.1, 0.2, 0.3]

    def test_dimension_mismatch_rejected(self, tmp_path):
        def transport(url, body, headers, timeout):
            return 200, json.dumps({"data": [{"embedding": [0.1, 0.2]}]}).encode()

        provider = RemoteEmbeddingProvider("https://api.example", dim=3, api_key="k",
                                           transport=transport)
        with pytest.raises(MalformedResponseError, match="remote:text-embedding-3-small-d3"):
            CachedEmbedder(provider, tmp_path).embed_text("hi")

    @pytest.mark.parametrize("status, error, message", [
        (503, TransportError, "embeddings returned 503"),
        (429, RateLimitError, "rate limited by https://api.example/embeddings"),
    ])
    def test_error_status_raises_transport_error(self, status, error, message):
        def transport(url, body, headers, timeout):
            return status, b"{}"

        provider = RemoteEmbeddingProvider("https://api.example/", dim=3, api_key="k",
                                           transport=transport)
        with pytest.raises(error, match=message):
            provider.embed_text("hi")

    def test_embedder_retries_503_and_429(self, tmp_path):
        replies = [(503, b""), (429, b""),
                   (200, json.dumps({"data": [{"embedding": [0.5, 0.25, 0.125]}]}).encode())]
        calls, sleeps = [], []

        def transport(url, body, headers, timeout):
            calls.append(url)
            return replies[len(calls) - 1]

        provider = RemoteEmbeddingProvider("https://api.example", dim=3, api_key="k",
                                           transport=transport)
        embedder = CachedEmbedder(provider, tmp_path, retry=RetryPolicy(sleep=sleeps.append))
        assert embedder.embed_text("hi").tolist() == [0.5, 0.25, 0.125]
        assert len(calls) == 3
        assert len(sleeps) == 2 and sleeps == sorted(sleeps)


class TestRoleTable:
    def test_covers_all_pairs(self):
        assert len(ROLE_STANCE_PAIRS) == 10
        table = RoleTable.create(d_h=4, d_r=2, rng=np.random.default_rng(0))
        for index in range(len(ROLE_STANCE_PAIRS)):
            assert (table.projection @ table.embeddings[index]).shape == (4,)

    def test_role_pair_ids_are_pair_table_indices(self):
        turns = [turn(role, stance) for role, stance in ROLE_STANCE_PAIRS]
        assert role_pair_ids(turns) == list(range(len(ROLE_STANCE_PAIRS)))
        assert role_pair_ids(reversed(turns)) == list(range(len(ROLE_STANCE_PAIRS)))[::-1]
        log = DebateLog("n", tuple(turns))
        sample = make_sample(log, np.zeros((len(turns), 2)), np.zeros(2))
        assert sample.role_ids.tolist() == list(range(len(ROLE_STANCE_PAIRS)))

    def test_init_range(self):
        table = RoleTable.create(d_h=8, d_r=4, rng=np.random.default_rng(1))
        assert np.all(np.abs(table.embeddings) <= 0.1)
        assert np.all(np.abs(table.projection) <= 0.1)

    def test_wrong_pair_count_rejected(self):
        with pytest.raises(ValueError):
            RoleTable(np.zeros((3, 2)), np.zeros((4, 2)))


def node_features(table: RoleTable, turns, emb: np.ndarray) -> np.ndarray:
    """The node features the model feeds its first GAT layer, for one
    sample whose turns all carry the text embedding ``emb``, under a
    model holding ``table``'s role parameters. The first layer's weight
    is set to the identity, so its projection W x is the features x."""
    d_h, d_r = table.projection.shape
    model = AnalysisModel.create(ModelConfig(d_h=d_h, d_r=d_r, gat_hidden=2 * d_h, d_p=2,
                                             heads=1))
    model.role_table.embeddings[...] = table.embeddings
    model.role_table.projection[...] = table.projection
    model.gat_layers[0].weight[...] = np.eye(2 * d_h)
    sample = make_sample(DebateLog("n", tuple(turns)), np.tile(emb, (len(turns), 1)), emb)
    return model.forward([sample])[1]["gat"][0].projected[0]


class TestBuildNode:
    def test_hand_computed_case(self):
        # d_h=2, d_r=1, W_role=[[1],[2]], e=[3], emb=[5,7] -> [5,7,3,6]
        table = RoleTable(np.full((10, 1), 3.0), np.array([[1.0], [2.0]]))
        emb = np.array([5.0, 7.0])
        node = node_features(table, [turn()], emb)[0]
        assert np.array_equal(node, [5.0, 7.0, 3.0, 6.0])

    def test_zero_projection_gives_zero_tail(self):
        table = RoleTable(np.random.default_rng(0).uniform(-1, 1, (10, 3)),
                          np.zeros((4, 3)))
        emb = np.arange(4.0)
        node = node_features(table, [turn()], emb)[0]
        assert np.array_equal(node[:4], emb)
        assert np.array_equal(node[4:], np.zeros(4))

    def test_dimension_mismatch_rejected(self):
        table = RoleTable.create(d_h=4, d_r=2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            node_features(table, [turn()], np.ones(3))

    def test_linear_in_role_vector(self):
        rng = np.random.default_rng(2)
        table = RoleTable.create(d_h=4, d_r=2, rng=rng)
        emb = rng.standard_normal(4)
        base = node_features(table, [turn()], emb)[0]
        scaled_table = RoleTable(table.embeddings * 2.5, table.projection)
        scaled = node_features(scaled_table, [turn()], emb)[0]
        assert np.allclose(scaled[:4], base[:4])
        assert np.allclose(scaled[4:], base[4:] * 2.5)

    def test_same_text_different_roles_differ_only_in_tail(self):
        rng = np.random.default_rng(3)
        table = RoleTable.create(d_h=4, d_r=2, rng=rng)
        emb = rng.standard_normal(4)
        a, b = node_features(table, [
            turn(role=DebateRole.QUESTIONER),
            DebateTurn(4, "pro_0", Stance.TRUE, DebateRole.REBUTTER,
                       DebateStage.REBUTTAL, "text"),
        ], emb)
        assert np.array_equal(a[:4], b[:4])
        assert not np.allclose(a[4:], b[4:])
