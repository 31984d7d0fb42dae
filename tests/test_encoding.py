import json

import numpy as np
import pytest

from veridebate.domain import DebateLog, DebateRole, DebateStage, DebateTurn, Stance
from veridebate.encoding import (
    ROLE_PAIR_INDEX,
    ROLE_STANCE_PAIRS,
    CachedEmbedder,
    EmbeddingCache,
    EmbeddingVector,
    HashEmbeddingProvider,
    RemoteEmbeddingProvider,
    RoleTable,
)
from veridebate.neural import AnalysisModel, ModelConfig, make_sample

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
        assert np.array_equal(a.values, b.values)

    def test_distinct_across_fixed_corpus(self):
        provider = HashEmbeddingProvider(dim=32, seed=0)
        vectors = [provider.embed_text(text).values for text in CORPUS]
        for i in range(len(vectors)):
            for j in range(i + 1, len(vectors)):
                assert not np.allclose(vectors[i], vectors[j]), (i, j)

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            HashEmbeddingProvider(dim=8).embed_text("  ")

    def test_dimension_and_finiteness(self):
        vec = HashEmbeddingProvider(dim=24, seed=3).embed_text("anything at all")
        assert vec.dim == 24
        assert np.all(np.isfinite(vec.values))

    def test_seed_changes_vectors(self):
        a = HashEmbeddingProvider(dim=8, seed=0).embed_text("hello")
        b = HashEmbeddingProvider(dim=8, seed=1).embed_text("hello")
        assert not np.allclose(a.values, b.values)

    def test_token_permutations_collide(self):
        # Known provider property: order is not encoded.
        provider = HashEmbeddingProvider(dim=16, seed=0)
        a = provider.embed_text("alpha bravo cedar")
        b = provider.embed_text("cedar alpha bravo")
        assert np.array_equal(a.values, b.values)


class TestEmbeddingVector:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            EmbeddingVector(np.array([1.0, np.nan]), "p")

    def test_values_read_only(self):
        vec = EmbeddingVector(np.ones(3), "p")
        with pytest.raises(ValueError):
            vec.values[0] = 2.0


class TestEmbeddingCache:
    def test_roundtrip_bit_identical(self, tmp_path):
        provider = HashEmbeddingProvider(dim=16, seed=0)
        embedder = CachedEmbedder(provider, EmbeddingCache(tmp_path))
        cold = embedder.embed_text("cache me")
        warm = embedder.embed_text("cache me")
        assert np.array_equal(cold.values, warm.values)

    def test_one_pack_per_provider(self, tmp_path):
        cache = EmbeddingCache(tmp_path)
        embedder = CachedEmbedder(HashEmbeddingProvider(dim=8, seed=0), cache)
        embedder.embed_text("pack check")
        paths = list(tmp_path.rglob("*.pack"))
        assert len(paths) == 1
        assert paths[0].parent == tmp_path / embedder.provider_id
        header, payload = paths[0].read_bytes().split(b"\n", 1)
        assert json.loads(header)["size"] == len(payload)  # exactly one record
        values = np.frombuffer(payload, dtype="<f4")
        assert values.shape == (8,)
        assert np.array_equal(values, embedder.embed_text("pack check").values)


class TestRemoteProvider:
    def test_parses_embedding_payload(self):
        import json

        def transport(url, body, headers, timeout):
            assert url.endswith("/embeddings")
            return 200, json.dumps({"data": [{"embedding": [0.1, 0.2, 0.3]}]}).encode()

        provider = RemoteEmbeddingProvider("https://api.example", dim=3, api_key="k",
                                           transport=transport)
        vec = provider.embed_text("hi there")
        assert vec.dim == 3

    def test_dimension_mismatch_rejected(self):
        import json

        def transport(url, body, headers, timeout):
            return 200, json.dumps({"data": [{"embedding": [0.1, 0.2]}]}).encode()

        provider = RemoteEmbeddingProvider("https://api.example", dim=3, api_key="k",
                                           transport=transport)
        with pytest.raises(Exception):
            provider.embed_text("hi")


class TestRoleTable:
    def test_covers_all_pairs(self):
        assert len(ROLE_STANCE_PAIRS) == 10
        table = RoleTable.create(d_h=4, d_r=2, rng=np.random.default_rng(0))
        for pair in ROLE_STANCE_PAIRS:
            assert (table.projection @ table.embeddings[ROLE_PAIR_INDEX[pair]]).shape == (4,)

    def test_init_range(self):
        table = RoleTable.create(d_h=8, d_r=4, rng=np.random.default_rng(1))
        assert np.all(np.abs(table.embeddings) <= 0.1)
        assert np.all(np.abs(table.projection) <= 0.1)

    def test_wrong_pair_count_rejected(self):
        with pytest.raises(ValueError):
            RoleTable(np.zeros((3, 2)), np.zeros((4, 2)))


def node_features(table: RoleTable, turns, emb: EmbeddingVector) -> np.ndarray:
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
    sample = make_sample(DebateLog("n", tuple(turns)), [emb] * len(turns), emb)
    return model.forward([sample])[1]["gat"][0].projected[0]


class TestBuildNode:
    def test_hand_computed_case(self):
        # d_h=2, d_r=1, W_role=[[1],[2]], e=[3], emb=[5,7] -> [5,7,3,6]
        table = RoleTable(np.full((10, 1), 3.0), np.array([[1.0], [2.0]]))
        emb = EmbeddingVector(np.array([5.0, 7.0]), "p")
        node = node_features(table, [turn()], emb)[0]
        assert np.array_equal(node, [5.0, 7.0, 3.0, 6.0])

    def test_zero_projection_gives_zero_tail(self):
        table = RoleTable(np.random.default_rng(0).uniform(-1, 1, (10, 3)),
                          np.zeros((4, 3)))
        emb = EmbeddingVector(np.arange(4.0), "p")
        node = node_features(table, [turn()], emb)[0]
        assert np.array_equal(node[:4], emb.values)
        assert np.array_equal(node[4:], np.zeros(4))

    def test_dimension_mismatch_rejected(self):
        table = RoleTable.create(d_h=4, d_r=2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            node_features(table, [turn()], EmbeddingVector(np.ones(3), "p"))

    def test_linear_in_role_vector(self):
        rng = np.random.default_rng(2)
        table = RoleTable.create(d_h=4, d_r=2, rng=rng)
        emb = EmbeddingVector(rng.standard_normal(4), "p")
        base = node_features(table, [turn()], emb)[0]
        scaled_table = RoleTable(table.embeddings * 2.5, table.projection)
        scaled = node_features(scaled_table, [turn()], emb)[0]
        assert np.allclose(scaled[:4], base[:4])
        assert np.allclose(scaled[4:], base[4:] * 2.5)

    def test_same_text_different_roles_differ_only_in_tail(self):
        rng = np.random.default_rng(3)
        table = RoleTable.create(d_h=4, d_r=2, rng=rng)
        emb = EmbeddingVector(rng.standard_normal(4), "p")
        a, b = node_features(table, [
            turn(role=DebateRole.QUESTIONER),
            DebateTurn(4, "pro_0", Stance.TRUE, DebateRole.REBUTTER,
                       DebateStage.REBUTTAL, "text"),
        ], emb)
        assert np.array_equal(a[:4], b[:4])
        assert not np.allclose(a[4:], b[4:])
