import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from strategies import random_graph_sample
from veridebate.graph import adjacency_mask
from veridebate.neural import (
    AdamState,
    AnalysisModel,
    ClassifierHead,
    InteractionHead,
    ModelConfig,
    adam_step,
    classify,
    cross_entropy,
    global_mean_pool,
    interact,
    predict_proba,
)
from veridebate.neural.adam import BETA1, BETA2, CHUNK, EPS
from veridebate.neural.gat import GatLayer, elu, gat_forward, leaky_relu


def chain_graph(n):
    edges = [(i, i) for i in range(n)]
    for i in range(n - 1):
        edges += [(i, i + 1), (i + 1, i)]
    return adjacency_mask(edges, n)


class TestActivations:
    @pytest.mark.parametrize("x", [-3.0, -0.7, -1e-9, 0.0, 1e-9, 0.4, 2.5])
    def test_elu_closed_form(self, x):
        expected = x if x > 0 else math.exp(x) - 1.0
        assert elu(np.array([x]))[0] == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("x", [-3.0, -0.7, 0.0, 0.4, 2.5])
    def test_leaky_relu_closed_form(self, x):
        expected = x if x > 0 else 0.2 * x
        assert leaky_relu(np.array([x]), 0.2)[0] == pytest.approx(expected, abs=1e-15)


class TestGatForward:
    def test_single_node_attention_is_one(self):
        rng = np.random.default_rng(0)
        layer = GatLayer.create(3, 4, rng)
        feats = rng.standard_normal((1, 3))
        out, alpha = gat_forward(layer, feats, [[True]], return_attention=True)
        assert alpha[0] == pytest.approx([1.0])
        expected = elu(layer.weight @ feats[0])
        assert np.allclose(out[0], expected)

    def test_two_node_chain_uniform_attention_with_zero_a(self):
        layer = GatLayer(weight=np.eye(2), attn=np.zeros(4), activation="elu")
        feats = np.array([[1.0, -2.0], [3.0, 0.5]])
        out, alpha = gat_forward(layer, feats, chain_graph(2), return_attention=True)
        for row in alpha:
            assert row == pytest.approx([0.5, 0.5])
        expected = elu(feats.mean(axis=0))
        assert np.allclose(out[0], expected)
        assert np.allclose(out[1], expected)

    def test_disconnected_components_are_local(self):
        rng = np.random.default_rng(1)
        layer = GatLayer.create(3, 3, rng)
        edges = [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (1, 0), (2, 3), (3, 2)]
        graph = adjacency_mask(edges, 4)
        feats = rng.standard_normal((4, 3))
        out_a = gat_forward(layer, feats, graph)
        changed = feats.copy()
        changed[2:] = rng.standard_normal((2, 3))
        out_b = gat_forward(layer, changed, graph)
        assert np.allclose(out_a[:2], out_b[:2])
        assert not np.allclose(out_a[2:], out_b[2:])

    def test_dimension_mismatch_rejected(self):
        layer = GatLayer.create(3, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            gat_forward(layer, np.zeros((2, 5)), chain_graph(2))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        n = 6
        layer = GatLayer.create(4, 3, rng)
        edges = [(i, i) for i in range(n)]
        for i in range(n - 1):
            edges += [(i, i + 1), (i + 1, i)]
        edges += [(0, 3), (3, 0)]
        graph = adjacency_mask(edges, n)
        feats = rng.standard_normal((n, 4))
        out = gat_forward(layer, feats, graph)

        perm = rng.permutation(n)
        perm_edges = [(int(perm[a]), int(perm[b])) for a, b in edges]
        perm_graph = adjacency_mask(perm_edges, n)
        perm_feats = np.empty_like(feats)
        perm_feats[perm] = feats
        perm_out = gat_forward(layer, perm_feats, perm_graph)
        assert np.allclose(perm_out[perm], out, atol=1e-10)


class TestGlobalMeanPool:
    def test_single_node_identity(self):
        feats = np.array([[1.0, -4.0, 2.0]])
        assert np.array_equal(global_mean_pool(feats), feats[0])

    def test_two_node_mean(self):
        assert np.array_equal(
            global_mean_pool(np.array([[1.0, 3.0], [3.0, 1.0]])), [2.0, 2.0]
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            global_mean_pool(np.zeros((0, 3)))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((7, 3))
        shuffled = feats[rng.permutation(7)]
        assert np.allclose(global_mean_pool(feats), global_mean_pool(shuffled))


def identity_head(d_p=2, news_dim=1, heads=1):
    return InteractionHead(
        graph_proj=np.eye(d_p),
        news_proj=np.array([[1.0], [0.0]]),
        query=np.eye(d_p),
        key=np.eye(d_p),
        value=np.eye(d_p),
        out=np.eye(d_p),
        heads=heads,
    )


class TestInteract:
    def test_pooled_mode_constant_in_query(self):
        rng = np.random.default_rng(4)
        head = InteractionHead.create(node_dim=6, news_dim=3, d_p=4, heads=2, rng=rng)
        nodes = rng.standard_normal((5, 6))
        pooled = nodes.mean(axis=0)
        d_p = 4
        a = interact(rng.standard_normal(3), nodes, pooled, head, mode="pooled")
        b = interact(rng.standard_normal(3), nodes, pooled, head, mode="pooled")
        assert np.array_equal(a[d_p:], b[d_p:])
        # and the context equals out(value(g_proj)) exactly
        g_proj = head.graph_proj @ pooled
        assert np.allclose(a[d_p:], head.out @ (head.value @ g_proj))

    def test_identical_nodes_match_pooled_mode(self):
        rng = np.random.default_rng(5)
        head = InteractionHead.create(node_dim=6, news_dim=3, d_p=4, heads=2, rng=rng)
        shared = rng.standard_normal(6)
        nodes = np.tile(shared, (4, 1))
        news = rng.standard_normal(3)
        a = interact(news, nodes, shared, head, mode="nodes")
        b = interact(news, nodes, shared, head, mode="pooled")
        assert np.allclose(a, b)

    def test_two_node_one_head_hand_case(self):
        head = identity_head()
        nodes = np.array([[1.0, 0.0], [0.0, 2.0]])
        pooled = nodes.mean(axis=0)
        news = np.array([2.0])
        fused = interact(news, nodes, pooled, head, mode="nodes")
        # independent arithmetic: q = [2, 0]; scores = (k_i . q)/sqrt(2)
        s0 = 2.0 / math.sqrt(2)
        s1 = 0.0
        w0 = math.exp(s0) / (math.exp(s0) + math.exp(s1))
        w1 = 1.0 - w0
        expected = np.array([0.5, 1.0, w0 * 1.0, w1 * 2.0])
        assert np.allclose(fused, expected, atol=1e-12)

    def test_unknown_mode_rejected(self):
        head = identity_head()
        with pytest.raises(ValueError):
            interact(np.ones(1), np.ones((2, 2)), np.ones(2), head, mode="other")

    def test_head_weight_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        head = InteractionHead.create(node_dim=6, news_dim=3, d_p=8, heads=4, rng=rng)
        nodes = rng.standard_normal((7, 6))
        _, weights = interact(rng.standard_normal(3), nodes, nodes.mean(axis=0),
                              head, mode="nodes", return_weights=True)
        assert weights.shape == (4, 7)
        assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-6)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ValueError):
            InteractionHead.create(node_dim=4, news_dim=2, d_p=6, heads=4,
                                   rng=np.random.default_rng(0))


class TestClassify:
    def test_zero_head_is_uniform(self):
        head = ClassifierHead(weight=np.zeros((2, 3)), bias=np.zeros(2))
        assert classify(np.ones(3), head) == pytest.approx([0.5, 0.5])

    def test_log3_logits(self):
        head = ClassifierHead(weight=np.zeros((2, 3)), bias=np.array([math.log(3), 0.0]))
        assert classify(np.ones(3), head) == pytest.approx([0.75, 0.25])

    @given(st.lists(st.floats(-50, 50), min_size=4, max_size=4))
    def test_output_is_distribution(self, values):
        head = ClassifierHead(weight=np.array([values[:2], values[2:]]), bias=np.zeros(2))
        probs = classify(np.ones(2), head)
        assert abs(probs.sum() - 1.0) < 1e-9
        assert np.all(probs > 0)

    def test_dimension_mismatch_rejected(self):
        head = ClassifierHead(weight=np.zeros((2, 3)), bias=np.zeros(2))
        with pytest.raises(ValueError):
            classify(np.ones(4), head)


class TestLoss:
    def test_perfect_prediction(self):
        assert cross_entropy(np.array([1.0, 0.0]), 0) == 0.0

    def test_uniform(self):
        assert cross_entropy(np.array([0.5, 0.5]), 1) == pytest.approx(math.log(2))

    def test_quarter(self):
        assert cross_entropy(np.array([0.75, 0.25]), 1) == pytest.approx(math.log(4))

    def test_zero_probability_clamped(self):
        value = cross_entropy(np.array([0.0, 1.0]), 0)
        assert value == pytest.approx(-math.log(1e-12))

    def test_batch_is_mean_of_rows(self):
        probs = np.array([[0.5, 0.5], [0.75, 0.25]])
        assert cross_entropy(probs, [1, 1]) == pytest.approx((math.log(2) + math.log(4)) / 2)

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy(np.array([0.5, 0.5]), 2)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        state = AdamState.create(3, lr=0.1)
        params = np.array([1.0, -2.0, 0.5])
        adam_step(params, np.zeros(3), state)
        assert np.array_equal(params, [1.0, -2.0, 0.5])
        assert state.step == 1

    def test_single_step_hand_case(self):
        state = AdamState.create(1, lr=0.1)
        params = np.array([1.0])
        adam_step(params, np.array([0.5]), state)
        # bias-corrected m=0.5, v=0.25 -> delta = -lr * 0.5/(0.5 + eps)
        assert params[0] == pytest.approx(0.9, abs=1e-6)

    def test_constant_gradient_approaches_lr_magnitude(self):
        state = AdamState.create(2, lr=0.01)
        params = np.zeros(2)
        grad = np.array([0.3, -4.0])
        for _ in range(200):
            previous = params.copy()
            adam_step(params, grad, state)
        delta = params - previous
        assert np.allclose(np.abs(delta), 0.01, rtol=1e-3)
        assert np.all(np.sign(delta) == -np.sign(grad))

    def test_chunked_step_is_bit_identical_to_whole_vector_formula(self):
        rng = np.random.default_rng(13)
        size = 2 * CHUNK + 17  # two full chunks and a short tail
        state = AdamState.create(size, lr=0.01)
        params = rng.standard_normal(size)
        m, v, expected = np.zeros(size), np.zeros(size), params.copy()
        for step in range(1, 6):
            grads = rng.standard_normal(size) * 10.0 ** rng.integers(-6, 3, size)
            adam_step(params, grads, state)
            # The efficient order: bias corrections folded into the step
            # size and epsilon.
            root = math.sqrt(1.0 - BETA2**step)
            alpha = state.lr * root / (1.0 - BETA1**step)
            m = BETA1 * m + (1.0 - BETA1) * grads
            v = BETA2 * v + (1.0 - BETA2) * grads**2
            expected = expected - m / (np.sqrt(v) + EPS * root) * alpha
        assert np.array_equal(params, expected)
        assert np.array_equal(state.m, m)
        assert np.array_equal(state.v, v)

    def test_efficient_order_matches_textbook_update(self):
        rng = np.random.default_rng(14)
        size = 4096
        state = AdamState.create(size, lr=0.01)
        params = rng.standard_normal(size)
        m, v, expected = np.zeros(size), np.zeros(size), params.copy()
        for step in range(1, 6):
            # Magnitudes from 1e-6 to 1e2, so eps matters for some entries.
            grads = rng.standard_normal(size) * 10.0 ** rng.integers(-6, 3, size)
            adam_step(params, grads, state)
            m = BETA1 * m + (1.0 - BETA1) * grads
            v = BETA2 * v + (1.0 - BETA2) * grads**2
            m_hat = m / (1.0 - BETA1**step)
            v_hat = v / (1.0 - BETA2**step)
            expected = expected - state.lr * m_hat / (np.sqrt(v_hat) + EPS)
        for actual, textbook in ((params, expected), (state.m, m), (state.v, v)):
            np.testing.assert_allclose(actual, textbook, rtol=1e-12, atol=0)

    def test_non_finite_rejected(self):
        state = AdamState.create(1, lr=0.1)
        with pytest.raises(ValueError):
            adam_step(np.array([1.0]), np.array([np.nan]), state)

    def test_length_mismatch_rejected(self):
        state = AdamState.create(2, lr=0.1)
        with pytest.raises(ValueError):
            adam_step(np.zeros(3), np.zeros(3), state)


class TestNormalizationSweep:
    """Attention rows and classifier outputs stay normalized over many
    randomized inputs."""

    def test_gat_alpha_rows(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            sample = random_graph_sample(rng, n, 4)
            layer = GatLayer.create(4, 5, rng)
            _, alpha = gat_forward(layer, sample.node_embeddings, sample.adjacency,
                                   return_attention=True)
            assert np.all(np.abs(alpha.sum(axis=1) - 1.0) < 1e-6)
            assert not alpha[~sample.adjacency].any()

    def test_model_probs_normalized(self):
        rng = np.random.default_rng(12)
        model = AnalysisModel.create(
            ModelConfig(d_h=4, d_r=2, gat_hidden=5, gat_layers=2, d_p=4, heads=2, seed=1)
        )
        for _ in range(50):
            sample = random_graph_sample(rng, int(rng.integers(2, 8)), 4)
            probs = predict_proba(model, [sample])[0]
            assert abs(probs.sum() - 1.0) < 1e-9
            assert np.all(probs > 0)
