import random

import numpy as np
import pytest
from hypothesis import given, settings

from oracles import brute_force_neighbors
from strategies import random_valid_log, valid_logs
from veridebate.domain import DebateLog, DebateRole, DebateStage, DebateTurn, Stance
from veridebate.graph import adjacency_mask, edges_for_log, log_mask
from veridebate.neural import make_sample


def one_turn_log():
    turn = DebateTurn(0, "pro_0", Stance.TRUE, DebateRole.OPENING_SPEAKER,
                      DebateStage.OPENING, "hello")
    return DebateLog("single", (turn,))


def mask_for(log: DebateLog) -> np.ndarray:
    return adjacency_mask(edges_for_log(log), len(log.turns))


class TestBuildGraph:
    def test_default_log_has_thirty_directed_edges(self, default_log):
        # 8 self-loops + 14 sequential + 8 reference edges; the (4,3)
        # reference coincides with a sequential pair and is kept, so the
        # count stays at the closed form.
        assert len(edges_for_log(default_log)) == 30

    def test_single_turn_graph_is_one_self_loop(self):
        assert edges_for_log(one_turn_log()) == ((0, 0),)
        assert np.array_equal(mask_for(one_turn_log()), [[True]])

    def test_node_count_mismatch_rejected(self, default_log):
        with pytest.raises(ValueError):
            make_sample(default_log, np.ones((5, 4)), np.ones(4))

    def test_self_loops_present_for_every_node(self, default_log):
        assert mask_for(default_log).diagonal().all()

    def test_non_loop_edges_symmetric(self, default_log):
        mask = mask_for(default_log)
        assert np.array_equal(mask, mask.T)

    def test_rebuild_is_identical(self, default_log):
        assert edges_for_log(default_log) == edges_for_log(default_log)
        a, b = mask_for(default_log), mask_for(default_log)
        assert a.dtype == bool and a.shape == (8, 8)
        assert np.array_equal(a, b)


class TestNeighbors:
    def test_default_log_node_zero(self, default_log):
        assert np.flatnonzero(mask_for(default_log)[0]).tolist() == [0, 1, 2]

    def test_single_node(self):
        assert np.flatnonzero(mask_for(one_turn_log())[0]).tolist() == [0]

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            adjacency_mask([(0, 0), (0, 8)], 8)

    def test_always_contains_self(self, default_log):
        mask = mask_for(default_log)
        for i in range(8):
            assert i in np.flatnonzero(mask[i])


def closed_form_count(log: DebateLog) -> int:
    n = len(log.turns)
    total_targets = sum(len(t.targets) for t in log.turns)
    return n + 2 * (n - 1) + 2 * total_targets


@settings(max_examples=100, deadline=None)
@given(valid_logs())
def test_log_mask_equals_the_edge_list_mask(log):
    mask = log_mask(log)
    assert mask.dtype == bool
    assert np.array_equal(mask, mask_for(log))


@pytest.mark.parametrize("log", [DebateLog("empty", ()), one_turn_log()], ids=["empty", "one_turn"])
def test_log_mask_of_the_smallest_logs(log):
    assert np.array_equal(log_mask(log), mask_for(log))
    assert log_mask(log).shape == (len(log.turns),) * 2


def test_sample_adjacency_is_the_edge_list_mask(default_log):
    sample = make_sample(default_log, np.ones((8, 4)), np.ones(4))
    assert np.array_equal(sample.adjacency, mask_for(default_log))


@settings(max_examples=60, deadline=None)
@given(valid_logs())
def test_edge_count_matches_closed_form(log):
    assert len(edges_for_log(log)) == closed_form_count(log)


@settings(max_examples=60, deadline=None)
@given(valid_logs())
def test_neighbors_match_brute_force(log):
    n = len(log.turns)
    mask = mask_for(log)
    oracle = brute_force_neighbors(edges_for_log(log), n)
    for i in range(n):
        assert set(np.flatnonzero(mask[i]).tolist()) == oracle[i]


@settings(max_examples=40, deadline=None)
@given(valid_logs())
def test_graph_connected_for_valid_logs(log):
    mask = mask_for(log)
    seen = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for other in np.flatnonzero(mask[node]).tolist():
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    assert seen == set(range(len(log.turns)))


def test_random_log_generator_exercises_adjacent_targets():
    # The closed-form count only holds with multiplicity, which matters
    # exactly when a target lands on an adjacent turn; make sure the
    # generator reaches that case.
    rng = random.Random(0)
    hit = False
    for _ in range(50):
        log = random_valid_log(rng)
        for turn in log.turns:
            if any(t == turn.turn_index - 1 for t in turn.targets):
                hit = True
        edges = edges_for_log(log)
        assert len(edges) == closed_form_count(log)
    assert hit
