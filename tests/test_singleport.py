"""Unit tests for single-port rumor spreading (related-work substrate)."""

import math

import numpy as np
import pytest

from repro import simulate
from repro.errors import (
    BroadcastIncompleteError,
    DisconnectedGraphError,
    InvalidParameterError,
)
from repro.graphs import Adjacency, complete_graph, path_graph


class TestPush:
    def test_completes_on_star(self, star10):
        trace = simulate("push", star10, source=0, seed=0)
        assert trace.completed
        # Hub informs one leaf per round: at least 9 rounds.
        assert trace.completion_round >= 9

    def test_completes_on_gnp(self, gnp_medium):
        trace = simulate("push", gnp_medium, source=0, seed=1)
        assert trace.completed

    def test_no_collisions_ever(self, gnp_medium):
        trace = simulate("push", gnp_medium, source=0, seed=2)
        assert trace.total_collisions == 0

    def test_time_order_log_n_on_clique(self):
        # On K_n push completes in log2 n + ln n + O(1) w.h.p.
        n = 256
        g = complete_graph(n)
        times = [simulate("push", g, source=0, seed=s).completion_round for s in range(5)]
        reference = math.log2(n) + math.log(n)
        assert np.mean(times) < 2 * reference
        assert np.mean(times) > 0.5 * reference

    def test_disconnected_raises(self):
        g = Adjacency.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            simulate("push", g, source=0)

    def test_source_out_of_range(self, path5):
        # A bad source id is a parameter error, not a graph property.
        with pytest.raises(InvalidParameterError):
            simulate("push", path5, source=9)
        with pytest.raises(InvalidParameterError):
            simulate("push-pull", path5, source=-1)

    def test_budget_exhaustion(self, path5):
        # A path of 5 with tiny budget: push advances ~1 hop/round.
        with pytest.raises(BroadcastIncompleteError):
            simulate("push", path_graph(200), source=0, seed=3, max_rounds=5)

    def test_deterministic_given_seed(self, gnp_small):
        a = simulate("push", gnp_small, source=0, seed=9).completion_round
        b = simulate("push", gnp_small, source=0, seed=9).completion_round
        assert a == b

    def test_monotone_informed_curve(self, gnp_small):
        trace = simulate("push", gnp_small, source=0, seed=4)
        assert np.all(np.diff(trace.informed_curve()) >= 0)


class TestPushPull:
    def test_completes(self, gnp_medium):
        trace = simulate("push-pull", gnp_medium, source=0, seed=5)
        assert trace.completed

    def test_faster_than_push_on_star(self, star10):
        # Pull lets every leaf call the hub in round 1: two rounds total
        # (vs ~n for push).
        pp = simulate("push-pull", star10, source=0, seed=6).completion_round
        p = simulate("push", star10, source=0, seed=6).completion_round
        assert pp <= 3
        assert pp < p

    def test_faster_or_equal_on_gnp(self, gnp_medium):
        pp = np.mean(
            [simulate("push-pull", gnp_medium, source=0, seed=s).completion_round for s in range(4)]
        )
        p = np.mean(
            [simulate("push", gnp_medium, source=0, seed=s).completion_round for s in range(4)]
        )
        assert pp <= p

    def test_single_node(self):
        g = Adjacency.empty(1)
        trace = simulate("push", g, source=0, seed=0)
        assert trace.completed
        assert trace.num_rounds == 0
