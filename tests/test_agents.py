"""Unit tests for agent-based broadcasting (reference [13] model)."""

import math

import numpy as np
import pytest

from repro import simulate
from repro.errors import (
    BroadcastIncompleteError,
    DisconnectedGraphError,
    InvalidParameterError,
)
from repro.graphs import Adjacency, complete_graph, cycle_graph, gnp_connected


class TestAgentBroadcast:
    def test_completes_on_gnp(self):
        n = 256
        g = gnp_connected(n, 4 * math.log(n) / n, seed=80)
        trace = simulate("agents", g, num_agents=32, source=0, seed=1)
        assert trace.completed

    def test_no_collisions_in_model(self):
        g = gnp_connected(128, 0.1, seed=81)
        trace = simulate("agents", g, num_agents=16, source=0, seed=2)
        assert trace.total_collisions == 0

    def test_more_agents_faster(self):
        n = 256
        g = gnp_connected(n, 4 * math.log(n) / n, seed=82)

        def mean_time(k):
            return np.mean([
                simulate("agents", g, num_agents=k, seed=s).completion_round for s in range(3)
            ])

        assert mean_time(64) < mean_time(4)

    def test_single_agent_completes_on_cycle(self):
        # One walker on a small cycle: pure cover time, still finishes.
        g = cycle_graph(12)
        trace = simulate("agents", g, num_agents=1, source=0, seed=3)
        assert trace.completed
        assert trace.completion_round >= 11  # must visit everyone

    def test_agents_start_at_source(self):
        g = complete_graph(30)
        trace = simulate("agents", g, num_agents=10, source=0, seed=4, agents_start_at_source=True)
        assert trace.completed
        # On K_n with source-started agents, every hop delivers: fast.
        assert trace.completion_round < 30

    def test_scattered_agents_must_first_find_rumor(self):
        # With agents_start_at_source=False, carriers start at 0 unless an
        # agent happens to sit on the source.
        g = cycle_graph(40)
        trace = simulate("agents", g, num_agents=2, source=0, seed=5)
        assert trace.completed

    def test_carrier_count_monotone(self):
        g = gnp_connected(128, 0.1, seed=83)
        trace = simulate("agents", g, num_agents=8, source=0, seed=6)
        carriers = [rec.num_transmitters for rec in trace.records]
        assert all(a <= b for a, b in zip(carriers, carriers[1:]))

    def test_informed_curve_monotone(self):
        g = gnp_connected(128, 0.1, seed=84)
        trace = simulate("agents", g, num_agents=8, source=0, seed=7)
        assert np.all(np.diff(trace.informed_curve()) >= 0)

    def test_validation(self):
        g = complete_graph(5)
        with pytest.raises(InvalidParameterError):
            simulate("agents", g, num_agents=0, source=0)
        with pytest.raises(InvalidParameterError):
            simulate("agents", g, num_agents=1, source=9)

    def test_disconnected_rejected(self):
        g = Adjacency.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            simulate("agents", g, num_agents=2, source=0)

    def test_budget_exhaustion(self):
        g = cycle_graph(60)
        with pytest.raises(BroadcastIncompleteError) as exc:
            simulate("agents", g, num_agents=1, source=0, seed=8, max_rounds=3)
        assert exc.value.trace.num_rounds == 3

    def test_deterministic_given_seed(self):
        g = gnp_connected(100, 0.12, seed=85)
        a = simulate("agents", g, num_agents=8, source=0, seed=9).completion_round
        b = simulate("agents", g, num_agents=8, source=0, seed=9).completion_round
        assert a == b
