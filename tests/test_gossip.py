"""Unit tests for the gossip simulator and traces."""

import math

import numpy as np
import pytest

from repro import simulate
from repro.broadcast.distributed import DecayProtocol, UniformProtocol
from repro.errors import BroadcastIncompleteError, DisconnectedGraphError
from repro.gossip import GossipTrace
from repro.gossip.dynamics import default_gossip_round_cap
from repro.graphs import Adjacency, gnp_connected, path_graph
from repro.radio import RadioNetwork


class TestSimulateGossip:
    def test_completes_on_small_gnp(self):
        g = gnp_connected(64, 0.2, seed=1)
        trace = simulate("gossip", RadioNetwork(g), protocol=UniformProtocol(0.1), seed=2)
        assert trace.completed
        assert np.all(trace.knowledge_counts == 64)

    def test_path_gossip(self):
        g = path_graph(6)
        trace = simulate("gossip", RadioNetwork(g), protocol=UniformProtocol(0.4), seed=3)
        assert trace.completed
        # End-to-end rumor exchange needs at least the diameter.
        assert trace.completion_round >= 5

    def test_star_gossip(self, star10):
        # Every leaf's rumor must transit the hub: >= 2 * (n-1)-ish rounds
        # of clean leaf->hub plus hub->all transmissions.
        trace = simulate("gossip", RadioNetwork(star10), protocol=DecayProtocol(10), seed=4)
        assert trace.completed
        assert trace.completion_round > 9

    def test_knowledge_monotone(self):
        g = gnp_connected(48, 0.25, seed=5)
        trace = simulate("gossip", RadioNetwork(g), protocol=UniformProtocol(0.1), seed=6)
        curve = trace.knowledge_curve()
        assert curve[0] == 48  # everyone knows their own rumor
        assert np.all(np.diff(curve) >= 0)
        assert curve[-1] == 48 * 48

    def test_first_complete_before_completion(self):
        g = gnp_connected(64, 0.15, seed=7)
        trace = simulate("gossip", RadioNetwork(g), protocol=UniformProtocol(0.1), seed=8)
        assert trace.rounds_until_first_complete_node() <= trace.completion_round

    def test_budget_exhaustion(self):
        g = gnp_connected(64, 0.15, seed=9)
        with pytest.raises(BroadcastIncompleteError) as exc:
            simulate(
                "gossip", RadioNetwork(g), protocol=UniformProtocol(0.05), seed=10, max_rounds=3,
            )
        assert isinstance(exc.value.trace, GossipTrace)
        assert not exc.value.trace.completed

    def test_disconnected_rejected(self):
        g = Adjacency.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            simulate("gossip", RadioNetwork(g), protocol=UniformProtocol(0.5))

    def test_deterministic_given_seed(self):
        g = gnp_connected(48, 0.25, seed=11)
        net = RadioNetwork(g)
        a = simulate("gossip", net, protocol=UniformProtocol(0.15), seed=12).completion_round
        b = simulate("gossip", net, protocol=UniformProtocol(0.15), seed=12).completion_round
        assert a == b

    def test_gossip_slower_than_broadcast(self):
        # Gossip subsumes n broadcasts; it can never beat a single one.
        n = 128
        p = 5 * math.log(n) / n
        g = gnp_connected(n, p, seed=13)
        net = RadioNetwork(g)
        q = min(1.0, 1.0 / (p * n))
        g_time = simulate(
            "gossip", net, protocol=UniformProtocol(q), seed=14, max_rounds=20000,
        ).completion_round
        b_time = simulate(
            "broadcast", net, protocol=UniformProtocol(q), source=0, seed=14, max_rounds=20000,
        ).completion_round
        assert g_time > b_time

    def test_single_node(self):
        g = Adjacency.empty(1)
        trace = simulate("gossip", RadioNetwork(g), protocol=UniformProtocol(0.5), seed=0)
        assert trace.completed
        assert trace.num_rounds == 0


class TestGossipTrace:
    def test_empty_trace_incomplete(self):
        trace = GossipTrace(n=4)
        assert not trace.completed
        with pytest.raises(ValueError):
            trace.completion_round

    def test_no_complete_node_raises(self):
        trace = GossipTrace(n=4)
        trace.knowledge_counts = np.array([4, 1, 1, 1])
        with pytest.raises(ValueError, match="no node"):
            trace.rounds_until_first_complete_node()

    def test_summary_and_repr(self):
        g = gnp_connected(32, 0.3, seed=15)
        trace = simulate("gossip", RadioNetwork(g), protocol=UniformProtocol(0.15), seed=16)
        s = trace.summary()
        assert s["completed"] is True
        assert s["n"] == 32
        assert "complete" in repr(trace)

    def test_round_cap_scales(self):
        assert default_gossip_round_cap(16) < default_gossip_round_cap(4096)
