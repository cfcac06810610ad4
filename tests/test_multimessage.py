"""Unit tests for k-token multi-message dissemination."""


import numpy as np
import pytest

from repro import simulate
from repro.broadcast.distributed import UniformProtocol
from repro.errors import (
    BroadcastIncompleteError,
    DisconnectedGraphError,
    InvalidParameterError,
)
from repro.graphs import Adjacency, gnp_connected
from repro.radio import RadioNetwork


@pytest.fixture(scope="module")
def small_net():
    g = gnp_connected(96, 0.15, seed=50)
    return RadioNetwork(g)


class TestSimulateMultimessage:
    def test_single_token_is_broadcast(self, small_net):
        trace = simulate(
            "multimessage", small_net, protocol=UniformProtocol(0.1), sources=[0], seed=1,
        )
        assert trace.completed
        assert trace.tokens == 1
        assert np.all(trace.knowledge_counts == 1)

    def test_all_tokens_matches_gossip(self, small_net):
        # k = n with sources = identity reproduces gossip exactly (same
        # dynamics; same rng draw pattern).
        n = small_net.n
        a = simulate(
            "multimessage", small_net, protocol=UniformProtocol(0.1), sources=np.arange(n), seed=2,
            max_rounds=20000,
        )
        b = simulate("gossip", small_net, protocol=UniformProtocol(0.1), seed=2, max_rounds=20000)
        assert a.completion_round == b.completion_round

    def test_monotone_in_k(self, small_net):
        # More tokens never makes dissemination faster (on average).
        def mean_time(k, seeds=range(3)):
            out = []
            for s in seeds:
                rng = np.random.default_rng(s)
                srcs = rng.choice(small_net.n, size=k, replace=False)
                out.append(
                    simulate(
                        "multimessage", small_net, protocol=UniformProtocol(0.1), sources=srcs,
                        seed=s, max_rounds=20000,
                    ).completion_round
                )
            return np.mean(out)

        assert mean_time(32) >= mean_time(1) * 0.9

    def test_duplicate_sources_allowed(self, small_net):
        # One node holding two tokens is legal.
        trace = simulate(
            "multimessage", small_net, protocol=UniformProtocol(0.1), sources=[5, 5], seed=3,
        )
        assert trace.completed
        assert trace.tokens == 2

    def test_knowledge_monotone(self, small_net):
        trace = simulate(
            "multimessage", small_net, protocol=UniformProtocol(0.1), sources=[0, 10, 20], seed=4,
        )
        assert np.all(np.diff(trace.knowledge_curve()) >= 0)
        assert trace.knowledge_curve()[0] == 3

    def test_star_two_tokens(self, star10):
        net = RadioNetwork(star10)
        trace = simulate(
            "multimessage", net, protocol=UniformProtocol(0.3), sources=[1, 2], seed=5,
            max_rounds=5000,
        )
        assert trace.completed
        # Leaf tokens must cross the hub: at least 3 rounds.
        assert trace.completion_round >= 3

    def test_validation(self, small_net):
        with pytest.raises(InvalidParameterError):
            simulate("multimessage", small_net, protocol=UniformProtocol(0.1), sources=[])
        with pytest.raises(InvalidParameterError):
            simulate(
                "multimessage", small_net, protocol=UniformProtocol(0.1), sources=[small_net.n],
            )
        with pytest.raises(InvalidParameterError):
            simulate("multimessage", small_net, protocol=UniformProtocol(0.1), sources=[-1])

    def test_disconnected_rejected(self):
        g = Adjacency.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            simulate("multimessage", RadioNetwork(g), protocol=UniformProtocol(0.5), sources=[0])

    def test_budget_exhaustion(self, small_net):
        with pytest.raises(BroadcastIncompleteError) as exc:
            simulate(
                "multimessage", small_net, protocol=UniformProtocol(0.05), sources=[0, 1], seed=6,
                max_rounds=2,
            )
        assert exc.value.trace.tokens == 2
        assert not exc.value.trace.completed

    def test_only_holders_transmit(self, path5):
        # With one token at node 0, round 1 can only feature node 0.
        net = RadioNetwork(path5)
        trace = simulate(
            "multimessage", net, protocol=UniformProtocol(1.0), sources=[0], seed=7,
            max_rounds=100,
        )
        assert trace.records[0].num_transmitters == 1

    def test_deterministic_given_seed(self, small_net):
        a = simulate(
            "multimessage", small_net, protocol=UniformProtocol(0.1), sources=[0, 7], seed=8,
        ).completion_round
        b = simulate(
            "multimessage", small_net, protocol=UniformProtocol(0.1), sources=[0, 7], seed=8,
        ).completion_round
        assert a == b
