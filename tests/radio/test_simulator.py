"""Unit tests for single-trial broadcast through ``simulate("broadcast", ...)``."""

import numpy as np
import pytest

from repro import simulate
from repro.errors import (
    BroadcastIncompleteError,
    DisconnectedGraphError,
    InvalidParameterError,
)
from repro.experiments.runner import protocol_times
from repro.graphs import Adjacency
from repro.radio import FunctionProtocol, RadioNetwork, default_round_cap


def always_transmit():
    return FunctionProtocol(
        lambda t, informed, informed_round, rng: np.ones(informed.size, dtype=bool),
        name="flood",
    )


def never_transmit():
    return FunctionProtocol(
        lambda t, informed, informed_round, rng: np.zeros(informed.size, dtype=bool),
        name="silent",
    )


class TestSimulateBroadcast:
    def test_star_completes_in_one_round(self, star10):
        trace = simulate("broadcast", RadioNetwork(star10), protocol=always_transmit(), source=0)
        assert trace.completed
        assert trace.completion_round == 1

    def test_path_flood(self, path5):
        trace = simulate("broadcast", RadioNetwork(path5), protocol=always_transmit(), source=0)
        # Flooding a path: the frontier advances one hop per round
        # (behind-the-frontier transmitters collide only at informed nodes).
        assert trace.completed
        assert trace.completion_round == 4

    def test_stalled_protocol_raises_with_trace(self, path5):
        with pytest.raises(BroadcastIncompleteError) as exc:
            simulate(
                "broadcast", RadioNetwork(path5), protocol=never_transmit(), source=0,
                max_rounds=10,
            )
        assert exc.value.trace is not None
        assert exc.value.trace.num_informed == 1

    def test_disconnected_raises_early(self):
        g = Adjacency.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            simulate("broadcast", RadioNetwork(g), protocol=always_transmit(), source=0)

    def test_check_connected_can_be_skipped(self):
        g = Adjacency.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(BroadcastIncompleteError):
            simulate(
                "broadcast", RadioNetwork(g), protocol=always_transmit(), source=0,
                check_connected=False, max_rounds=5,
            )

    def test_source_out_of_range(self, path5):
        # A bad source is a parameter error, not a connectivity property.
        with pytest.raises(InvalidParameterError):
            simulate("broadcast", RadioNetwork(path5), protocol=always_transmit(), source=9)

    def test_uninformed_never_transmit(self, path5):
        seen = []

        def spy(t, informed, informed_round, rng):
            seen.append(informed.copy())
            return np.ones(informed.size, dtype=bool)

        net = RadioNetwork(path5)
        trace = simulate("broadcast", net, protocol=FunctionProtocol(spy), source=0)
        # The simulator masks with informed; transmitters in the trace can
        # never exceed the informed count entering the round.
        for rec, informed in zip(trace.records, seen):
            assert rec.num_transmitters <= int(informed.sum())

    def test_informed_round_consistency(self, gnp_small):
        # Permanent flooding deadlocks on dense random graphs (everyone
        # collides) — exactly the failure mode the paper's selective
        # protocols avoid.  The partial trace must still be consistent.
        from repro.broadcast.distributed import UniformProtocol

        trace = simulate(
            "broadcast", RadioNetwork(gnp_small), protocol=UniformProtocol(0.1), source=0, seed=1,
        )
        assert trace.completed
        assert trace.informed_round[0] == 0
        assert trace.informed_round.max() == trace.completion_round
        # informed_round counts match per-round num_new.
        for rec in trace.records:
            assert int(np.sum(trace.informed_round == rec.round_index)) == rec.num_new

    def test_flooding_deadlocks_on_dense_random_graph(self, gnp_small):
        # The motivating pathology: with every informed node transmitting,
        # collisions freeze the frontier and the broadcast never completes.
        with pytest.raises(BroadcastIncompleteError) as exc:
            simulate(
                "broadcast", RadioNetwork(gnp_small), protocol=always_transmit(), source=0, seed=1,
                max_rounds=200,
            )
        assert 1 < exc.value.trace.num_informed < gnp_small.n

    def test_protocol_prepare_receives_params(self, star10):
        captured = {}

        class Probe(FunctionProtocol):
            def prepare(self, n, p, source):
                captured.update(n=n, p=p, source=source)

        proto = Probe(lambda t, i, ir, r: np.ones(i.size, dtype=bool))
        simulate("broadcast", RadioNetwork(star10), protocol=proto, source=0, p=0.25)
        assert captured == {"n": 10, "p": 0.25, "source": 0}


class TestHelpers:
    def test_default_round_cap_monotone(self):
        assert default_round_cap(10) < default_round_cap(10_000)
        assert default_round_cap(2) >= 200

    def test_broadcast_time(self, star10):
        trace = simulate("broadcast", RadioNetwork(star10), protocol=always_transmit())
        assert trace.completion_round == 1

    def test_repeat_broadcast_shapes(self, star10):
        times = protocol_times(RadioNetwork(star10), always_transmit(), repetitions=4, seed=0)
        assert times.shape == (4,)
        assert np.all(times == 1)

    def test_repeat_broadcast_rejects_zero_reps(self, star10):
        with pytest.raises(InvalidParameterError, match="repetitions"):
            protocol_times(RadioNetwork(star10), always_transmit(), repetitions=0, seed=0)

    def test_repeat_broadcast_deterministic(self, gnp_small):
        from repro.broadcast.distributed import UniformProtocol

        net = RadioNetwork(gnp_small)
        a = protocol_times(net, UniformProtocol(0.1), repetitions=3, seed=5)
        b = protocol_times(net, UniformProtocol(0.1), repetitions=3, seed=5)
        assert np.array_equal(a, b)
