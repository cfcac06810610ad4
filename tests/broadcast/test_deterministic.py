"""Unit tests for the deterministic id-slot protocol."""

import numpy as np
import pytest

from repro import simulate
from repro.broadcast.distributed import IdSlotProtocol
from repro.errors import InvalidParameterError
from repro.graphs import diameter, gnp_connected, path_graph
from repro.radio import RadioNetwork


class TestIdSlot:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            IdSlotProtocol(0)
        with pytest.raises(InvalidParameterError):
            IdSlotProtocol(5).slot_owner(0)
        with pytest.raises(InvalidParameterError):
            IdSlotProtocol(5).prepare(6, None, 0)

    def test_slot_owner_cycles(self):
        proto = IdSlotProtocol(4)
        assert [proto.slot_owner(t) for t in range(1, 9)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_single_transmitter_per_round(self, rng):
        proto = IdSlotProtocol(10)
        informed = np.ones(10, dtype=bool)
        for t in (1, 5, 10, 11):
            mask = proto.transmit_mask(t, informed, np.zeros(10, dtype=np.int64), rng)
            assert int(mask.sum()) == 1
            assert mask[proto.slot_owner(t)]

    def test_collision_free_run(self, gnp_small):
        net = RadioNetwork(gnp_small)
        trace = simulate(
            "broadcast", net, protocol=IdSlotProtocol(net.n), source=0, seed=1,
            max_rounds=net.n * net.n,
        )
        assert trace.completed
        assert trace.total_collisions == 0

    def test_completes_within_n_times_depth(self):
        g = gnp_connected(80, 0.12, seed=40)
        net = RadioNetwork(g)
        trace = simulate(
            "broadcast", net, protocol=IdSlotProtocol(80), source=0, seed=2, max_rounds=80 * 80,
        )
        assert trace.completion_round <= 80 * (diameter(g) + 1)

    def test_deterministic_trace(self):
        g = path_graph(10)
        net = RadioNetwork(g)
        a = simulate(
            "broadcast", net, protocol=IdSlotProtocol(10), source=0, seed=1, max_rounds=200,
        )
        b = simulate(
            "broadcast", net, protocol=IdSlotProtocol(10), source=0, seed=99, max_rounds=200,
        )
        # No randomness at all: seeds are irrelevant.
        assert a.completion_round == b.completion_round

    def test_much_slower_than_randomized(self):
        import math

        n = 256
        p = 4 * math.log(n) / n
        g = gnp_connected(n, p, seed=41)
        net = RadioNetwork(g)
        from repro.broadcast.distributed import EGRandomizedProtocol

        det = simulate(
            "broadcast", net, protocol=IdSlotProtocol(n), source=0, seed=0, max_rounds=n * n,
        ).completion_round
        rand = simulate(
            "broadcast", net, protocol=EGRandomizedProtocol(n, p), source=0, seed=0, p=p,
        ).completion_round
        assert det > 5 * rand
