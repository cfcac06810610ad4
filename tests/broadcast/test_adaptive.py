"""Unit tests for the age-based adaptive protocol."""

import math

import numpy as np
import pytest

from repro import simulate
from repro.broadcast.distributed import AgeBasedProtocol, DecayProtocol
from repro.errors import InvalidParameterError
from repro.experiments.runner import protocol_times
from repro.graphs import gnp_connected, torus_2d
from repro.radio import RadioNetwork


class TestConstruction:
    def test_defaults(self):
        proto = AgeBasedProtocol(1000, 0.016)  # d = 16
        assert proto.floor == pytest.approx(1 / 16)
        assert proto.initial == 1.0

    def test_floor_never_exceeds_initial(self):
        proto = AgeBasedProtocol(100, 0.5, initial=0.2, floor=0.9)
        assert proto.floor == 0.2

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            AgeBasedProtocol(1, 0.5)
        with pytest.raises(InvalidParameterError):
            AgeBasedProtocol(100, 0.0)
        with pytest.raises(InvalidParameterError):
            AgeBasedProtocol(100, 0.5, initial=0.0)
        with pytest.raises(InvalidParameterError):
            AgeBasedProtocol(100, 0.5, halflife=0)
        with pytest.raises(InvalidParameterError):
            AgeBasedProtocol(100, 0.5, floor=0.0)

    def test_prepare_checks_n(self):
        with pytest.raises(InvalidParameterError):
            AgeBasedProtocol(100, 0.2).prepare(99, 0.2, 0)

    def test_repr(self):
        assert "halflife" in repr(AgeBasedProtocol(100, 0.2))


class TestProbabilityLaw:
    def test_age_zero_is_initial(self):
        proto = AgeBasedProtocol(1000, 0.016, initial=0.8)
        assert proto.probability_of_age(0.0) == pytest.approx(0.8)

    def test_halving(self):
        proto = AgeBasedProtocol(1000, 0.016, halflife=2.0, floor=1e-6)
        assert proto.probability_of_age(2.0) == pytest.approx(0.5)
        assert proto.probability_of_age(4.0) == pytest.approx(0.25)

    def test_floor_reached(self):
        proto = AgeBasedProtocol(1000, 0.016)
        assert proto.probability_of_age(1000.0) == pytest.approx(proto.floor)

    def test_monotone_decreasing(self):
        proto = AgeBasedProtocol(1000, 0.016)
        ages = np.arange(20, dtype=float)
        probs = proto.probability_of_age(ages)
        assert np.all(np.diff(probs) <= 0)

    def test_mask_fresh_vs_stale(self, rng):
        proto = AgeBasedProtocol(10000, 16 / 10000, halflife=1.0)
        informed = np.ones(10000, dtype=bool)
        informed_round = np.full(10000, 0, dtype=np.int64)
        informed_round[:5000] = 99  # fresh at t=100
        mask = proto.transmit_mask(100, informed, informed_round, rng)
        fresh_rate = mask[:5000].mean()
        stale_rate = mask[5000:].mean()
        assert fresh_rate > 5 * stale_rate


class TestBehaviour:
    def test_completes_on_gnp(self):
        n = 512
        p = 4 * math.log(n) / n
        g = gnp_connected(n, p, seed=21)
        trace = simulate(
            "broadcast", RadioNetwork(g), protocol=AgeBasedProtocol(n, p), seed=1, max_rounds=5000,
        )
        assert trace.completed

    def test_beats_decay_on_torus(self):
        # The E16 headline at one size: frontier-hot adaptivity wins on
        # high-diameter graphs.
        g = torus_2d(24, 24)
        n = g.n
        net = RadioNetwork(g)
        age = protocol_times(
            net, AgeBasedProtocol(n, g.average_degree / n), repetitions=4, seed=2,
            max_rounds=30000,
        )
        decay = protocol_times(net, DecayProtocol(n), repetitions=4, seed=3, max_rounds=30000)
        assert np.mean(age) < np.mean(decay)

    def test_uninformed_never_selected(self, rng):
        proto = AgeBasedProtocol(100, 0.2)
        informed = np.zeros(100, dtype=bool)
        informed[:10] = True
        informed_round = np.where(informed, 0, -1).astype(np.int64)
        mask = proto.transmit_mask(5, informed, informed_round, rng)
        assert not np.any(mask[10:])
