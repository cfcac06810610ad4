"""Unit tests for the distributed protocols (Theorem 7 + baselines)."""

import math

import numpy as np
import pytest

from repro import simulate
from repro.broadcast.distributed import (
    DecayProtocol,
    EGRandomizedProtocol,
    ObliviousProtocol,
    UniformProtocol,
)
from repro.errors import InvalidParameterError
from repro.experiments.runner import protocol_times
from repro.graphs import gnp_connected, hypercube
from repro.radio import RadioNetwork
from repro.theory.bounds import distributed_bound


class TestEGRandomized:
    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            EGRandomizedProtocol(1, 0.5)
        with pytest.raises(InvalidParameterError):
            EGRandomizedProtocol(100, 0.0)
        with pytest.raises(InvalidParameterError):
            EGRandomizedProtocol(100, 1.5)
        with pytest.raises(InvalidParameterError):
            EGRandomizedProtocol(100, 0.005)  # d = 0.5 <= 1
        with pytest.raises(InvalidParameterError):
            EGRandomizedProtocol(100, 0.2, selectivity=0)

    def test_switch_round_formula(self):
        proto = EGRandomizedProtocol(1000, 0.01)  # d = 10
        assert proto.switch_round == math.ceil(math.log(1000) / math.log(10))
        assert 0 < proto.switch_probability <= 1
        assert proto.selective_probability == pytest.approx(0.1)

    def test_probability_schedule(self):
        proto = EGRandomizedProtocol(1000, 0.01)
        D = proto.switch_round
        for t in range(1, D):
            assert proto.probability_at(t) == 1.0
        assert proto.probability_at(D) == proto.switch_probability
        assert proto.probability_at(D + 1) == proto.selective_probability
        assert proto.probability_at(D + 100) == proto.selective_probability
        with pytest.raises(InvalidParameterError):
            proto.probability_at(0)

    def test_prepare_checks_n(self):
        proto = EGRandomizedProtocol(100, 0.1)
        with pytest.raises(InvalidParameterError, match="configured for"):
            proto.prepare(99, 0.1, 0)

    def test_completes_on_gnp(self, gnp_medium):
        n = gnp_medium.n
        p = 0.04
        trace = simulate(
            "broadcast", RadioNetwork(gnp_medium), protocol=EGRandomizedProtocol(n, p), seed=0,
            p=p,
        )
        assert trace.completed

    def test_time_order_ln_n(self):
        # The headline claim at one size: completes within a small
        # multiple of ln n on a supercritical G(n, p).
        n = 1024
        p = 4 * math.log(n) / n
        g = gnp_connected(n, p, seed=20)
        times = protocol_times(RadioNetwork(g), EGRandomizedProtocol(n, p), repetitions=5, seed=1)
        assert np.max(times) < 8 * distributed_bound(n)

    def test_strict_participation_mode(self):
        n = 512
        p = 5 * math.log(n) / n
        g = gnp_connected(n, p, seed=21)
        proto = EGRandomizedProtocol(n, p, strict_participation=True)
        trace = simulate(
            "broadcast", RadioNetwork(g), protocol=proto, seed=2, p=p, max_rounds=2000,
        )
        assert trace.completed

    def test_strict_mode_masks_late_informed(self, rng):
        proto = EGRandomizedProtocol(100, 0.2, strict_participation=True)
        D = proto.switch_round
        informed = np.ones(100, dtype=bool)
        informed_round = np.full(100, D + 5, dtype=np.int64)  # all late
        informed_round[:10] = 0  # ten early nodes
        mask = proto.transmit_mask(D + 6, informed, informed_round, rng)
        assert not np.any(mask[10:])

    def test_repr(self):
        assert "switch_round" in repr(EGRandomizedProtocol(100, 0.2))


class TestDecay:
    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            DecayProtocol(1)
        with pytest.raises(InvalidParameterError):
            DecayProtocol(16, phase_length=0)

    def test_phase_probabilities(self):
        proto = DecayProtocol(16)  # phase length 5
        assert proto.phase_length == 5
        assert proto.probability_at(1) == 1.0
        assert proto.probability_at(2) == 0.5
        assert proto.probability_at(5) == 2.0**-4
        assert proto.probability_at(6) == 1.0  # new phase
        with pytest.raises(InvalidParameterError):
            proto.probability_at(0)

    def test_prepare_checks_n(self):
        with pytest.raises(InvalidParameterError):
            DecayProtocol(16).prepare(17, None, 0)

    def test_completes_on_gnp(self, gnp_medium):
        trace = simulate(
            "broadcast", RadioNetwork(gnp_medium), protocol=DecayProtocol(gnp_medium.n), seed=3,
        )
        assert trace.completed

    def test_completes_on_hypercube(self):
        g = hypercube(8)
        trace = simulate("broadcast", RadioNetwork(g), protocol=DecayProtocol(g.n), seed=4)
        assert trace.completed

    def test_custom_phase_length(self, gnp_medium):
        proto = DecayProtocol(gnp_medium.n, phase_length=6)
        trace = simulate("broadcast", RadioNetwork(gnp_medium), protocol=proto, seed=5)
        assert trace.completed

    def test_repr(self):
        assert "phase_length" in repr(DecayProtocol(64))


class TestUniform:
    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            UniformProtocol(0.0)
        with pytest.raises(InvalidParameterError):
            UniformProtocol(1.1)

    def test_probability_constant(self):
        proto = UniformProtocol(0.25)
        assert proto.probability_at(1) == proto.probability_at(99) == 0.25
        with pytest.raises(InvalidParameterError):
            proto.probability_at(0)

    def test_q_one_always_transmits(self, rng):
        proto = UniformProtocol(1.0)
        mask = proto.transmit_mask(1, np.ones(10, dtype=bool), np.zeros(10, dtype=np.int64), rng)
        assert np.all(mask)

    def test_completes_with_good_rate(self, gnp_medium):
        d = gnp_medium.average_degree
        trace = simulate(
            "broadcast", RadioNetwork(gnp_medium), protocol=UniformProtocol(1.0 / d), seed=6,
            max_rounds=4000,
        )
        assert trace.completed

    def test_repr(self):
        assert "0.25" in repr(UniformProtocol(0.25))


class TestOblivious:
    def test_sequence_cycles(self):
        proto = ObliviousProtocol([0.5, 0.25])
        assert proto.probability_at(1) == 0.5
        assert proto.probability_at(2) == 0.25
        assert proto.probability_at(3) == 0.5

    def test_callable(self):
        proto = ObliviousProtocol(lambda t: 1.0 / t)
        assert proto.probability_at(4) == 0.25

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ObliviousProtocol([])
        with pytest.raises(InvalidParameterError):
            ObliviousProtocol([1.5])
        proto = ObliviousProtocol(lambda t: 2.0)
        with pytest.raises(InvalidParameterError):
            proto.probability_at(1)
        with pytest.raises(InvalidParameterError):
            ObliviousProtocol([0.5]).probability_at(0)

    def test_mask_respects_probability(self, rng):
        proto = ObliviousProtocol([0.0])
        informed = np.ones(50, dtype=bool)
        mask = proto.transmit_mask(1, informed, np.zeros(50, dtype=np.int64), rng)
        assert not np.any(mask)

    def test_equivalent_to_uniform(self, gnp_small):
        # Same seed, same probability law -> identical trajectories.
        net = RadioNetwork(gnp_small)
        a = simulate("broadcast", net, protocol=UniformProtocol(0.1), seed=7)
        b = simulate("broadcast", net, protocol=ObliviousProtocol(lambda t: 0.1), seed=7)
        assert a.completion_round == b.completion_round
