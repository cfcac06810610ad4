"""Unit tests for fault models and the faulty-broadcast simulator."""

import math

import numpy as np
import pytest

from repro import simulate
from repro.broadcast.distributed import DecayProtocol, UniformProtocol
from repro.errors import (
    BroadcastIncompleteError,
    DisconnectedGraphError,
    InvalidParameterError,
)
from repro.faults import CrashSchedule, FaultPlan, LossyLinkModel
from repro.graphs import gnp_connected
from repro.radio import RadioNetwork


class TestCrashSchedule:
    def test_none(self):
        cs = CrashSchedule.none(5)
        assert cs.num_crashes() == 0
        assert np.all(cs.alive_at(100))
        assert np.all(cs.eventually_alive())

    def test_alive_at_semantics(self):
        cs = CrashSchedule(np.array([-1, 3, 1]))
        assert list(cs.alive_at(1)) == [True, True, False]
        assert list(cs.alive_at(2)) == [True, True, False]
        assert list(cs.alive_at(3)) == [True, False, False]

    def test_random_respects_protect(self, rng):
        cs = CrashSchedule.random(50, 1.0, 10, seed=rng, protect=[0, 7])
        assert cs.crash_round[0] == -1
        assert cs.crash_round[7] == -1
        assert cs.num_crashes() == 48

    def test_random_fraction(self, rng):
        cs = CrashSchedule.random(100, 0.2, 10, seed=rng)
        assert cs.num_crashes() == 20

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            CrashSchedule(np.array([[1]]))
        with pytest.raises(InvalidParameterError):
            CrashSchedule(np.array([-2]))
        with pytest.raises(InvalidParameterError):
            CrashSchedule.random(10, 1.5, 10)
        with pytest.raises(InvalidParameterError):
            CrashSchedule.random(10, 0.5, 0)


class TestLossyLinkModel:
    def test_full_reliability_matches_kernel(self, gnp_small, rng):
        net = RadioNetwork(gnp_small)
        links = LossyLinkModel(gnp_small, 1.0)
        transmitting = rng.random(gnp_small.n) < 0.2
        informed = np.ones(gnp_small.n, dtype=bool)
        total, message = links.sample_round_counts(transmitting, transmitting, rng)
        ref = gnp_small.neighbor_counts(transmitting)
        assert np.array_equal(total, ref)
        assert np.array_equal(message, ref)

    def test_zero_ish_reliability_blocks(self, gnp_small, rng):
        links = LossyLinkModel(gnp_small, 1e-12)
        transmitting = np.ones(gnp_small.n, dtype=bool)
        total, _ = links.sample_round_counts(transmitting, transmitting, rng)
        assert total.sum() == 0

    def test_partial_reliability_thins(self, gnp_small, rng):
        links = LossyLinkModel(gnp_small, 0.5)
        transmitting = np.ones(gnp_small.n, dtype=bool)
        total, _ = links.sample_round_counts(transmitting, transmitting, rng)
        full = gnp_small.neighbor_counts(transmitting).sum()
        assert 0.35 * full < total.sum() < 0.65 * full

    def test_asymmetric_mode(self, gnp_small, rng):
        links = LossyLinkModel(gnp_small, 0.5, asymmetric=True)
        transmitting = np.ones(gnp_small.n, dtype=bool)
        total, _ = links.sample_round_counts(transmitting, transmitting, rng)
        assert total.sum() > 0
        assert "asymmetric" in repr(links)

    def test_validation(self, gnp_small):
        with pytest.raises(InvalidParameterError):
            LossyLinkModel(gnp_small, 0.0)
        with pytest.raises(InvalidParameterError):
            LossyLinkModel(gnp_small, 1.1)


class TestFaultySimulator:
    def test_no_faults_equals_normal(self, gnp_medium):
        net = RadioNetwork(gnp_medium)
        a = simulate("broadcast", net, protocol=UniformProtocol(0.1), source=0, seed=5)
        b = simulate(
            "broadcast", net, protocol=UniformProtocol(0.1), source=0, faults=FaultPlan(), seed=5,
        )
        assert a.completion_round == b.completion_round

    def test_completes_with_crashes(self, gnp_medium):
        net = RadioNetwork(gnp_medium)
        crashes = CrashSchedule.random(net.n, 0.15, 40, seed=1, protect=[0])
        trace = simulate(
            "broadcast", net, protocol=DecayProtocol(net.n), faults=FaultPlan(crashes=crashes),
            seed=2, max_rounds=2000,
        )
        assert trace.completed

    def test_completes_with_lossy_links(self, gnp_medium):
        net = RadioNetwork(gnp_medium)
        links = LossyLinkModel(gnp_medium, 0.6)
        trace = simulate(
            "broadcast", net, protocol=DecayProtocol(net.n), faults=FaultPlan(links=links), seed=3,
            max_rounds=4000,
        )
        assert trace.completed

    def test_crashed_nodes_not_required(self, star10):
        # All leaves except one crash before round 1... protect hub+leaf 1.
        crash = np.full(10, 1, dtype=np.int64)
        crash[0] = -1
        crash[1] = -1
        net = RadioNetwork(star10)
        trace = simulate(
            "broadcast", net, protocol=UniformProtocol(1.0), source=0,
            faults=FaultPlan(crashes=CrashSchedule(crash)), seed=4, max_rounds=50,
        )
        assert trace.completed  # only hub and leaf 1 needed

    def test_dead_nodes_never_transmit(self, star10):
        # Hub crashes at round 1: nobody else can ever be informed.
        crash = np.full(10, -1, dtype=np.int64)
        crash[0] = 1
        trace = simulate(
            "broadcast", RadioNetwork(star10), protocol=UniformProtocol(1.0), source=0,
            faults=FaultPlan(crashes=CrashSchedule(crash)), seed=5, max_rounds=30,
            raise_on_incomplete=False,
        )
        assert not trace.completed

    def test_raise_on_incomplete(self, star10):
        crash = np.full(10, -1, dtype=np.int64)
        crash[0] = 1
        with pytest.raises(BroadcastIncompleteError):
            simulate(
                "broadcast", RadioNetwork(star10), protocol=UniformProtocol(1.0), source=0,
                faults=FaultPlan(crashes=CrashSchedule(crash)), seed=6, max_rounds=30,
            )

    def test_schedule_size_mismatch_is_parameter_error(self, star10):
        with pytest.raises(InvalidParameterError, match="covers"):
            simulate(
                "broadcast", RadioNetwork(star10), protocol=UniformProtocol(1.0), source=0,
                faults=FaultPlan(crashes=CrashSchedule.none(9)),
            )

    def test_source_out_of_range_is_parameter_error(self, star10):
        with pytest.raises(InvalidParameterError, match="out of range"):
            simulate("broadcast", RadioNetwork(star10), protocol=UniformProtocol(1.0), source=99)

    def test_everyone_crashes_except_protected_source(self, star10):
        # crash_fraction = 1.0 with a protected source: the completion
        # target shrinks to the survivors, so the run still "completes".
        crashes = CrashSchedule.random(10, 1.0, 5, seed=1, protect=[0])
        assert crashes.num_crashes() == 9
        trace = simulate(
            "broadcast", RadioNetwork(star10), protocol=UniformProtocol(1.0), source=0,
            faults=FaultPlan(crashes=crashes), seed=2, max_rounds=50,
        )
        assert trace.completed

    def test_full_reliability_trace_identical_to_fault_free(self, gnp_small):
        # reliability = 1.0 goes down the fault path but must reproduce
        # the healthy simulator exactly: same seed, same per-round
        # records, same informed rounds (RNG stream parity).
        net = RadioNetwork(gnp_small)
        links = LossyLinkModel(gnp_small, 1.0)
        a = simulate("broadcast", net, protocol=UniformProtocol(0.1), source=0, seed=11)
        b = simulate(
            "broadcast", net, protocol=UniformProtocol(0.1), source=0,
            faults=FaultPlan(links=links), seed=11,
        )
        assert a.records == b.records
        assert np.array_equal(a.informed_round, b.informed_round)
        assert a.completion_round == b.completion_round

    def test_asymmetric_links_deterministic_under_fixed_seed(self, gnp_small):
        net = RadioNetwork(gnp_small)
        links = LossyLinkModel(gnp_small, 0.7, asymmetric=True)

        def run():
            return simulate(
                "broadcast", net, protocol=DecayProtocol(net.n), faults=FaultPlan(links=links),
                seed=9, max_rounds=4000, raise_on_incomplete=False,
            )

        a, b = run(), run()
        assert a.records == b.records
        assert np.array_equal(a.informed_round, b.informed_round)

    def test_check_connected_knob(self):
        from repro.graphs import Adjacency

        g = Adjacency.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            simulate("broadcast", RadioNetwork(g), protocol=UniformProtocol(1.0), source=0)
        trace = simulate(
            "broadcast", RadioNetwork(g), protocol=UniformProtocol(1.0), source=0,
            check_connected=False, max_rounds=5, raise_on_incomplete=False,
        )
        assert not trace.completed

    def test_lossy_slower_on_average(self):
        n = 256
        p = 5 * math.log(n) / n
        g = gnp_connected(n, p, seed=7)
        net = RadioNetwork(g)

        def mean_time(links):
            times = []
            for s in range(5):
                tr = simulate(
                    "broadcast", net, protocol=DecayProtocol(n), faults=FaultPlan(links=links),
                    seed=s, max_rounds=4000,
                )
                times.append(tr.completion_round)
            return np.mean(times)

        clean = mean_time(None)
        lossy = mean_time(LossyLinkModel(g, 0.3))
        assert lossy > clean
