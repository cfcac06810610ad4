"""End-to-end integration tests across module boundaries.

Each test exercises a realistic multi-module pipeline — the same paths the
examples and benchmarks take — rather than a single unit.
"""

import math

import numpy as np
import pytest

from repro import (
    DecayProtocol,
    EGRandomizedProtocol,
    ElsasserGasieniecScheduler,
    GreedyCoverScheduler,
    RadioNetwork,
    gnp_connected,
    simulate,
)
from repro.experiments.runner import protocol_times
from repro.graphs import LayerDecomposition, diameter
from repro.lowerbounds import (
    best_oblivious_time,
    oblivious_candidates,
    relaxed_schedule_survivors,
    sample_transmit_sets,
)
from repro.radio import execute_schedule, verify_schedule
from repro.theory.bounds import centralized_bound, distributed_bound
from repro.theory.fitting import linear_fit


@pytest.fixture(scope="module")
def workload():
    """A mid-size supercritical G(n, p) and its radio network."""
    n = 600
    p = 4 * math.log(n) / n
    g = gnp_connected(n, p, seed=99)
    return g, RadioNetwork(g), n, p


class TestCentralizedPipeline:
    def test_schedule_build_execute_verify(self, workload):
        g, net, n, p = workload
        schedule = ElsasserGasieniecScheduler(seed=0).build(g, 0)
        assert verify_schedule(net, schedule, 0)
        trace = execute_schedule(net, schedule, 0, mode="filter")
        assert trace.completed
        # The measured completion matches the schedule's intent: within a
        # small multiple of the theorem's expression.
        assert trace.completion_round <= 6 * centralized_bound(n, p)

    def test_centralized_beats_distributed_on_same_graph(self, workload):
        g, net, n, p = workload
        schedule = ElsasserGasieniecScheduler(seed=1).build(g, 0)
        dist_times = protocol_times(net, EGRandomizedProtocol(n, p), repetitions=5, seed=2, p=p)
        # Full topology knowledge must not lose to no knowledge.
        assert len(schedule) <= float(np.mean(dist_times))

    def test_schedulers_agree_on_completion(self, workload):
        g, net, n, p = workload
        for scheduler in (
            ElsasserGasieniecScheduler(seed=3),
            GreedyCoverScheduler(seed=3),
        ):
            assert verify_schedule(net, scheduler.build(g, 0), 0)


class TestDistributedPipeline:
    def test_protocol_hierarchy(self, workload):
        """EG <= Decay on G(n,p) — the paper's headline comparison."""
        g, net, n, p = workload
        eg = protocol_times(net, EGRandomizedProtocol(n, p), repetitions=5, seed=4, p=p)
        decay = protocol_times(net, DecayProtocol(n), repetitions=5, seed=5)
        assert np.mean(eg) < np.mean(decay)

    def test_distributed_time_near_ln_n(self, workload):
        g, net, n, p = workload
        times = protocol_times(net, EGRandomizedProtocol(n, p), repetitions=8, seed=6, p=p)
        assert np.mean(times) < 8 * distributed_bound(n)
        # And can't beat the diameter.
        assert np.min(times) >= diameter(g, exact_limit=1000)

    def test_scaling_fit_recovers_log_growth(self):
        """Mini E4: three sizes, fit against ln n, expect positive slope."""
        times = []
        ns = [128, 512, 2048]
        for i, n in enumerate(ns):
            p = 4 * math.log(n) / n
            g = gnp_connected(n, p, seed=100 + i)
            t = protocol_times(
                RadioNetwork(g), EGRandomizedProtocol(n, p), repetitions=6, seed=i, p=p,
            )
            times.append(float(np.mean(t)))
        fit = linear_fit(np.log(ns), np.array(times), "ln n")
        assert fit.slope > 0


class TestLowerBoundPipeline:
    def test_relaxed_adversary_consistent_with_real_broadcast(self, workload):
        """Relaxed-rule survivors over-approximate real-schedule reach."""
        g, net, n, p = workload
        sets = sample_transmit_sets(n, 5, set_size=n // 20, seed=7)
        survivors = relaxed_schedule_survivors(g, sets, 0)
        # Replaying the same sets as a *real* permissive schedule can only
        # inform fewer nodes (relaxed reception is adversary-friendly).
        from repro.radio import Schedule

        schedule = Schedule(n, [s for s in sets])
        trace = execute_schedule(net, schedule, 0, mode="permissive", stop_when_complete=False)
        real_uninformed = np.flatnonzero(~trace.informed)
        # Every node the relaxed model fails to inform, minus the source
        # neighbourhood it pre-informs, must also be uninformed for real.
        pre = set([0] + [int(v) for v in g.neighbors(0)])
        assert set(int(v) for v in real_uninformed) - pre >= set(
            int(v) for v in survivors
        ) - pre

    def test_oblivious_family_cannot_beat_eg_by_much(self, workload):
        g, net, n, p = workload
        best, _, _ = best_oblivious_time(
            net, oblivious_candidates(n, p), trials=2, seed=8
        )
        eg = float(
            np.mean(protocol_times(net, EGRandomizedProtocol(n, p), repetitions=4, seed=9, p=p))
        )
        # EG is a member of the family (up to constants): best <= eg and
        # best is still Omega(ln n).
        assert best <= eg * 1.5
        assert best >= 0.5 * math.log(n)


class TestStructurePipeline:
    def test_layers_feed_scheduler_consistently(self, workload):
        g, net, n, p = workload
        ld = LayerDecomposition(g, 0)
        # Scheduler flood length is within a couple of the layer depth.
        schedule = ElsasserGasieniecScheduler(seed=10).build(g, 0)
        flood_rounds = schedule.phase_lengths().get("flood", 0)
        assert flood_rounds <= ld.depth + 2

    def test_model_separation_same_graph(self, workload):
        g, net, n, p = workload
        radio = simulate("broadcast", net, protocol=EGRandomizedProtocol(n, p), seed=11, p=p)
        push = simulate("push", g, source=0, seed=12)
        assert radio.completed and push.completed
        # Both Θ(ln n): within 4x of each other at this size.
        ratio = radio.completion_round / push.completion_round
        assert 0.25 < ratio < 4.0
