"""Property-based tests for schedules, simulator and schedulers (hypothesis)."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import simulate
from repro.broadcast.centralized import GreedyCoverScheduler
from repro.broadcast.distributed import UniformProtocol
from repro.errors import BroadcastIncompleteError
from repro.graphs import gnp
from repro.graphs.bfs import bfs_distances
from repro.radio import RadioNetwork, Schedule, execute_schedule, verify_schedule

connected_gnp = st.tuples(
    st.integers(min_value=3, max_value=35),
    st.floats(min_value=0.25, max_value=0.9),
    st.integers(min_value=0, max_value=10_000),
)


def connected_graph(params):
    n, p, seed = params
    g = gnp(n, p, seed=seed)
    return g, bool(np.all(bfs_distances(g, 0) >= 0))


class TestExecutorInvariants:
    @given(
        connected_gnp,
        st.lists(st.lists(st.integers(0, 34), max_size=6), max_size=10),
    )
    @settings(max_examples=80, deadline=None)
    def test_informed_set_monotone(self, params, raw_rounds):
        g, _ = connected_graph(params)
        n = g.n
        rounds = [[v % n for v in r] for r in raw_rounds]
        schedule = Schedule(n, rounds)
        trace = execute_schedule(
            RadioNetwork(g), schedule, 0, mode="permissive", stop_when_complete=False
        )
        curve = trace.informed_curve()
        assert np.all(np.diff(curve) >= 0)
        assert curve[0] == 1

    @given(
        connected_gnp,
        st.lists(st.lists(st.integers(0, 34), max_size=6), max_size=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_new_counts_sum_to_final_informed(self, params, raw_rounds):
        # Consistency: in any mode, total new over rounds equals final
        # informed count minus one (the source).
        g, _ = connected_graph(params)
        n = g.n
        rounds = [[v % n for v in r] for r in raw_rounds]
        schedule = Schedule(n, rounds)
        for mode in ("filter", "permissive"):
            trace = execute_schedule(
                RadioNetwork(g), schedule, 0, mode=mode, stop_when_complete=False
            )
            assert sum(r.num_new for r in trace.records) == trace.num_informed - 1


class TestSchedulerUniversality:
    @given(connected_gnp)
    @settings(max_examples=50, deadline=None)
    def test_greedy_scheduler_completes_on_any_connected_graph(self, params):
        g, connected = connected_graph(params)
        assume(connected)
        schedule = GreedyCoverScheduler(seed=0).build(g, 0)
        assert verify_schedule(RadioNetwork(g), schedule, 0)

    @given(connected_gnp)
    @settings(max_examples=30, deadline=None)
    def test_eg_scheduler_completes_on_any_connected_graph(self, params):
        from repro.broadcast.centralized import ElsasserGasieniecScheduler

        g, connected = connected_graph(params)
        assume(connected)
        schedule = ElsasserGasieniecScheduler(seed=0).build(g, 0)
        assert verify_schedule(RadioNetwork(g), schedule, 0)


class TestSimulatorInvariants:
    @given(connected_gnp, st.floats(min_value=0.05, max_value=0.5))
    @settings(max_examples=50, deadline=None)
    def test_uniform_protocol_trace_consistency(self, params, q):
        g, connected = connected_graph(params)
        assume(connected)
        try:
            trace = simulate(
                "broadcast", RadioNetwork(g), protocol=UniformProtocol(q), source=0, seed=1,
                max_rounds=4000,
            )
        except BroadcastIncompleteError:
            assume(False)
        assert trace.completed
        assert trace.informed_round[0] == 0
        rounds = trace.informed_round
        assert rounds.min() >= 0
        assert rounds.max() == trace.completion_round
        # Each informed_round <= recorded rounds.
        assert rounds.max() <= trace.num_rounds
