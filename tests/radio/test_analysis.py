"""Unit tests for trace analytics (broadcast trees, profiles)."""

import numpy as np
import pytest

from repro import simulate
from repro.broadcast.distributed import UniformProtocol
from repro.errors import SimulationError
from repro.graphs import gnp_connected
from repro.radio import RadioNetwork, broadcast_tree, collision_profile, transmission_efficiency
from repro.radio.trace import BroadcastTrace


@pytest.fixture(scope="module")
def completed_trace():
    g = gnp_connected(300, 0.06, seed=41)
    return g, simulate(
        "broadcast", RadioNetwork(g), protocol=UniformProtocol(0.1), source=0, seed=1,
    )


class TestInformerTracking:
    def test_star_informer_is_hub(self, star10):
        trace = simulate(
            "broadcast", RadioNetwork(star10), protocol=UniformProtocol(1.0), source=0, seed=0,
        )
        assert np.all(trace.informer[1:] == 0)
        assert trace.informer[0] == -1

    def test_informers_are_neighbors(self, completed_trace):
        g, trace = completed_trace
        for v in range(g.n):
            if v == trace.source:
                assert trace.informer[v] == -1
            else:
                assert g.has_edge(int(trace.informer[v]), v)

    def test_informer_informed_earlier(self, completed_trace):
        g, trace = completed_trace
        for v in range(g.n):
            p = trace.informer[v]
            if p >= 0:
                assert trace.informed_round[p] < trace.informed_round[v]


class TestBroadcastTree:
    def test_tree_structure(self, completed_trace):
        g, trace = completed_trace
        tree = broadcast_tree(trace)
        assert tree.n == g.n
        assert tree.depth_of[trace.source] == 0
        assert tree.depth >= 1
        # Child depths are parent depth + 1.
        for v in range(g.n):
            if tree.parent[v] >= 0:
                assert tree.depth_of[v] == tree.depth_of[tree.parent[v]] + 1

    def test_children_counts_sum(self, completed_trace):
        g, trace = completed_trace
        tree = broadcast_tree(trace)
        # Every non-root node is someone's child.
        assert int(tree.children_counts().sum()) == g.n - 1

    def test_branching_histogram_total(self, completed_trace):
        _, trace = completed_trace
        tree = broadcast_tree(trace)
        assert int(tree.branching_histogram().sum()) == tree.n

    def test_path_to_source(self, completed_trace):
        _, trace = completed_trace
        tree = broadcast_tree(trace)
        path = tree.path_to_source(42)
        assert path[0] == 42
        assert path[-1] == trace.source
        assert path.size == tree.depth_of[42] + 1

    def test_path_out_of_range(self, completed_trace):
        _, trace = completed_trace
        tree = broadcast_tree(trace)
        with pytest.raises(SimulationError):
            tree.path_to_source(10_000)

    def test_num_relays_bounded(self, completed_trace):
        _, trace = completed_trace
        tree = broadcast_tree(trace)
        assert 1 <= tree.num_relays() < tree.n

    def test_tree_depth_at_least_bfs_depth(self, completed_trace):
        from repro.graphs import layer_decomposition

        g, trace = completed_trace
        tree = broadcast_tree(trace)
        # The realised tree can never be shallower than BFS distance.
        ld = layer_decomposition(g, trace.source)
        assert tree.depth >= ld.depth

    def test_incomplete_trace_rejected(self):
        trace = BroadcastTrace(source=0, n=3)
        trace.informed = np.array([True, False, False])
        trace.informer = np.array([-1, -1, -1])
        with pytest.raises(SimulationError, match="completed"):
            broadcast_tree(trace)

    def test_missing_informer_rejected(self):
        trace = BroadcastTrace(source=0, n=1)
        trace.informed = np.array([True])
        with pytest.raises(SimulationError, match="informer"):
            broadcast_tree(trace)


class TestProfiles:
    def test_collision_profile_shape(self, completed_trace):
        _, trace = completed_trace
        prof = collision_profile(trace)
        assert prof.shape == (trace.num_rounds,)
        assert np.all(prof >= 0)

    def test_efficiency_positive_for_completed(self, completed_trace):
        _, trace = completed_trace
        assert transmission_efficiency(trace) > 0

    def test_efficiency_empty_trace(self):
        trace = BroadcastTrace(source=0, n=5)
        trace.informed = np.zeros(5, dtype=bool)
        assert transmission_efficiency(trace) == 0.0

    def test_star_efficiency_is_n_minus_one(self, star10):
        trace = simulate(
            "broadcast", RadioNetwork(star10), protocol=UniformProtocol(1.0), source=0, seed=0,
        )
        # One transmission informs all 9 leaves.
        assert transmission_efficiency(trace) == 9.0


class TestPhaseSummary:
    def test_groups_by_label(self):
        from repro.broadcast.centralized import ElsasserGasieniecScheduler
        from repro.graphs import gnp_connected
        from repro.radio import RadioNetwork, execute_schedule, phase_summary

        g = gnp_connected(300, 16 / 300, seed=44)
        schedule = ElsasserGasieniecScheduler(seed=0).build(g, 0)
        trace = execute_schedule(
            RadioNetwork(g), schedule, 0, mode="filter", stop_when_complete=False
        )
        summary = phase_summary(trace)
        assert "flood" in summary
        # Conservation: per-phase new_informed sums to n - 1.
        assert sum(b["new_informed"] for b in summary.values()) == g.n - 1
        # Per-phase rounds sum to the trace length.
        assert sum(b["rounds"] for b in summary.values()) == trace.num_rounds

    def test_unlabelled_rounds_bucket(self, completed_trace):
        from repro.radio import phase_summary

        _, trace = completed_trace
        summary = phase_summary(trace)
        assert list(summary) == [""]
        assert summary[""]["rounds"] == trace.num_rounds

    def test_empty_trace(self):
        from repro.radio import phase_summary

        assert phase_summary(BroadcastTrace(source=0, n=3)) == {}
