"""Property-based tests for the graph substrate (hypothesis)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs import Adjacency, gnm, gnp, properties
from repro.graphs.bfs import bfs_distances, bfs_layers_list, bfs_tree
from repro.graphs.properties import diameter, diameter_lower_bound
from repro.graphs.random_graphs import pair_count

# Strategy: arbitrary edge lists over small node ranges.
edge_lists = st.integers(min_value=2, max_value=25).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=60,
        ),
    )
)

gnp_params = st.tuples(
    st.integers(min_value=2, max_value=40),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=10_000),
)


class TestAdjacencyInvariants:
    @given(edge_lists)
    @settings(max_examples=80, deadline=None)
    def test_from_edges_structural_invariants(self, data):
        n, edges = data
        g = Adjacency.from_edges(n, edges)
        g.validate()  # symmetry, sortedness, no loops, no duplicates
        # Degree sum == 2m (handshake lemma).
        assert int(g.degrees.sum()) == 2 * g.num_edges
        # Edge list round-trips.
        g2 = Adjacency.from_edges(n, g.edges())
        assert g == g2

    @given(edge_lists)
    @settings(max_examples=50, deadline=None)
    def test_dense_roundtrip(self, data):
        n, edges = data
        g = Adjacency.from_edges(n, edges)
        assert Adjacency.from_dense(g.to_dense()) == g

    @given(edge_lists, st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_neighbor_counts_matches_bruteforce(self, data, seed):
        n, edges = data
        g = Adjacency.from_edges(n, edges)
        mask = np.random.default_rng(seed).random(n) < 0.5
        counts = g.neighbor_counts(mask)
        for v in range(n):
            assert counts[v] == int(np.sum(mask[g.neighbors(v)]))

    @given(edge_lists)
    @settings(max_examples=50, deadline=None)
    def test_subgraph_edges_subset(self, data):
        n, edges = data
        g = Adjacency.from_edges(n, edges)
        pick = np.arange(0, n, 2)
        sub, nodes = g.subgraph(pick)
        for u, v in sub.edges():
            assert g.has_edge(int(nodes[u]), int(nodes[v]))


class TestGeneratorInvariants:
    @given(gnp_params)
    @settings(max_examples=60, deadline=None)
    def test_gnp_valid_structure(self, params):
        n, p, seed = params
        g = gnp(n, p, seed=seed)
        g.validate()
        assert g.n == n
        assert 0 <= g.num_edges <= pair_count(n)

    @given(
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=0, max_value=10_000),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_gnm_exact_count(self, n, seed, data):
        m = data.draw(st.integers(0, pair_count(n)))
        g = gnm(n, m, seed=seed)
        g.validate()
        assert g.num_edges == m


class TestBfsInvariants:
    @given(gnp_params)
    @settings(max_examples=60, deadline=None)
    def test_distance_lipschitz_across_edges(self, params):
        n, p, seed = params
        g = gnp(n, p, seed=seed)
        dist = bfs_distances(g, 0)
        for u, v in g.edges():
            du, dv = dist[u], dist[v]
            if du >= 0 and dv >= 0:
                assert abs(du - dv) <= 1
            else:
                # Reachability is a component property: both or neither.
                assert du == dv == -1

    @given(gnp_params)
    @settings(max_examples=40, deadline=None)
    def test_layers_partition_reachable_set(self, params):
        n, p, seed = params
        g = gnp(n, p, seed=seed)
        dist = bfs_distances(g, 0)
        layers = bfs_layers_list(g, 0)
        reached = np.flatnonzero(dist >= 0)
        assert np.array_equal(np.sort(np.concatenate(layers)), reached)

    @given(gnp_params)
    @settings(max_examples=40, deadline=None)
    def test_tree_parent_distance_invariant(self, params):
        n, p, seed = params
        g = gnp(n, p, seed=seed)
        dist, parent = bfs_tree(g, 0)
        for v in range(n):
            if parent[v] >= 0:
                assert dist[v] == dist[parent[v]] + 1
                assert g.has_edge(int(parent[v]), v)


def oracle_diameter(g):
    """One BFS per source; ``None`` when some source misses a node."""
    best = 0
    for v in range(g.n):
        dist = bfs_distances(g, v)
        if np.any(dist < 0):
            return None
        best = max(best, int(dist.max()))
    return best


def oracle_lower_bound(g, samples, seed):
    """The double sweep plus one BFS per sampled source, draw for draw."""
    rng = np.random.default_rng(seed)
    dist = bfs_distances(g, int(rng.integers(g.n)))
    if np.any(dist < 0):
        return None
    best = int(bfs_distances(g, int(np.argmax(dist))).max())
    for _ in range(samples):
        best = max(best, int(bfs_distances(g, int(rng.integers(g.n))).max()))
    return best


# Sizes on both sides of the 64-source word boundary, densities from
# empty (disconnected) to complete.
wide_gnp_params = st.tuples(
    st.integers(min_value=1, max_value=150),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=10_000),
)


class TestBitParallelDiameter:
    @given(wide_gnp_params)
    @settings(max_examples=80, deadline=None)
    def test_matches_per_source_bfs(self, params):
        n, p, seed = params
        g = gnp(n, p, seed=seed)
        expected = oracle_diameter(g)
        if expected is None:
            with pytest.raises(GraphError):
                diameter(g)
        else:
            assert diameter(g) == expected

    @given(wide_gnp_params, st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_chunked_sources_match(self, params, budget):
        # A tiny gather budget forces one 64-source word per chunk.
        n, p, seed = params
        g = gnp(n, p, seed=seed)
        expected = oracle_diameter(g)
        with mock.patch.object(properties, "GATHER_BYTES", budget):
            if expected is None:
                with pytest.raises(GraphError):
                    diameter(g)
            else:
                assert diameter(g) == expected

    @given(wide_gnp_params, st.integers(0, 130))
    @settings(max_examples=40, deadline=None)
    def test_lower_bound_matches_serial_sampling(self, params, samples):
        n, p, seed = params
        g = gnp(n, p, seed=seed)
        expected = oracle_lower_bound(g, samples, seed)
        if expected is None:
            with pytest.raises(GraphError):
                diameter_lower_bound(g, samples=samples, seed=seed)
        else:
            assert diameter_lower_bound(g, samples=samples, seed=seed) == expected


class TestConnectivitySweep:
    """The direction-optimising connectivity sweep agrees with a BFS."""

    @staticmethod
    def bfs_connected(g: Adjacency) -> bool:
        return bool(np.all(bfs_distances(g, 0) >= 0))

    @given(
        st.integers(min_value=1, max_value=25).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=80),
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_bfs_on_edge_lists(self, data):
        n, edges = data
        g = Adjacency.from_edges(n, [(u, v) for u, v in edges if u != v])
        assert properties.is_connected(g) == self.bfs_connected(g)

    @given(
        st.integers(min_value=1, max_value=300),
        st.floats(min_value=0.0, max_value=0.2),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_bfs_on_gnp(self, n, p, seed):
        # Around the connectivity threshold both the top-down levels and
        # the bottom-up passes run, and both answers occur.
        g = gnp(n, p, seed=seed)
        assert properties.is_connected(g) == self.bfs_connected(g)
