"""Unit tests for connectivity / diameter / degree properties."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs import (
    Adjacency,
    complete_graph,
    cycle_graph,
    diameter,
    gnp,
    grid_2d,
    is_connected,
    path_graph,
)
from repro.graphs.bfs import bfs_distances
from repro.graphs.properties import (
    GATHER_BYTES,
    connected_components,
    degree_histogram,
    diameter_lower_bound,
    eccentricity,
    largest_component,
)


class TestConnectivity:
    def test_connected_path(self, path5):
        assert is_connected(path5)

    def test_disconnected(self):
        g = Adjacency.from_edges(4, [(0, 1), (2, 3)])
        assert not is_connected(g)

    def test_empty_graph_not_connected(self):
        assert not is_connected(Adjacency.empty(0))

    def test_single_node_connected(self):
        assert is_connected(Adjacency.empty(1))

    def test_two_nodes(self):
        assert not is_connected(Adjacency.empty(2))
        assert is_connected(Adjacency.from_edges(2, [(0, 1)]))

    def test_isolated_node_disconnects(self):
        # A dense component (the sweep turns bottom-up at once) plus one
        # zero-degree row, first, last or in the middle.
        for isolated in (0, 3, 6):
            others = [v for v in range(7) if v != isolated]
            edges = [(u, v) for u in others for v in others if u < v]
            assert not is_connected(Adjacency.from_edges(7, edges))

    def test_bottom_up_pass_that_admits_nobody(self):
        # Two dense halves: the second half's rows see only unseen nodes.
        half = [(u, v) for u in range(6) for v in range(6) if u < v]
        g = Adjacency.from_edges(12, half + [(u + 6, v + 6) for u, v in half])
        assert not is_connected(g)
        bridged = [*half, (5, 6), *((u + 6, v + 6) for u, v in half)]
        assert is_connected(Adjacency.from_edges(12, bridged))

    @pytest.mark.parametrize("tail", [0, 1, 2])
    def test_sweep_reads_each_edge_at_most_once_on_a_star_with_a_tail(self, monkeypatch, tail):
        # Node 0 is the centre of 2L leaves and the head of an L-node
        # path.  The sweep turns bottom-up after one level; a sweep that
        # stayed bottom-up would gather the path's lists once per hop.
        import repro.graphs.bfs as bfs
        import repro.graphs.properties as properties

        length = 300
        leaves = [(0, k) for k in range(1, 2 * length + 1)]
        path = [(u, u + 1) for u in range(2 * length + 1, 3 * length)]
        edges = leaves + [(0, 2 * length + 1)] + path
        n = 3 * length + 1 + tail  # a tail of isolated nodes disconnects
        gathered = []
        original = bfs.neighbor_targets

        def counting(adj, nodes):
            targets, lens = original(adj, nodes)
            gathered.append(targets.size)
            return targets, lens

        monkeypatch.setattr(bfs, "neighbor_targets", counting)
        monkeypatch.setattr(properties, "neighbor_targets", counting)
        g = Adjacency.from_edges(n, edges)
        assert properties._reaches_all_from_zero(g) == (tail == 0)
        assert sum(gathered) <= g.indptr[-1]

    def test_components_labels(self):
        g = Adjacency.from_edges(5, [(0, 1), (2, 3)])
        labels = connected_components(g)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert len({labels[0], labels[2], labels[4]}) == 3

    def test_largest_component(self):
        g = Adjacency.from_edges(6, [(0, 1), (1, 2), (3, 4)])
        assert list(largest_component(g)) == [0, 1, 2]

    def test_largest_component_empty(self):
        assert largest_component(Adjacency.empty(0)).size == 0

    def test_components_match_networkx_on_many_components(self):
        nx = pytest.importorskip("networkx")
        # Below the giant-component threshold: hundreds of components,
        # isolated nodes included.
        g = gnp(600, 0.6 / 600, seed=4)
        labels = connected_components(g)
        ours = {frozenset(np.flatnonzero(labels == k).tolist()) for k in range(labels.max() + 1)}
        theirs = {frozenset(c) for c in nx.connected_components(g.to_networkx())}
        assert len(theirs) > 100
        assert ours == theirs
        # Labels count up in order of each component's smallest node.
        firsts = [int(np.flatnonzero(labels == k)[0]) for k in range(labels.max() + 1)]
        assert firsts == sorted(firsts)

    def test_connectivity_is_computed_once_per_graph(self, monkeypatch):
        import repro.graphs.properties as properties

        calls = []
        original = properties._reaches_all_from_zero
        monkeypatch.setattr(
            properties, "_reaches_all_from_zero", lambda adj: calls.append(adj) or original(adj)
        )
        connected = path_graph(6)
        split = Adjacency.from_edges(4, [(0, 1), (2, 3)])
        assert [is_connected(connected) for _ in range(3)] == [True] * 3
        assert [is_connected(split) for _ in range(3)] == [False] * 3
        assert len(calls) == 2


class TestEccentricityDiameter:
    def test_path_eccentricity(self, path5):
        assert eccentricity(path5, 0) == 4
        assert eccentricity(path5, 2) == 2

    def test_eccentricity_disconnected_raises(self):
        g = Adjacency.from_edges(3, [(0, 1)])
        with pytest.raises(GraphError):
            eccentricity(g, 0)

    def test_diameter_known_values(self):
        assert diameter(path_graph(10)) == 9
        assert diameter(cycle_graph(10)) == 5
        assert diameter(complete_graph(7)) == 1
        assert diameter(grid_2d(3, 7)) == 8

    def test_diameter_empty_raises(self):
        with pytest.raises(GraphError):
            diameter(Adjacency.empty(0))

    def test_diameter_disconnected_raises(self):
        g = Adjacency.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(GraphError):
            diameter(g)

    def test_diameter_sampled_agrees_on_random_graph(self):
        g = gnp(300, 0.05, seed=8)
        if not is_connected(g):
            pytest.skip("sample disconnected")
        exact = diameter(g, exact_limit=1000)
        approx = diameter(g, exact_limit=10, samples=64, seed=1)
        assert approx <= exact
        assert approx >= exact - 1  # eccentricities concentrate on G(n,p)

    def test_diameter_lower_bound_path(self):
        assert diameter_lower_bound(path_graph(50), samples=8, seed=0) == 49

    def test_diameter_lower_bound_disconnected_raises(self):
        g = Adjacency.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(GraphError):
            diameter_lower_bound(g, seed=0)


class TestBitParallelDiameter:
    """The all-sources kernel packs 64 BFS sources into one ``uint64`` word."""

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
    def test_word_boundaries(self, n):
        assert diameter(path_graph(n)) == n - 1
        if n >= 3:
            assert diameter(cycle_graph(n)) == n // 2
        g = gnp(n, 0.2, seed=n)
        if is_connected(g):
            per_source = max(int(bfs_distances(g, v).max()) for v in range(n))
            assert diameter(g) == per_source

    @pytest.mark.parametrize("n", [63, 64, 65, 130])
    @pytest.mark.parametrize("cut", ["isolated-node", "two-paths"])
    def test_disconnected_raises(self, n, cut):
        # A path with one edge removed: the last one, or the middle one.
        removed = n - 2 if cut == "isolated-node" else n // 2 - 1
        edges = [(v, v + 1) for v in range(n - 1) if v != removed]
        with pytest.raises(GraphError, match="not connected"):
            diameter(Adjacency.from_edges(n, edges))

    def test_complete_graph_spans_several_chunks(self):
        g = complete_graph(800)
        chunk_sources = 64 * max(1, GATHER_BYTES // (8 * g.indices.size))
        assert chunk_sources < g.n / 4
        assert diameter(g) == 1

    def test_dense_graph_memory_stays_chunked(self):
        # Unchunked, the 16 source words of a 1024-clique would gather a
        # 134 MB block per level; chunked, one word's 8 MB.
        g = complete_graph(1024)
        tracemalloc.start()
        try:
            assert diameter(g) == 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * g.indices.size


class TestDegreeHistogram:
    def test_star(self, star10):
        hist = degree_histogram(star10)
        assert hist[1] == 9
        assert hist[9] == 1

    def test_empty(self):
        assert list(degree_histogram(Adjacency.empty(0))) == [0]

    def test_sums_to_n(self, gnp_small):
        assert degree_histogram(gnp_small).sum() == gnp_small.n
