"""Unit tests for the CSR adjacency substrate."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import GraphError
from repro.graphs import Adjacency


class TestConstruction:
    def test_from_edges_basic(self):
        g = Adjacency.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.n == 4
        assert g.num_edges == 3
        assert list(g.neighbors(1)) == [0, 2]

    def test_from_edges_deduplicates(self):
        g = Adjacency.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_from_edges_symmetrizes(self):
        g = Adjacency.from_edges(3, [(0, 1)])
        assert g.has_edge(1, 0)
        assert g.has_edge(0, 1)

    def test_from_edges_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            Adjacency.from_edges(3, [(1, 1)])

    def test_from_edges_rejects_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            Adjacency.from_edges(3, [(0, 3)])
        with pytest.raises(GraphError, match="out of range"):
            Adjacency.from_edges(3, [(-1, 0)])

    def test_from_edges_rejects_negative_n(self):
        with pytest.raises(GraphError, match="non-negative"):
            Adjacency.from_edges(-1, [])

    def test_from_edges_empty(self):
        g = Adjacency.from_edges(5, [])
        assert g.n == 5
        assert g.num_edges == 0

    def test_from_edges_bad_shape(self):
        with pytest.raises(GraphError, match="shape"):
            Adjacency.from_edges(3, np.array([[0, 1, 2]]))

    def test_empty_constructor(self):
        g = Adjacency.empty(7)
        assert g.n == 7
        assert g.num_edges == 0
        assert g.degree(3) == 0

    def test_empty_zero_nodes(self):
        g = Adjacency.empty(0)
        assert g.n == 0
        assert len(g) == 0

    def test_from_dense_roundtrip(self):
        m = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        g = Adjacency.from_dense(m)
        assert np.array_equal(g.to_dense(), m.astype(bool))

    def test_from_dense_symmetrizes_and_drops_diagonal(self):
        m = np.array([[1, 1, 0], [0, 0, 0], [0, 0, 1]])
        g = Adjacency.from_dense(m)
        assert g.num_edges == 1
        assert g.has_edge(0, 1)
        assert not g.has_edge(0, 0)

    def test_from_dense_rejects_non_square(self):
        with pytest.raises(GraphError, match="square"):
            Adjacency.from_dense(np.zeros((2, 3)))

    def test_from_scipy(self):
        m = sp.csr_matrix(np.array([[0, 1], [1, 0]]))
        g = Adjacency.from_scipy(m)
        assert g.num_edges == 1

    def test_from_networkx_roundtrip(self):
        nx = pytest.importorskip("networkx")
        src = nx.path_graph(6)
        g = Adjacency.from_networkx(src)
        back = g.to_networkx()
        assert sorted(back.edges()) == sorted(src.edges())

    def test_from_networkx_rejects_bad_labels(self):
        nx = pytest.importorskip("networkx")
        src = nx.Graph([("a", "b")])
        with pytest.raises(GraphError, match="0..n-1"):
            Adjacency.from_networkx(src)

    def test_direct_csr_validation_rejects_asymmetric(self):
        indptr = np.array([0, 1, 1])
        indices = np.array([1])
        with pytest.raises(GraphError, match="symmetric"):
            Adjacency(indptr, indices)

    def test_direct_csr_validation_rejects_unsorted_rows(self):
        # Node 0 adjacent to 2 then 1 (unsorted).
        indptr = np.array([0, 2, 3, 4])
        indices = np.array([2, 1, 0, 0])
        with pytest.raises(GraphError, match="increasing"):
            Adjacency(indptr, indices)

    def test_direct_csr_validation_rejects_bad_indptr(self):
        with pytest.raises(GraphError):
            Adjacency(np.array([1, 2]), np.array([0, 1]))


class TestAccessors:
    def test_degrees(self, star10):
        degs = star10.degrees
        assert degs[0] == 9
        assert np.all(degs[1:] == 1)
        assert star10.max_degree == 9
        assert star10.min_degree == 1

    def test_average_degree(self, k5):
        assert k5.average_degree == pytest.approx(4.0)

    def test_degree_single(self, path5):
        assert path5.degree(0) == 1
        assert path5.degree(2) == 2

    def test_neighbors_sorted_view(self, k5):
        nbrs = k5.neighbors(2)
        assert list(nbrs) == [0, 1, 3, 4]
        assert not nbrs.flags.writeable

    def test_has_edge(self, path5):
        assert path5.has_edge(1, 2)
        assert not path5.has_edge(0, 2)

    def test_edges_upper_triangle(self, triangle):
        e = triangle.edges()
        assert e.shape == (3, 2)
        assert np.all(e[:, 0] < e[:, 1])

    def test_len_and_iter(self, path5):
        assert len(path5) == 5
        assert list(path5) == [0, 1, 2, 3, 4]

    def test_repr(self, path5):
        assert "n=5" in repr(path5)

    def test_equality(self, path5):
        other = Adjacency.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert path5 == other
        assert not (path5 == Adjacency.empty(5))
        assert path5.__eq__(42) is NotImplemented

    def test_immutability(self, path5):
        with pytest.raises(ValueError):
            path5.indices[0] = 99
        with pytest.raises(ValueError):
            path5.indptr[0] = 1


class TestKernels:
    def test_neighbor_counts_matches_naive(self, gnp_small, rng):
        mask = rng.random(gnp_small.n) < 0.3
        counts = gnp_small.neighbor_counts(mask)
        for v in range(gnp_small.n):
            assert counts[v] == int(np.sum(mask[gnp_small.neighbors(v)]))

    def test_neighbor_counts_all_false(self, k5):
        assert np.all(k5.neighbor_counts(np.zeros(5, dtype=bool)) == 0)

    def test_neighbor_counts_all_true(self, k5):
        assert np.all(k5.neighbor_counts(np.ones(5, dtype=bool)) == 4)

    def test_neighbor_counts_shape_check(self, k5):
        with pytest.raises(GraphError, match="shape"):
            k5.neighbor_counts(np.zeros(4, dtype=bool))

    def test_neighborhood_of(self, path5):
        out = path5.neighborhood_of([0, 4])
        assert list(out) == [1, 3]

    def test_neighborhood_of_empty(self, path5):
        assert path5.neighborhood_of([]).size == 0

    def test_matrix_cached(self, path5):
        m1 = path5.matrix()
        m2 = path5.matrix()
        assert m1 is m2

    def test_degrees_cached_and_readonly(self, gnp_small):
        d1 = gnp_small.degrees
        d2 = gnp_small.degrees
        assert d1 is d2
        assert not d1.flags.writeable
        assert np.array_equal(d1, np.diff(gnp_small.indptr))

    def test_neighborhood_of_matches_naive_union(self, gnp_small, rng):
        nodes = rng.choice(gnp_small.n, size=7, replace=False)
        expected = sorted({int(w) for v in nodes for w in gnp_small.neighbors(v)})
        assert list(gnp_small.neighborhood_of(nodes)) == expected

    def test_neighborhood_of_isolated_nodes(self):
        g = Adjacency.from_edges(4, [(0, 1)])
        assert g.neighborhood_of([2, 3]).size == 0


class TestBatchKernel:
    def test_matches_per_column_counts(self, gnp_small, rng):
        masks = rng.random((gnp_small.n, 9)) < 0.3
        batch = gnp_small.neighbor_counts_batch(masks)
        assert batch.shape == (gnp_small.n, 9)
        for r in range(9):
            assert np.array_equal(batch[:, r], gnp_small.neighbor_counts(masks[:, r]))

    def test_trial_major_view_matches_column_major(self, gnp_small, rng):
        # The batch engine passes a transposed view of C-order trial-major
        # state; both orientations must produce the same counts.
        rows = rng.random((6, gnp_small.n)) < 0.3
        via_view = gnp_small.neighbor_counts_batch(rows.T)
        via_copy = gnp_small.neighbor_counts_batch(np.ascontiguousarray(rows.T))
        assert np.array_equal(via_view, via_copy)

    def test_dense_path_matches_scatter(self, gnp_small, rng):
        # All-transmitting masks push the work estimate over the matmul
        # crossover; the two paths must agree exactly.
        dense = np.ones((gnp_small.n, 4), dtype=bool)
        batch = gnp_small.neighbor_counts_batch(dense)
        expected = np.repeat(
            np.asarray(gnp_small.degrees)[:, None], 4, axis=1
        )
        assert np.array_equal(batch, expected)

    def test_all_false(self, k5):
        out = k5.neighbor_counts_batch(np.zeros((5, 3), dtype=bool))
        assert out.shape == (5, 3)
        assert not out.any()

    def test_single_column_matches_matvec(self, gnp_small, rng):
        mask = rng.random(gnp_small.n) < 0.2
        batch = gnp_small.neighbor_counts_batch(mask[:, None])
        assert np.array_equal(batch[:, 0], gnp_small.neighbor_counts(mask))

    def test_shape_check(self, k5):
        with pytest.raises(GraphError, match="shape"):
            k5.neighbor_counts_batch(np.zeros((4, 2), dtype=bool))
        with pytest.raises(GraphError, match="shape"):
            k5.neighbor_counts_batch(np.zeros(5, dtype=bool))

    def test_slot_layout_regroups_every_row(self, gnp_small):
        position, offsets, neighbours = gnp_small.slot_layout()
        assert gnp_small.slot_layout()[2] is neighbours  # cached
        degs = gnp_small.degrees
        # Rows by descending degree: slot k holds the rows of degree > k.
        assert np.all(np.diff(degs[np.argsort(position)]) <= 0)
        assert np.array_equal(np.diff(offsets), [np.sum(degs > k) for k in range(offsets.size - 1)])
        for v in range(gnp_small.n):
            slots = offsets[: degs[v]] + position[v]
            assert np.array_equal(neighbours[slots], gnp_small.neighbors(v))


class TestSubgraph:
    def test_induced_subgraph(self, k5):
        sub, nodes = k5.subgraph([1, 3, 4])
        assert sub.n == 3
        assert sub.num_edges == 3  # K3
        assert list(nodes) == [1, 3, 4]

    def test_subgraph_keeps_only_internal_edges(self, path5):
        sub, nodes = path5.subgraph([0, 1, 3])
        assert sub.num_edges == 1  # only (0,1)

    def test_subgraph_out_of_range(self, path5):
        with pytest.raises(GraphError, match="out of range"):
            path5.subgraph([0, 9])

    def test_subgraph_empty_selection(self, path5):
        sub, nodes = path5.subgraph([])
        assert sub.n == 0
        assert nodes.size == 0

    def test_validate_roundtrip(self, gnp_small):
        gnp_small.validate()  # should not raise
