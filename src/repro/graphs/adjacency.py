"""Immutable CSR adjacency structure for undirected simple graphs.

:class:`Adjacency` is the substrate every other module builds on.  It stores
the neighbour lists of an undirected simple graph in compressed sparse row
form (``indptr`` / ``indices``), which gives

* ``O(1)`` degree lookups and zero-copy neighbour views,
* a single cached :class:`scipy.sparse.csr_matrix` for the radio round
  kernel's "count transmitting neighbours" matvec,
* cheap vectorized frontier expansion for BFS.

Instances are immutable: the underlying arrays are marked read-only, so a
graph can be shared between a simulator, a scheduler and an experiment
runner without defensive copies.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from .._typing import BoolArray, IntArray
from ..backends import get_backend
from ..errors import GraphError

__all__ = ["Adjacency"]


def _as_edge_array(edges: Iterable[tuple[int, int]] | np.ndarray) -> np.ndarray:
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphError(f"edge array must have shape (m, 2), got {arr.shape}")
    return arr


class Adjacency:
    """Undirected simple graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; row ``v``'s neighbours are
        ``indices[indptr[v]:indptr[v+1]]``.
    indices:
        ``int64`` array of neighbour ids; each undirected edge appears in
        both endpoint rows.  Rows must be sorted and duplicate-free; no
        self-loops.
    validate:
        When true (default), check all structural invariants.  Generators
        that construct valid CSR directly may pass ``False`` to skip the
        ``O(n + m)`` check.
    """

    __slots__ = (
        "_indptr",
        "_indices",
        "_matrix",
        "_degrees",
        "_mask_buf",
        "_gather_arange",
        "_dense_buf",
        "__weakref__",
    )

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, *, validate: bool = True):
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if validate:
            self._validate(indptr, indices)
        indptr.flags.writeable = False
        indices.flags.writeable = False
        self._indptr = indptr
        self._indices = indices
        self._matrix: sp.csr_matrix | None = None
        self._degrees: np.ndarray | None = None
        self._mask_buf: np.ndarray | None = None
        self._gather_arange: np.ndarray | None = None
        self._dense_buf: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]] | np.ndarray) -> "Adjacency":
        """Build from an iterable of (u, v) pairs.

        Duplicate edges and both orientations of the same edge are merged;
        self-loops are rejected.
        """
        if n < 0:
            raise GraphError(f"node count must be non-negative, got {n}")
        arr = _as_edge_array(edges)
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise GraphError(
                f"edge endpoint out of range [0, {n}): "
                f"min={arr.min() if arr.size else None}, max={arr.max() if arr.size else None}"
            )
        if arr.size and np.any(arr[:, 0] == arr[:, 1]):
            bad = arr[arr[:, 0] == arr[:, 1]][0, 0]
            raise GraphError(f"self-loop at node {int(bad)} is not allowed")
        # Symmetrize, then deduplicate via a linear index on the full pair.
        both = np.concatenate([arr, arr[:, ::-1]], axis=0) if arr.size else arr
        if both.size:
            key = both[:, 0] * np.int64(n) + both[:, 1]
            uniq = np.unique(key)
            src = (uniq // n).astype(np.int64)
            dst = (uniq % n).astype(np.int64)
        else:
            src = np.empty(0, dtype=np.int64)
            dst = np.empty(0, dtype=np.int64)
        counts = np.bincount(src, minlength=n).astype(np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        # `uniq` is sorted by (src, dst) already, so dst is grouped and sorted.
        return cls(indptr, dst, validate=False)

    @classmethod
    def from_dense(cls, matrix: np.ndarray) -> "Adjacency":
        """Build from a dense boolean/0-1 adjacency matrix (symmetrized)."""
        m = np.asarray(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise GraphError(f"adjacency matrix must be square, got {m.shape}")
        m = (m != 0) | (m != 0).T
        np.fill_diagonal(m, False)
        src, dst = np.nonzero(m)
        n = m.shape[0]
        counts = np.bincount(src, minlength=n).astype(np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, dst.astype(np.int64), validate=False)

    @classmethod
    def from_scipy(cls, matrix: sp.spmatrix) -> "Adjacency":
        """Build from any scipy sparse matrix (symmetrized, diagonal dropped)."""
        m = sp.csr_matrix(matrix, copy=True)
        if m.shape[0] != m.shape[1]:
            raise GraphError(f"adjacency matrix must be square, got {m.shape}")
        m = m.maximum(m.T)
        m.setdiag(0)
        m.eliminate_zeros()
        m.sort_indices()
        return cls(m.indptr.astype(np.int64), m.indices.astype(np.int64), validate=False)

    @classmethod
    def from_networkx(cls, graph) -> "Adjacency":
        """Build from a :class:`networkx.Graph` with nodes ``0 .. n-1``.

        Node labels must already be consecutive integers; use
        :func:`networkx.convert_node_labels_to_integers` otherwise.
        """
        n = graph.number_of_nodes()
        labels = set(graph.nodes())
        if labels != set(range(n)):
            raise GraphError("networkx graph nodes must be exactly 0..n-1; relabel first")
        edges = np.array([(u, v) for u, v in graph.edges() if u != v], dtype=np.int64).reshape(-1, 2)
        return cls.from_edges(n, edges)

    @classmethod
    def empty(cls, n: int) -> "Adjacency":
        """Graph on ``n`` nodes with no edges."""
        if n < 0:
            raise GraphError(f"node count must be non-negative, got {n}")
        return cls(np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64), validate=False)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    @staticmethod
    def _validate(indptr: np.ndarray, indices: np.ndarray) -> None:
        if indptr.ndim != 1 or indptr.size == 0:
            raise GraphError("indptr must be a 1-D array of length n + 1")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise GraphError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        n = indptr.size - 1
        if indices.size:
            if indices.min() < 0 or indices.max() >= n:
                raise GraphError("neighbour index out of range")
            row = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
            if np.any(row == indices):
                raise GraphError("self-loops are not allowed")
            # Sorted and duplicate-free within each row: a strict increase
            # everywhere except at row boundaries.
            inner = np.ones(indices.size, dtype=bool)
            starts = indptr[1:-1]
            inner[starts[starts < indices.size]] = False  # first slot of each later row
            if np.any((np.diff(indices) <= 0)[inner[1:]]):
                raise GraphError("row neighbour lists must be strictly increasing")
            # Symmetry: the reversed edge set must equal the edge set.
            key = row * np.int64(n) + indices
            rkey = indices * np.int64(n) + row
            if not np.array_equal(np.sort(key), np.sort(rkey)):
                raise GraphError("adjacency must be symmetric (undirected)")

    def validate(self) -> None:
        """Re-check all structural invariants; raises :class:`GraphError`."""
        self._validate(self._indptr, self._indices)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._indices.size // 2

    @property
    def indptr(self) -> IntArray:
        """Read-only CSR row pointer array (length ``n + 1``)."""
        return self._indptr

    @property
    def indices(self) -> IntArray:
        """Read-only CSR neighbour array (length ``2 * num_edges``)."""
        return self._indices

    @property
    def degrees(self) -> IntArray:
        """Degree of every node (cached read-only array)."""
        if self._degrees is None:
            degs = np.diff(self._indptr)
            degs.flags.writeable = False
            self._degrees = degs
        return self._degrees

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.n else 0

    @property
    def min_degree(self) -> int:
        return int(self.degrees.min()) if self.n else 0

    @property
    def average_degree(self) -> float:
        return 2.0 * self.num_edges / self.n if self.n else 0.0

    def degree(self, v: int) -> int:
        """Degree of node ``v``."""
        return int(self._indptr[v + 1] - self._indptr[v])

    def neighbors(self, v: int) -> IntArray:
        """Zero-copy sorted neighbour view of node ``v``."""
        return self._indices[self._indptr[v] : self._indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Membership test via binary search in ``u``'s sorted row."""
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return bool(i < row.size and row[i] == v)

    def edges(self) -> IntArray:
        """``(m, 2)`` array of undirected edges with ``u < v``."""
        row = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self._indptr))
        mask = row < self._indices
        return np.column_stack([row[mask], self._indices[mask]])

    # ------------------------------------------------------------------
    # Vectorized kernels
    # ------------------------------------------------------------------

    def matrix(self) -> sp.csr_matrix:
        """Cached ``int64`` CSR matrix for matvec/matmat kernels.

        ``int64`` data keeps every kernel dot product upcast-free: boolean
        masks are cast once into the cached scratch buffer, and the
        informer-extraction matvec (ids up to ``n``) needs no temporary
        copy of the data array.
        """
        if self._matrix is None:
            self._matrix = sp.csr_matrix(
                (
                    np.ones(self._indices.size, dtype=np.int64),
                    self._indices.copy(),
                    self._indptr.copy(),
                ),
                shape=(self.n, self.n),
            )
        return self._matrix

    def neighbor_counts(self, mask: BoolArray | np.ndarray) -> IntArray:
        """For every node, the number of its neighbours where ``mask`` is true.

        This is the radio round kernel: with ``mask`` the transmitter set,
        the result tells each node how many transmissions reach it.  The
        computation dispatches through the process-wide kernel backend
        (:func:`repro.backends.get_backend`); on the default numpy
        backend the bool→int cast goes through a cached scratch buffer,
        so the hot matvec allocates only its output (one array per
        round).  Every backend returns identical integer counts.
        """
        mask = np.asarray(mask)
        if mask.shape != (self.n,):
            raise GraphError(f"mask must have shape ({self.n},), got {mask.shape}")
        return get_backend().neighbor_counts(self, mask)

    def neighbor_counts_batch(self, masks: BoolArray | np.ndarray) -> IntArray:
        """Batched round kernel: neighbour counts for ``R`` masks at once.

        ``masks`` has shape ``(n, R)`` — one transmitter mask per column
        (trial) — and the result is the ``(n, R)`` count matrix.  One call
        replaces ``R`` separate :meth:`neighbor_counts` matvecs, which is
        what makes batched Monte-Carlo repetition cheap.

        Execution dispatches through the process-wide kernel backend
        (:func:`repro.backends.get_backend`): the default numpy backend
        picks between a gather/``bincount`` **scatter** path and a
        CSR×dense **matmul** path by estimated transmission volume
        (crossover calibrated once per process — see
        :mod:`repro.backends.numpy_backend`); the optional numba backend
        runs a compiled ``prange`` loop instead.  All backends return identical integer counts, so the
        selection is invisible in results (docs/PERFORMANCE.md,
        "Kernel backends").
        """
        masks = np.asarray(masks)
        if masks.ndim != 2 or masks.shape[0] != self.n:
            raise GraphError(
                f"masks must have shape ({self.n}, R), got {masks.shape}"
            )
        return get_backend().neighbor_counts_batch(self, masks)

    def neighborhood_of(self, nodes: IntArray | Sequence[int]) -> IntArray:
        """Sorted unique union of neighbours of ``nodes`` (may include ``nodes``)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size == 0:
            return np.empty(0, dtype=np.int64)
        starts = self._indptr[nodes]
        lengths = self._indptr[nodes + 1] - starts
        total = int(lengths.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        # Gather all rows in one shot: for output slot k in row-group g,
        # the source index is starts[g] + (k - cumulative length before g).
        offsets = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        gather = offsets + np.arange(total, dtype=np.int64)
        return np.unique(self._indices[gather])

    def subgraph(self, nodes: IntArray | Sequence[int]) -> tuple["Adjacency", IntArray]:
        """Induced subgraph on ``nodes``.

        Returns the subgraph (relabelled ``0 .. k-1`` in the sorted order of
        ``nodes``) and the sorted node array mapping new ids to old ids.
        """
        nodes = np.unique(np.asarray(nodes, dtype=np.int64))
        if nodes.size and (nodes[0] < 0 or nodes[-1] >= self.n):
            raise GraphError("subgraph nodes out of range")
        relabel = np.full(self.n, -1, dtype=np.int64)
        relabel[nodes] = np.arange(nodes.size, dtype=np.int64)
        edges = self.edges()
        if edges.size:
            keep = (relabel[edges[:, 0]] >= 0) & (relabel[edges[:, 1]] >= 0)
            sub_edges = relabel[edges[keep]]
        else:
            sub_edges = edges
        return Adjacency.from_edges(nodes.size, sub_edges), nodes

    # ------------------------------------------------------------------
    # Interop / dunder
    # ------------------------------------------------------------------

    def to_networkx(self):
        """Convert to :class:`networkx.Graph` (nodes ``0 .. n-1``)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(map(tuple, self.edges()))
        return g

    def to_dense(self) -> np.ndarray:
        """Dense boolean adjacency matrix (small graphs only)."""
        out = np.zeros((self.n, self.n), dtype=bool)
        row = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self._indptr))
        out[row, self._indices] = True
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Adjacency):
            return NotImplemented
        return np.array_equal(self._indptr, other._indptr) and np.array_equal(
            self._indices, other._indices
        )

    def __hash__(self):
        return hash((self.n, self.num_edges, self._indices[:16].tobytes()))

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n))

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"Adjacency(n={self.n}, m={self.num_edges}, avg_degree={self.average_degree:.2f})"
