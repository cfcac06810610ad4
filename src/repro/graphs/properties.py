"""Global graph properties: connectivity, components, diameter, eccentricity.

Broadcast experiments need connectivity checks (broadcast never completes on
a disconnected graph) and diameter estimates (the ``ln n / ln d`` term in
the paper's bounds is, up to constants, the diameter of ``G(n, p)``).
"""

from __future__ import annotations

import numpy as np

from .._typing import IntArray, SeedLike
from ..errors import GraphError
from ..rng import as_generator
from .adjacency import Adjacency
from .bfs import _expand_frontier, bfs_distances, neighbor_targets

__all__ = [
    "is_connected",
    "reaches_all",
    "connected_components",
    "largest_component",
    "eccentricity",
    "diameter",
    "diameter_lower_bound",
    "degree_histogram",
]


def connected_components(adj: Adjacency) -> IntArray:
    """Component label for every node (labels ``0, 1, ...`` by discovery).

    One pass over one label array: each component's BFS uses the labels
    as its visited mask, so a component costs time linear in its own
    edges, not an ``n``-sized distance array.
    """
    n = adj.n
    labels = np.full(n, -1, dtype=np.int64)
    current = 0
    for seed_node in range(n):
        if labels[seed_node] >= 0:
            continue
        labels[seed_node] = current
        frontier = np.array([seed_node], dtype=np.int64)
        while frontier.size:
            frontier = _expand_frontier(adj, labels, frontier)
            labels[frontier] = current
        current += 1
    return labels


def is_connected(adj: Adjacency) -> bool:
    """True iff the graph has a single connected component (and ``n >= 1``).

    The answer is cached on the (immutable) adjacency, so a graph pays for
    one reachability sweep however many runs check it.
    """
    if adj.n == 0:
        return False
    if adj._connected is None:
        adj._connected = _reaches_all_from_zero(adj)
    return adj._connected


def _reaches_all_from_zero(adj: Adjacency) -> bool:
    """Whether node 0 reaches every node: a direction-optimising sweep.

    Each level expands top-down, from the frontier's neighbour lists,
    while the frontier has fewer edges than the unseen nodes, and
    bottom-up otherwise: one gather of the unseen nodes' neighbour lists
    admits every node with a seen neighbour.  A bottom-up level so costs
    at most the frontier's edges, and one that admits few nodes hands
    back to top-down, so the sweep is linear in the edges.  On
    ``G(n, p)`` past the connectivity threshold that is a few small
    top-down levels and two or three bottom-up ones, instead of one
    top-down level per hop.
    """
    degrees = adj.degrees
    if adj.n > 1 and not degrees.all():
        return False  # an isolated node
    seen = np.full(adj.n, -1, dtype=np.int64)
    seen[0] = 0
    frontier = np.zeros(1, dtype=np.int64)
    unseen = None
    unseen_edges = int(adj.indptr[-1]) - int(degrees[0])
    while frontier.size and unseen_edges:
        if int(degrees[frontier].sum()) < unseen_edges:
            frontier = _expand_frontier(adj, seen, frontier)
        else:
            # Every unseen node has a neighbour, so no list is empty.
            unseen = np.flatnonzero(seen < 0) if unseen is None else unseen[seen[unseen] < 0]
            targets, lens = neighbor_targets(adj, unseen)
            starts = np.cumsum(lens) - lens
            frontier = unseen[np.logical_or.reduceat(seen[targets] >= 0, starts)]
        seen[frontier] = 0
        unseen_edges -= int(degrees[frontier].sum())
    return unseen_edges == 0


def reaches_all(adj: Adjacency, source: int) -> bool:
    """True iff every node is reachable from ``source``.

    The graph is undirected, so that is connectivity, and it costs at most
    one sweep per graph; an out-of-range ``source`` raises
    :class:`GraphError`.
    """
    if not 0 <= source < adj.n:
        raise GraphError(f"source {source} out of range [0, {adj.n})")
    return is_connected(adj)


def largest_component(adj: Adjacency) -> IntArray:
    """Sorted node ids of the largest connected component."""
    labels = connected_components(adj)
    if labels.size == 0:
        return np.empty(0, dtype=np.int64)
    sizes = np.bincount(labels)
    return np.flatnonzero(labels == np.argmax(sizes)).astype(np.int64)


def eccentricity(adj: Adjacency, v: int) -> int:
    """Eccentricity of ``v``: max hop distance to any reachable node.

    Raises :class:`GraphError` if some node is unreachable from ``v``.
    """
    dist = bfs_distances(adj, v)
    if np.any(dist < 0):
        raise GraphError(f"graph is not connected from node {v}; eccentricity undefined")
    return int(dist.max())


#: Byte budget of one level's gathered ``(nnz, words)`` block in
#: :func:`_max_eccentricity`: the source words are processed in chunks
#: that fit it (at least one word per chunk), so the kernel's memory is
#: bounded whatever the number of sources.
GATHER_BYTES = 4 << 20


def _max_eccentricity(adj: Adjacency, sources) -> int:
    """Largest eccentricity over ``sources`` by bit-parallel BFS.

    Every source owns one bit of a ``uint64`` word per node, so one level
    of 64 breadth-first searches is one OR-gather over the CSR
    (``bitwise_or.reduceat`` of ``frontier[indices]`` at ``indptr``)
    followed by ``new = next & ~reached``; the answer is the number of
    levels until every source has reached every node.  Exact, and equal to
    the maximum of :func:`~repro.graphs.bfs.bfs_distances` over the
    sources.  Raises :class:`GraphError` when some source does not reach
    every node.
    """
    n = adj.n
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size == 0 or n == 1:
        return 0
    # An isolated node disconnects the graph; ruling it out also keeps
    # every ``reduceat`` segment non-empty, which that ufunc needs.
    if np.any(adj.degrees == 0):
        raise GraphError("graph is not connected; diameter undefined")
    indptr, indices = adj.indptr, adj.indices
    starts = indptr[:-1]
    chunk_bits = 64 * max(1, GATHER_BYTES // (8 * indices.size))
    best = 0
    for lo in range(0, sources.size, chunk_bits):
        chunk = sources[lo : lo + chunk_bits]
        bits = np.arange(chunk.size)
        words = -(-chunk.size // 64)
        frontier = np.zeros((n, words), dtype=np.uint64)
        # ``.at``, not ``|=``: a source sampled twice sets two bits of one word.
        lanes = np.uint64(1) << (bits % 64).astype(np.uint64)
        np.bitwise_or.at(frontier, (chunk, bits // 64), lanes)
        full = np.full(words, np.iinfo(np.uint64).max, dtype=np.uint64)
        if chunk.size % 64:
            full[-1] = np.uint64((1 << (chunk.size % 64)) - 1)
        reached = frontier.copy()
        levels = 0
        while not np.array_equal(reached, np.broadcast_to(full, reached.shape)):
            frontier = np.bitwise_or.reduceat(frontier[indices], starts, axis=0)
            frontier &= ~reached
            if not frontier.any():
                raise GraphError("graph is not connected; diameter undefined")
            reached |= frontier
            levels += 1
        best = max(best, levels)
    return best


def diameter(adj: Adjacency, *, exact_limit: int = 2048, samples: int = 64, seed: SeedLike = None) -> int:
    """Diameter of a connected graph.

    Exact (all-sources bit-parallel BFS, see :func:`_max_eccentricity`)
    for ``n <= exact_limit``; otherwise a double-sweep lower bound refined
    with ``samples`` random-source BFS runs, which on random graphs is
    almost always exact because eccentricities concentrate within ±1.
    """
    n = adj.n
    if n == 0:
        raise GraphError("diameter of the empty graph is undefined")
    if n <= exact_limit:
        return _max_eccentricity(adj, np.arange(n))
    return diameter_lower_bound(adj, samples=samples, seed=seed)


def diameter_lower_bound(adj: Adjacency, *, samples: int = 64, seed: SeedLike = None) -> int:
    """Double-sweep + sampled-eccentricity lower bound on the diameter.

    The ``samples`` random sources run together as one bit-parallel BFS.
    """
    n = adj.n
    if n == 0:
        raise GraphError("diameter of the empty graph is undefined")
    rng = as_generator(seed)
    # Double sweep: BFS from a random node, then from the farthest node found.
    start = int(rng.integers(n))
    dist = bfs_distances(adj, start)
    if np.any(dist < 0):
        raise GraphError("graph is not connected; diameter undefined")
    far = int(np.argmax(dist))
    best = int(bfs_distances(adj, far).max())
    sampled = [int(rng.integers(n)) for _ in range(samples)]
    return max(best, _max_eccentricity(adj, sampled))


def degree_histogram(adj: Adjacency) -> IntArray:
    """``hist[k]`` = number of nodes of degree ``k``."""
    if adj.n == 0:
        return np.zeros(1, dtype=np.int64)
    return np.bincount(adj.degrees).astype(np.int64)
