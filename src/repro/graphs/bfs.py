"""Vectorized breadth-first search.

The frontier-expansion step gathers all neighbour slices of the current
frontier with a single fancy-index (no Python-level per-node loop), which is
what makes layer decompositions of million-edge graphs cheap — see the
hpc-parallel guide note in DESIGN.md §6.
"""

from __future__ import annotations

import numpy as np

from .._typing import IntArray
from ..errors import GraphError
from .adjacency import Adjacency

__all__ = ["gather_neighbors", "neighbor_targets", "bfs_distances", "bfs_tree", "bfs_layers_list"]


def neighbor_targets(adj: Adjacency, nodes: IntArray) -> tuple[IntArray, IntArray]:
    """Concatenated neighbour lists of ``nodes`` and each node's list length."""
    indptr, indices = adj.indptr, adj.indices
    starts = indptr[nodes]
    lens = indptr[nodes + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), lens
    # Build the concatenated index vector: for each node, a contiguous
    # range [start, start + len) — the classic repeat/cumsum range trick.
    offsets = np.zeros(nodes.size, dtype=np.int64)
    np.cumsum(lens[:-1], out=offsets[1:])
    flat = np.arange(total, dtype=np.int64) + np.repeat(starts - offsets, lens)
    return indices[flat], lens


def gather_neighbors(adj: Adjacency, nodes: IntArray) -> tuple[IntArray, IntArray]:
    """Concatenated neighbour lists of ``nodes`` plus the repeated sources.

    Returns ``(targets, sources)`` where ``targets[k]`` is a neighbour of
    ``sources[k]``.  Duplicates are *not* removed — callers that need the
    multiplicity (e.g. collision counting) rely on that.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    targets, lens = neighbor_targets(adj, nodes)
    if targets.size == 0:
        return targets, np.empty(0, dtype=np.int64)
    return targets, np.repeat(nodes, lens)


def _expand_frontier(adj: Adjacency, seen: IntArray, frontier: IntArray) -> IntArray:
    """The unseen neighbours of ``frontier``, each listed once.

    ``seen`` is a per-node ``int64`` array in which ``-1`` means unseen;
    it is the visited mask that drops seen targets and the scratch that
    dedupes the rest, so the cost is linear in the frontier's edges and
    nothing is sorted.  The returned nodes hold scratch values (below
    ``-1``) until the caller marks them.
    """
    targets, _ = neighbor_targets(adj, frontier)
    targets = targets[seen[targets] == -1]
    # Each unseen node keeps one of its slots; the occurrence that reads
    # its own slot back is the one that joins the next frontier.
    slot = -2 - np.arange(targets.size, dtype=np.int64)
    seen[targets] = slot
    return targets[seen[targets] == slot]


def bfs_distances(adj: Adjacency, source: int) -> IntArray:
    """Hop distance from ``source`` to every node (``-1`` if unreachable)."""
    n = adj.n
    if not 0 <= source < n:
        raise GraphError(f"source {source} out of range [0, {n})")
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    d = 0
    while frontier.size:
        frontier = _expand_frontier(adj, dist, frontier)
        d += 1
        dist[frontier] = d
    return dist


def bfs_tree(adj: Adjacency, source: int) -> tuple[IntArray, IntArray]:
    """BFS tree: ``(dist, parent)`` arrays.

    ``parent[v]`` is the BFS parent of ``v`` (the lowest-id neighbour one
    layer closer to the source); ``-1`` for the source and unreachable
    nodes.
    """
    n = adj.n
    if not 0 <= source < n:
        raise GraphError(f"source {source} out of range [0, {n})")
    dist = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    d = 0
    while frontier.size:
        targets, sources = gather_neighbors(adj, frontier)
        if targets.size == 0:
            break
        # One (target, source) pair per distinct target, smallest source id.
        order = np.lexsort((sources, targets))
        targets, sources = targets[order], sources[order]
        first = np.ones(targets.size, dtype=bool)
        first[1:] = targets[1:] != targets[:-1]
        targets, sources = targets[first], sources[first]
        newmask = dist[targets] < 0
        new, par = targets[newmask], sources[newmask]
        d += 1
        dist[new] = d
        parent[new] = par
        frontier = new
    return dist, parent


def bfs_layers_list(adj: Adjacency, source: int) -> list[IntArray]:
    """Layers ``T_0(u), T_1(u), ...`` as sorted node arrays.

    Only reachable nodes appear; ``T_0`` is ``[source]``.
    """
    dist = bfs_distances(adj, source)
    reached = dist >= 0
    if not np.any(reached):
        return []
    depth = int(dist[reached].max())
    return [np.flatnonzero(dist == i).astype(np.int64) for i in range(depth + 1)]
