"""Coverings and independent matchings (Definition 1, Proposition 2, Lemma 4).

Terminology, following the paper's Definition 1 for a bipartite relation
between a transmitter pool ``X`` and a target set ``Y`` (here both are node
subsets of one graph, related by adjacency):

* ``S ⊆ X`` is a **covering** of ``Y`` if every ``y ∈ Y`` has a neighbour
  in ``S``.
* A covering is **minimal** if no proper subset still covers ``Y``.
* ``S`` is an **independent covering** of ``Y`` if every ``y ∈ Y`` has
  *exactly one* neighbour in ``S`` — exactly the sets that inform all of
  ``Y`` in a single radio round.
* ``F`` is an **independent matching** if it is a matching and no edge of
  the graph joins distinct pairs of ``F``.

Proposition 2 (constructive here): every minimal covering of ``Y`` of size
``k`` yields an independent matching of size ``k`` — each ``x`` in a
minimal covering privately covers some ``y`` (else ``x`` were redundant).

Lemma 4 is probabilistic: between large random disjoint sets an independent
covering of a constant fraction of ``Y`` exists w.h.p., and an independent
matching of the whole of ``Y`` when ``|X|/|Y| = Ω(d²)``.  The greedy
constructions below realise those objects in practice and power both the
Theorem 5 scheduler's cleanup phase and experiment E9.
"""

from __future__ import annotations

import numpy as np

from .._typing import BoolArray, IntArray, SeedLike
from ..errors import GraphError, InvalidParameterError
from ..rng import as_generator
from .adjacency import Adjacency

__all__ = [
    "cover_counts",
    "is_covering",
    "is_minimal_covering",
    "is_independent_covering",
    "is_independent_matching",
    "minimal_covering",
    "greedy_independent_cover",
    "independent_matching_from_covering",
    "greedy_independent_matching",
    "random_fraction_cover",
]


def _as_nodes(adj: Adjacency, nodes, name: str) -> IntArray:
    arr = np.unique(np.asarray(nodes, dtype=np.int64))
    if arr.size and (arr[0] < 0 or arr[-1] >= adj.n):
        raise GraphError(f"{name} contains node ids outside [0, {adj.n})")
    return arr


def _mask(n: int, nodes: IntArray) -> BoolArray:
    m = np.zeros(n, dtype=bool)
    m[nodes] = True
    return m


def cover_counts(adj: Adjacency, transmitters: IntArray, targets: IntArray) -> IntArray:
    """For each node of ``targets``, its number of neighbours in ``transmitters``."""
    transmitters = _as_nodes(adj, transmitters, "transmitters")
    targets = _as_nodes(adj, targets, "targets")
    return adj.neighbor_counts(_mask(adj.n, transmitters))[targets]


def is_covering(adj: Adjacency, cover: IntArray, targets: IntArray) -> bool:
    """True iff every target has at least one neighbour in ``cover``."""
    targets = np.asarray(targets, dtype=np.int64)
    if targets.size == 0:
        return True
    return bool(np.all(cover_counts(adj, cover, targets) >= 1))


def is_independent_covering(adj: Adjacency, cover: IntArray, targets: IntArray) -> bool:
    """True iff every target has *exactly one* neighbour in ``cover``."""
    targets = np.asarray(targets, dtype=np.int64)
    if targets.size == 0:
        return True
    return bool(np.all(cover_counts(adj, cover, targets) == 1))


def is_minimal_covering(adj: Adjacency, cover: IntArray, targets: IntArray) -> bool:
    """True iff ``cover`` covers ``targets`` and no element is redundant."""
    cover = _as_nodes(adj, cover, "cover")
    if not is_covering(adj, cover, targets):
        return False
    targets = _as_nodes(adj, targets, "targets")
    counts = adj.neighbor_counts(_mask(adj.n, cover))
    # x is redundant iff every target neighbour of x has another cover
    # neighbour; equivalently x privately covers no target.
    target_mask = _mask(adj.n, targets)
    for x in cover:
        nbrs = adj.neighbors(x)
        mine = nbrs[target_mask[nbrs]]
        if mine.size == 0 or np.all(counts[mine] >= 2):
            return False
    return True


def minimal_covering(
    adj: Adjacency, candidates: IntArray, targets: IntArray
) -> IntArray:
    """Greedy set cover of ``targets`` from ``candidates``, pruned to minimal.

    Raises :class:`GraphError` when some target has no neighbour in
    ``candidates`` (no covering exists).  The greedy phase picks the
    candidate covering the most uncovered targets; the pruning phase then
    removes redundant picks so the result satisfies the paper's minimality
    definition (needed for Proposition 2).
    """
    candidates = _as_nodes(adj, candidates, "candidates")
    targets = _as_nodes(adj, targets, "targets")
    if targets.size == 0:
        return np.empty(0, dtype=np.int64)
    target_mask = _mask(adj.n, targets)
    if candidates.size == 0 or np.any(cover_counts(adj, candidates, targets) == 0):
        raise GraphError("no covering exists: some target has no candidate neighbour")

    uncovered = target_mask.copy()
    chosen: list[int] = []
    # Greedy: residual gain per candidate, recomputed lazily with a max-heap
    # style pass.  Candidate pools in our workloads are modest (schedule
    # cleanup, Lemma 4 experiments), so a simple argmax loop suffices.
    gains = adj.neighbor_counts(target_mask)[candidates]
    alive = gains > 0
    while np.any(uncovered):
        # Lazy refresh: re-evaluate the current best until stable.
        while True:
            best = int(np.argmax(np.where(alive, gains, -1)))
            if not alive[best]:
                raise GraphError("covering construction stalled (internal error)")
            true_gain = int(np.count_nonzero(uncovered[adj.neighbors(candidates[best])]))
            if true_gain == gains[best]:
                break
            gains[best] = true_gain
            alive[best] = true_gain > 0
        x = int(candidates[best])
        chosen.append(x)
        uncovered[adj.neighbors(x)] = False
        alive[best] = False
        gains[best] = 0

    # Prune to a minimal covering: drop any x whose targets are all covered
    # by the rest.
    cover = np.array(sorted(chosen), dtype=np.int64)
    counts = adj.neighbor_counts(_mask(adj.n, cover))
    keep = np.ones(cover.size, dtype=bool)
    for k, x in enumerate(cover):
        nbrs = adj.neighbors(x)
        mine = nbrs[target_mask[nbrs]]
        if mine.size and np.all(counts[mine] >= 2):
            keep[k] = False
            counts[mine] -= 1
    return cover[keep]


def independent_matching_from_covering(
    adj: Adjacency, cover: IntArray, targets: IntArray
) -> IntArray:
    """Proposition 2, constructively: minimal covering → independent matching.

    For each ``x`` in a *minimal* covering there is a target privately
    covered by ``x`` (covered by no other cover element); pairing each ``x``
    with one such private target yields an independent matching of size
    ``|cover|``.  Returns a ``(k, 2)`` array of ``(x, y)`` pairs.

    Raises :class:`GraphError` when ``cover`` is not a minimal covering.
    """
    cover = _as_nodes(adj, cover, "cover")
    targets = _as_nodes(adj, targets, "targets")
    target_mask = _mask(adj.n, targets)
    counts = adj.neighbor_counts(_mask(adj.n, cover))
    pairs = np.empty((cover.size, 2), dtype=np.int64)
    for k, x in enumerate(cover):
        nbrs = adj.neighbors(x)
        private = nbrs[target_mask[nbrs] & (counts[nbrs] == 1)]
        if private.size == 0:
            raise GraphError(
                f"cover element {int(x)} has no privately covered target; "
                "the covering is not minimal"
            )
        pairs[k] = (x, private[0])
    if not is_covering(adj, cover, targets):
        raise GraphError("input does not cover the targets")
    return pairs


def is_independent_matching(adj: Adjacency, pairs: np.ndarray) -> bool:
    """Check the paper's Definition 1 for an independent matching.

    ``pairs`` is ``(k, 2)``; requires all ``(x_i, y_i)`` to be edges, all
    endpoints distinct, and no edge ``(x_i, y_j)`` for ``i != j``.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.size == 0:
        return True
    xs, ys = pairs[:, 0], pairs[:, 1]
    nodes = np.concatenate([xs, ys])
    if np.unique(nodes).size != nodes.size:
        return False
    for x, y in pairs:
        if not adj.has_edge(int(x), int(y)):
            return False
    ymask = _mask(adj.n, ys)
    x_to_y = adj.neighbor_counts(ymask)
    # Each x may touch exactly its own partner among the matched ys.
    if np.any(x_to_y[xs] != 1):
        return False
    xmask = _mask(adj.n, xs)
    y_to_x = adj.neighbor_counts(xmask)
    return bool(np.all(y_to_x[ys] == 1))


def greedy_independent_cover(
    adj: Adjacency,
    candidates: IntArray,
    targets: IntArray,
    *,
    seed: SeedLike = None,
) -> tuple[IntArray, IntArray]:
    """One radio round's worth of collision-aware transmitters.

    Builds ``S ⊆ candidates`` so that many targets hear exactly one element
    of ``S``.  Greedy sweep in descending target-degree order; a candidate
    joins ``S`` when the targets it newly covers outnumber the
    singly-covered targets it would collide.  Guarantees progress whenever
    some target has a candidate neighbour (falls back to a single
    transmitter covering one target).

    Returns ``(S, informed)`` where ``informed`` are the targets with
    exactly one neighbour in ``S``.  This is the cleanup primitive of the
    Theorem 5 scheduler: on ``G(n, p)`` it informs a constant fraction of
    the targets per round, as Lemma 4 promises for random sets.
    """
    candidates = _as_nodes(adj, candidates, "candidates")
    targets = _as_nodes(adj, targets, "targets")
    if targets.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    rng = as_generator(seed)
    target_mask = _mask(adj.n, targets)
    counts = np.zeros(adj.n, dtype=np.int64)  # hits per target from S
    # Order candidates by how many targets they reach, descending; random
    # tie-break keeps repeated rounds from reusing identical sets.
    reach = adj.neighbor_counts(target_mask)[candidates]
    order = np.lexsort((rng.random(candidates.size), -reach))
    chosen: list[int] = []
    for k in order:
        if reach[k] == 0:
            break
        x = int(candidates[k])
        nbrs = adj.neighbors(x)
        mine = nbrs[target_mask[nbrs]]
        gain = int(np.count_nonzero(counts[mine] == 0))
        loss = int(np.count_nonzero(counts[mine] == 1))
        if gain > loss:
            chosen.append(x)
            counts[mine] += 1
    if not chosen:
        # Fallback: a single transmitter informing at least one target.
        for k in order:
            if reach[k] > 0:
                x = int(candidates[k])
                nbrs = adj.neighbors(x)
                mine = nbrs[target_mask[nbrs]]
                counts[mine] += 1
                chosen.append(x)
                break
        if not chosen:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    cover = np.array(sorted(chosen), dtype=np.int64)
    informed = targets[counts[targets] == 1]
    return cover, informed


def greedy_independent_matching(
    adj: Adjacency,
    left: IntArray,
    right: IntArray,
    *,
    seed: SeedLike = None,
) -> IntArray:
    """Greedy maximal independent matching between ``left`` and ``right``.

    Scans ``right`` in random order; a pair ``(x, y)`` is added when neither
    endpoint is adjacent to any previously matched partner on the other
    side.  Used by experiment E9 to measure how large an independent
    matching actually is versus Lemma 4's ``|Y|`` guarantee.

    Returns a ``(k, 2)`` array of ``(x, y)`` pairs.
    """
    left = _as_nodes(adj, left, "left")
    right = _as_nodes(adj, right, "right")
    rng = as_generator(seed)
    left_mask = _mask(adj.n, left)
    # adj_to_matched_right[v] = number of matched right-partners adjacent
    # to v (and symmetrically); a candidate is independent iff both are 0.
    adj_to_matched_right = np.zeros(adj.n, dtype=np.int64)
    adj_to_matched_left = np.zeros(adj.n, dtype=np.int64)
    used = np.zeros(adj.n, dtype=bool)
    pairs: list[tuple[int, int]] = []
    for y in rng.permutation(right):
        y = int(y)
        if used[y] or adj_to_matched_left[y] != 0:
            continue
        nbrs = adj.neighbors(y)
        cands = nbrs[left_mask[nbrs] & ~used[nbrs] & (adj_to_matched_right[nbrs] == 0)]
        if cands.size == 0:
            continue
        x = int(cands[0])
        pairs.append((x, y))
        used[x] = used[y] = True
        adj_to_matched_right[adj.neighbors(y)] += 1
        adj_to_matched_left[adj.neighbors(x)] += 1
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def random_fraction_cover(
    adj: Adjacency,
    pool: IntArray,
    fraction: float,
    *,
    seed: SeedLike = None,
    exclude: IntArray | None = None,
) -> IntArray:
    """Uniform random subset of ``pool`` of expected size ``fraction * |pool|``.

    The Theorem 5 proof uses fresh random ``1/d`` fractions of the informed
    set per round; ``exclude`` removes nodes already used in earlier rounds
    so the chosen sets stay disjoint, as the proof requires.
    """
    if not 0.0 <= fraction <= 1.0:
        raise InvalidParameterError(f"fraction must lie in [0, 1], got {fraction}")
    pool = _as_nodes(adj, pool, "pool")
    if exclude is not None and len(exclude):
        pool = np.setdiff1d(pool, np.asarray(exclude, dtype=np.int64), assume_unique=False)
    rng = as_generator(seed)
    pick = rng.random(pool.size) < fraction
    return pool[pick]
