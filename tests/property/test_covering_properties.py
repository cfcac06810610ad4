"""Property-based tests for covers and matchings (hypothesis).

Proposition 2 is a universally quantified statement ("*every* minimal
covering yields an independent matching of the same size") — exactly the
shape property-based testing handles: we verify the constructive proof on
arbitrary random bipartite instances.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs import gnp
from repro.rng import as_generator
from repro.graphs.covering import (
    cover_counts,
    greedy_independent_cover,
    greedy_independent_matching,
    independent_matching_from_covering,
    is_covering,
    is_independent_matching,
    is_minimal_covering,
    minimal_covering,
)

instance = st.tuples(
    st.integers(min_value=4, max_value=40),  # n
    st.floats(min_value=0.1, max_value=0.9),  # p
    st.integers(min_value=0, max_value=10_000),  # seed
    st.floats(min_value=0.2, max_value=0.8),  # split point
)


def make_instance(params):
    n, p, seed, split = params
    g = gnp(n, p, seed=seed)
    cut = max(1, min(n - 1, int(split * n)))
    X = np.arange(0, cut, dtype=np.int64)
    Y = np.arange(cut, n, dtype=np.int64)
    return g, X, Y


# Candidate and target sets drawn independently: they may overlap, be
# empty, or hold candidates that reach no target at all.
subsets = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.floats(min_value=0.0, max_value=0.9),
        st.integers(min_value=0, max_value=10_000),
        st.lists(st.integers(0, n - 1), max_size=n),
        st.lists(st.integers(0, n - 1), max_size=n),
    )
)


def reference_minimal_covering(g, candidates, targets):
    """``minimal_covering`` with its per-candidate gain comprehension."""
    candidates = np.unique(np.asarray(candidates, dtype=np.int64))
    targets = np.unique(np.asarray(targets, dtype=np.int64))
    if targets.size == 0:
        return np.empty(0, dtype=np.int64)
    target_mask = np.zeros(g.n, dtype=bool)
    target_mask[targets] = True
    if candidates.size == 0 or np.any(cover_counts(g, candidates, targets) == 0):
        raise GraphError("no covering exists")
    uncovered = target_mask.copy()
    chosen = []
    gains = np.array(
        [int(np.count_nonzero(uncovered[g.neighbors(x)])) for x in candidates],
        dtype=np.int64,
    )
    alive = gains > 0
    while np.any(uncovered):
        while True:
            best = int(np.argmax(np.where(alive, gains, -1)))
            true_gain = int(np.count_nonzero(uncovered[g.neighbors(candidates[best])]))
            if true_gain == gains[best]:
                break
            gains[best] = true_gain
            alive[best] = true_gain > 0
        x = int(candidates[best])
        chosen.append(x)
        uncovered[g.neighbors(x)] = False
        alive[best] = False
        gains[best] = 0
    cover = np.array(sorted(chosen), dtype=np.int64)
    cover_mask = np.zeros(g.n, dtype=bool)
    cover_mask[cover] = True
    counts = g.neighbor_counts(cover_mask)
    keep = np.ones(cover.size, dtype=bool)
    for k, x in enumerate(cover):
        nbrs = g.neighbors(x)
        mine = nbrs[target_mask[nbrs]]
        if mine.size and np.all(counts[mine] >= 2):
            keep[k] = False
            counts[mine] -= 1
    return cover[keep]


def reference_greedy_independent_cover(g, candidates, targets, seed):
    """``greedy_independent_cover`` with its per-candidate reach comprehension."""
    candidates = np.unique(np.asarray(candidates, dtype=np.int64))
    targets = np.unique(np.asarray(targets, dtype=np.int64))
    empty = np.empty(0, dtype=np.int64)
    if targets.size == 0:
        return empty, empty
    rng = as_generator(seed)
    target_mask = np.zeros(g.n, dtype=bool)
    target_mask[targets] = True
    counts = np.zeros(g.n, dtype=np.int64)
    reach = np.array(
        [int(np.count_nonzero(target_mask[g.neighbors(x)])) for x in candidates],
        dtype=np.int64,
    )
    order = np.lexsort((rng.random(candidates.size), -reach))
    chosen = []
    for k in order:
        if reach[k] == 0:
            break
        x = int(candidates[k])
        mine = g.neighbors(x)[target_mask[g.neighbors(x)]]
        if np.count_nonzero(counts[mine] == 0) > np.count_nonzero(counts[mine] == 1):
            chosen.append(x)
            counts[mine] += 1
    if not chosen:
        for k in order:
            if reach[k] > 0:
                x = int(candidates[k])
                counts[g.neighbors(x)[target_mask[g.neighbors(x)]]] += 1
                chosen.append(x)
                break
        if not chosen:
            return empty, empty
    return np.array(sorted(chosen), dtype=np.int64), targets[counts[targets] == 1]


class TestVectorisedGains:
    """The candidates' gains come from one ``neighbor_counts`` call; the
    results match the per-candidate comprehension exactly."""

    @given(subsets)
    @settings(max_examples=150, deadline=None)
    def test_minimal_covering_matches_reference(self, params):
        n, p, seed, candidates, targets = params
        g = gnp(n, p, seed=seed)
        try:
            expected = reference_minimal_covering(g, candidates, targets)
        except GraphError:
            with pytest.raises(GraphError):
                minimal_covering(g, candidates, targets)
            return
        got = minimal_covering(g, candidates, targets)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    @given(subsets)
    @settings(max_examples=150, deadline=None)
    def test_greedy_independent_cover_matches_reference(self, params):
        n, p, seed, candidates, targets = params
        g = gnp(n, p, seed=seed)
        cover, informed = greedy_independent_cover(g, candidates, targets, seed=seed)
        ref_cover, ref_informed = reference_greedy_independent_cover(
            g, candidates, targets, seed
        )
        assert np.array_equal(cover, ref_cover) and cover.dtype == ref_cover.dtype
        assert np.array_equal(informed, ref_informed)

    def test_empty_targets_and_zero_reach(self):
        g = gnp(12, 0.0, seed=0)  # no edges: every candidate reaches nothing
        cover, informed = greedy_independent_cover(g, [0, 1, 2], [5, 6], seed=0)
        assert cover.size == 0 and informed.size == 0
        cover, informed = greedy_independent_cover(g, [0, 1, 2], [], seed=0)
        assert cover.size == 0 and informed.size == 0
        assert minimal_covering(g, [0, 1], []).size == 0
        with pytest.raises(GraphError):
            minimal_covering(g, [0, 1], [5])


class TestMinimalCovering:
    @given(instance)
    @settings(max_examples=100, deadline=None)
    def test_output_is_minimal_covering_or_none_exists(self, params):
        g, X, Y = make_instance(params)
        try:
            cover = minimal_covering(g, X, Y)
        except GraphError:
            # Legitimately no covering: some y has no neighbour in X.
            counts = cover_counts(g, X, Y) if X.size else np.zeros(Y.size)
            assert X.size == 0 or np.any(counts == 0)
            return
        assert is_covering(g, cover, Y)
        assert is_minimal_covering(g, cover, Y)
        assert np.all(np.isin(cover, X))


class TestProposition2:
    @given(instance)
    @settings(max_examples=100, deadline=None)
    def test_minimal_cover_yields_full_matching(self, params):
        g, X, Y = make_instance(params)
        try:
            cover = minimal_covering(g, X, Y)
        except GraphError:
            assume(False)  # no covering on this instance
        pairs = independent_matching_from_covering(g, cover, Y)
        # Proposition 2: matching size equals cover size, and it is
        # genuinely independent.
        assert pairs.shape[0] == cover.size
        assert is_independent_matching(g, pairs)
        assert np.all(np.isin(pairs[:, 0], cover))
        assert np.all(np.isin(pairs[:, 1], Y))


class TestGreedyIndependentCover:
    @given(instance)
    @settings(max_examples=100, deadline=None)
    def test_informed_hear_exactly_one(self, params):
        g, X, Y = make_instance(params)
        cover, informed = greedy_independent_cover(g, X, Y, seed=0)
        assert np.all(np.isin(cover, X))
        assert np.all(np.isin(informed, Y))
        if informed.size:
            assert np.all(cover_counts(g, cover, informed) == 1)

    @given(instance)
    @settings(max_examples=60, deadline=None)
    def test_progress_when_cover_possible(self, params):
        g, X, Y = make_instance(params)
        reachable = (
            np.any(cover_counts(g, X, Y) > 0) if X.size and Y.size else False
        )
        _, informed = greedy_independent_cover(g, X, Y, seed=0)
        if reachable:
            assert informed.size >= 1  # guaranteed progress
        else:
            assert informed.size == 0


class TestGreedyIndependentMatching:
    @given(instance)
    @settings(max_examples=100, deadline=None)
    def test_always_independent(self, params):
        g, X, Y = make_instance(params)
        pairs = greedy_independent_matching(g, X, Y, seed=0)
        assert is_independent_matching(g, pairs)

    @given(instance)
    @settings(max_examples=60, deadline=None)
    def test_maximality(self, params):
        # No unmatched (x, y) edge can be added without violating
        # independence — the greedy result is maximal.
        g, X, Y = make_instance(params)
        pairs = greedy_independent_matching(g, X, Y, seed=0)
        used = set(int(v) for v in pairs.ravel())
        xs = set(int(x) for x in pairs[:, 0])
        ys = set(int(y) for y in pairs[:, 1])
        for y in Y:
            if int(y) in used:
                continue
            # y blocked if adjacent to a matched x.
            if any(int(nb) in xs for nb in g.neighbors(int(y))):
                continue
            for x in g.neighbors(int(y)):
                x = int(x)
                if x not in set(int(i) for i in X) or x in used:
                    continue
                if any(int(nb) in ys for nb in g.neighbors(x)):
                    continue
                raise AssertionError(
                    f"pair ({x}, {int(y)}) could extend the matching"
                )
