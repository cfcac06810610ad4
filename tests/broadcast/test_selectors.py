"""Unit tests for selective families and the family-driven protocol."""

import numpy as np
import pytest

from repro import simulate
from repro.broadcast.selectors import (
    SelectiveFamilyProtocol,
    find_violating_subset,
    random_selective_family,
    verify_selective,
)
from repro.errors import InvalidParameterError
from repro.graphs import balanced_tree, cycle_graph, gnp_connected, path_graph
from repro.radio import RadioNetwork


class TestConstruction:
    def test_k1_is_single_full_set(self):
        fam = random_selective_family(10, 1, seed=0)
        assert len(fam) == 1
        assert list(fam[0]) == list(range(10))

    def test_every_element_covered(self):
        fam = random_selective_family(50, 5, seed=1)
        covered = np.zeros(50, dtype=bool)
        for t in fam:
            covered[t] = True
        assert np.all(covered)

    def test_family_size_scales(self):
        small = random_selective_family(64, 2, seed=2)
        large = random_selective_family(64, 8, seed=2)
        assert len(large) > len(small)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            random_selective_family(0, 1)
        with pytest.raises(InvalidParameterError):
            random_selective_family(10, 0)
        with pytest.raises(InvalidParameterError):
            random_selective_family(10, 11)
        with pytest.raises(InvalidParameterError):
            random_selective_family(10, 2, size_factor=0)


class TestVerification:
    @pytest.mark.parametrize("n,k", [(12, 2), (16, 3), (20, 2)])
    def test_certified_family_is_selective_exhaustive(self, n, k):
        # Small enough for exhaustive verification; certified mode must be
        # exactly selective (the raw construction is only w.h.p.).
        fam = random_selective_family(n, k, seed=3, certified=True)
        assert verify_selective(fam, n, k)

    def test_detects_non_selective_family(self):
        # Family {T} with T = [0, n): any |S| = 2 subset intersects in 2.
        fam = [np.arange(8, dtype=np.int64)]
        witness = find_violating_subset(fam, 8, 2)
        assert witness is not None
        assert witness.size == 2

    def test_singleton_family_selects_singletons(self):
        fam = [np.array([v]) for v in range(6)]
        assert verify_selective(fam, 6, 1)

    def test_monte_carlo_path(self):
        # Large (n, k): forces the sampling branch.
        fam = random_selective_family(300, 6, seed=4)
        assert verify_selective(fam, 300, 6, samples=500, seed=5)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            find_violating_subset([], 0, 1)


class TestProtocol:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            SelectiveFamilyProtocol(0, [np.array([0])])
        with pytest.raises(InvalidParameterError):
            SelectiveFamilyProtocol(5, [])
        with pytest.raises(InvalidParameterError):
            SelectiveFamilyProtocol(5, [np.array([7])])
        with pytest.raises(InvalidParameterError):
            SelectiveFamilyProtocol(5, [np.array([0])]).prepare(6, None, 0)

    def test_cycles_through_family(self, rng):
        fam = [np.array([0]), np.array([1, 2])]
        proto = SelectiveFamilyProtocol(4, fam)
        assert proto.cycle_length == 2
        informed = np.ones(4, dtype=bool)
        ir = np.zeros(4, dtype=np.int64)
        m1 = proto.transmit_mask(1, informed, ir, rng)
        m2 = proto.transmit_mask(2, informed, ir, rng)
        m3 = proto.transmit_mask(3, informed, ir, rng)
        assert list(np.flatnonzero(m1)) == [0]
        assert sorted(np.flatnonzero(m2)) == [1, 2]
        assert np.array_equal(m1, m3)

    def test_deterministic_broadcast_on_bounded_degree(self):
        # Max degree 2 (cycle): a 2-selective family must complete.
        g = cycle_graph(20)
        fam = random_selective_family(20, 3, seed=6)
        assert verify_selective(fam, 20, 3)
        proto = SelectiveFamilyProtocol(20, fam)
        trace = simulate(
            "broadcast", RadioNetwork(g), protocol=proto, source=0, seed=0,
            max_rounds=len(fam) * 30,
        )
        assert trace.completed

    def test_completes_on_tree(self):
        g = balanced_tree(3, 3)  # max degree 4
        n = g.n
        fam = random_selective_family(n, 5, seed=7)
        proto = SelectiveFamilyProtocol(n, fam)
        trace = simulate(
            "broadcast", RadioNetwork(g), protocol=proto, source=0, seed=0,
            max_rounds=len(fam) * 40,
        )
        assert trace.completed

    def test_deterministic_trace(self):
        g = path_graph(12)
        fam = random_selective_family(12, 3, seed=8)
        proto = SelectiveFamilyProtocol(12, fam)
        a = simulate(
            "broadcast", RadioNetwork(g), protocol=proto, source=0, seed=1, max_rounds=2000,
        )
        b = simulate(
            "broadcast", RadioNetwork(g), protocol=proto, source=0, seed=77, max_rounds=2000,
        )
        assert a.completion_round == b.completion_round

    def test_slower_than_randomized_on_gnp(self):
        import math

        n = 256
        p = 4 * math.log(n) / n
        g = gnp_connected(n, p, seed=9)
        net = RadioNetwork(g)
        d = int(p * n)
        fam = random_selective_family(n, 2 * d, seed=10)
        det = simulate(
            "broadcast", net, protocol=SelectiveFamilyProtocol(n, fam), source=0, seed=0,
            max_rounds=len(fam) * 50,
        ).completion_round
        from repro.broadcast.distributed import EGRandomizedProtocol

        rand = simulate(
            "broadcast", net, protocol=EGRandomizedProtocol(n, p), source=0, seed=0, p=p,
        ).completion_round
        assert det > rand

    def test_repr(self):
        assert "cycle" in repr(SelectiveFamilyProtocol(5, [np.array([0])]))
