"""Unit tests for the radio round kernel (collision semantics)."""

import math
import threading

import numpy as np
import pytest

from repro.errors import GraphError, SimulationError
from repro.graphs import Adjacency, gnp_connected
from repro.radio import RadioNetwork
from repro.radio.model import gather_pays


def masks(n, transmit, informed):
    t = np.zeros(n, dtype=bool)
    t[list(transmit)] = True
    i = np.zeros(n, dtype=bool)
    i[list(informed)] = True
    return t, i


class TestConstruction:
    def test_basic(self, path5):
        net = RadioNetwork(path5)
        assert net.n == 5
        assert "n=5" in repr(net)

    def test_rejects_empty(self):
        with pytest.raises(GraphError):
            RadioNetwork(Adjacency.empty(0))


class TestReceptionRule:
    def test_single_transmitter_delivers(self, path5):
        net = RadioNetwork(path5)
        t, i = masks(5, {0}, {0})
        res = net.step(t, i)
        assert list(res.newly_informed) == [1]
        assert res.num_transmitters == 1
        assert res.num_collided == 0

    def test_two_transmitters_collide(self, triangle):
        # Nodes 0 and 1 both transmit; node 2 hears both -> collision.
        net = RadioNetwork(triangle)
        t, i = masks(3, {0, 1}, {0, 1})
        res = net.step(t, i)
        assert res.num_new == 0
        assert res.collided[2]
        assert res.num_collided == 1

    def test_transmitter_does_not_receive(self, path5):
        # 0 and 2 transmit; node 1 hears both (collision); node 3 hears 2.
        net = RadioNetwork(path5)
        t, i = masks(5, {0, 2}, {0, 2})
        res = net.step(t, i)
        assert list(res.newly_informed) == [3]
        assert res.collided[1]

    def test_uninformed_transmitter_delivers_nothing(self, path5):
        # Node 1 transmits but is uninformed: neighbours get no message.
        net = RadioNetwork(path5)
        t, i = masks(5, {1}, {0})
        res = net.step(t, i)
        assert res.num_new == 0
        assert not np.any(res.received)

    def test_uninformed_transmitter_still_blocks(self, path5):
        # 0 (informed) and 2 (uninformed) transmit: their common neighbour
        # 1 sees two transmissions -> collision despite one being noise.
        net = RadioNetwork(path5)
        t, i = masks(5, {0, 2}, {0})
        res = net.step(t, i)
        assert res.collided[1]
        assert res.num_new == 0

    def test_star_collision_storm(self, star10):
        # All 9 leaves transmit: hub collides.
        net = RadioNetwork(star10)
        t, i = masks(10, set(range(1, 10)), set(range(1, 10)))
        res = net.step(t, i)
        assert res.collided[0]
        assert res.num_new == 0

    def test_star_hub_informs_all(self, star10):
        net = RadioNetwork(star10)
        t, i = masks(10, {0}, {0})
        res = net.step(t, i)
        assert res.num_new == 9

    def test_received_includes_already_informed(self, path5):
        # Node 1 transmits; node 0 already informed but still "receives".
        net = RadioNetwork(path5)
        t, i = masks(5, {1}, {0, 1})
        res = net.step(t, i)
        assert res.received[0]
        assert list(res.newly_informed) == [2]

    def test_no_transmitters(self, path5):
        net = RadioNetwork(path5)
        t, i = masks(5, set(), {0})
        res = net.step(t, i)
        assert res.num_new == 0
        assert res.num_transmitters == 0
        assert not np.any(res.collided)

    def test_mask_validation(self, path5):
        net = RadioNetwork(path5)
        good = np.zeros(5, dtype=bool)
        with pytest.raises(SimulationError):
            net.step(np.zeros(4, dtype=bool), good)
        with pytest.raises(SimulationError):
            net.step(np.zeros(5, dtype=int), good)


class TestReferenceAgreement:
    @pytest.mark.parametrize("seed", range(6))
    def test_vectorized_matches_reference(self, gnp_small, seed):
        net = RadioNetwork(gnp_small)
        rng = np.random.default_rng(seed)
        informed = rng.random(net.n) < 0.4
        informed[0] = True
        transmitting = (rng.random(net.n) < 0.2) & informed
        # Also mix in some uninformed transmitters (noise) half the time.
        if seed % 2:
            transmitting |= rng.random(net.n) < 0.05
        a = net.step(transmitting, informed)
        b = net.step_reference(transmitting, informed)
        assert np.array_equal(a.received, b.received)
        assert np.array_equal(a.newly_informed, b.newly_informed)
        assert np.array_equal(a.collided, b.collided)
        assert a.num_transmitters == b.num_transmitters

    @pytest.mark.parametrize("seed", range(4))
    def test_unpacked_arrivals_match_packed(self, gnp_small, seed):
        # A graph whose packed sums could overflow int64 (n * max_degree**2
        # near 2**62) takes two matvecs; both give the same (total, sums).
        rng = np.random.default_rng(seed)
        transmitting = rng.random(gnp_small.n) < 0.3
        carrying = transmitting & (rng.random(gnp_small.n) < 0.7)
        packed = RadioNetwork(gnp_small)
        unpacked = RadioNetwork(gnp_small)
        assert packed._shift is not None
        unpacked._shift = None
        for got, want in zip(
            unpacked.arrivals(transmitting, carrying), packed.arrivals(transmitting, carrying)
        ):
            assert np.array_equal(got, want)


class TestReentrancy:
    def test_two_threads_step_one_network(self):
        # Rounds share no scratch state: two threads stepping one network
        # see exactly the single-threaded answers, on both kernel paths.
        n = 4096
        g = gnp_connected(n, 2 * math.log(n) / n, seed=3)
        net = RadioNetwork(g)
        rng = np.random.default_rng(4)
        rounds = []
        for density in (0.002, 0.01, 0.02, 0.3, 0.6, 0.9):
            transmitting = rng.random(n) < density
            informed = transmitting & (rng.random(n) < 0.8)
            rounds.append((transmitting, informed))
        paths = {
            gather_pays(g.indices.size, int(g.degrees[t].sum())) for t, _ in rounds
        }
        assert paths == {True, False}
        want = [net.step(t, i) for t, i in rounds]
        start = threading.Barrier(2)
        mismatches = []

        def worker(order):
            start.wait()
            for _ in range(40):
                for k in order:
                    got = net.step(*rounds[k])
                    if not (
                        np.array_equal(got.received, want[k].received)
                        and np.array_equal(got.informer, want[k].informer)
                        and np.array_equal(got.collided, want[k].collided)
                    ):
                        mismatches.append(k)

        threads = [
            threading.Thread(target=worker, args=(order,))
            for order in (range(len(rounds)), range(len(rounds) - 1, -1, -1))
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert mismatches == []


class TestStepResult:
    def test_counts(self, star10):
        net = RadioNetwork(star10)
        t, i = masks(10, {0}, {0})
        res = net.step(t, i)
        assert res.num_new == 9
        assert res.num_collided == 0
