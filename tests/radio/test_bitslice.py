"""Tests for the bit-sliced batched reception kernel and its gate.

The kernel is differential-tested, column by column, against the
pure-Python transcription of the model (:meth:`RadioNetwork.step_reference`)
on arbitrary graphs and masks, called directly rather than through the
gate: the other property suites run on graphs the gate never routes to
bits.  The gate is tested as the pure function it is, and multi-trial
runs are checked against traced runs on a graph it does route to bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.distributed import DecayProtocol, EGRandomizedProtocol, UniformProtocol
from repro.graphs import Adjacency, chung_lu, gnp, gnp_connected, powerlaw_weights
from repro.obs import MetricsRegistry, Observer, use_observer
from repro.radio import RadioNetwork, run_broadcast_batch
from repro.radio.bitslice import bits_path_pays, bitsliced_reception, scatter_work

from .test_batch import simulated_times


def graphs():
    """G(n, p) (isolated nodes included), heavy-tailed Chung–Lu, edgeless."""
    return st.one_of(
        st.builds(
            lambda n, p, seed: gnp(n, p, seed=seed),
            st.integers(min_value=1, max_value=30),
            st.floats(min_value=0.0, max_value=0.8),
            st.integers(min_value=0, max_value=10_000),
        ),
        st.builds(
            lambda n, exponent, degree, seed: chung_lu(
                powerlaw_weights(n, exponent, degree), seed=seed
            ),
            st.integers(min_value=2, max_value=30),
            st.floats(min_value=2.05, max_value=3.0),
            st.floats(min_value=0.5, max_value=6.0),
            st.integers(min_value=0, max_value=10_000),
        ),
        st.builds(Adjacency.empty, st.integers(min_value=1, max_value=12)),
    )


def masks(adj, reps, mode, density, seed):
    if mode == "empty":
        return np.zeros((reps, adj.n), dtype=bool)
    if mode == "full":
        return np.ones((reps, adj.n), dtype=bool)
    return np.random.default_rng(seed).random((reps, adj.n)) < density


class TestKernelAgainstReference:
    @given(
        graphs(),
        st.integers(min_value=1, max_value=130),  # R, across the 64-bit word boundary
        st.sampled_from(["random", "random", "empty", "full"]),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_columns_equal_reference(self, adj, reps, mode, density, seed):
        rows = masks(adj, reps, mode, density, seed)
        received, collided = bitsliced_reception(adj, rows, with_collided=True)
        assert received.shape == collided.shape == (reps, adj.n)
        assert received.flags.c_contiguous and collided.flags.c_contiguous
        net = RadioNetwork(adj)
        for r in range(reps):
            ref = net.step_reference(rows[r], rows[r])
            assert np.array_equal(received[r], ref.received)
            assert np.array_equal(collided[r], ref.collided)

    @pytest.mark.parametrize("reps", [63, 64, 65, 129])
    def test_word_boundaries_on_padded_rows(self, reps):
        # n = 203 is not a multiple of 8, and G(203, 0.01) has isolated
        # nodes; the batched counts kernel is the oracle here.
        adj = gnp(203, 0.01, seed=5)
        assert adj.min_degree == 0
        rows = np.random.default_rng(reps).random((reps, adj.n)) < 0.2
        received, collided = bitsliced_reception(adj, rows)
        counts = adj.neighbor_counts_batch(rows.T).T
        assert np.array_equal(received, ~rows & (counts == 1))
        assert np.array_equal(collided, ~rows & (counts >= 2))
        without = bitsliced_reception(adj, rows, with_collided=False)
        assert without[1] is None and np.array_equal(without[0], received)
        assert scatter_work(adj, rows) == int((rows * adj.degrees).sum())

    def test_strided_rows_are_accepted(self):
        adj = gnp(64, 0.1, seed=2)
        columns = np.random.default_rng(0).random((adj.n, 9)) < 0.3
        received, _ = bitsliced_reception(adj, columns.T)
        counts = adj.neighbor_counts_batch(columns).T
        assert np.array_equal(received, ~columns.T & (counts == 1))


class TestGate:
    """``bits_path_pays`` is a pure function of ``(nnz, max_degree, n, R, work)``."""

    # G(20000, 2 ln n / n) and a Chung–Lu graph of the same size.
    GNP = dict(nnz=395_588, max_degree=40, n=20_000)
    HEAVY = dict(nnz=362_886, max_degree=8_042, n=20_000)

    @given(
        st.integers(min_value=0, max_value=10**7),
        st.integers(min_value=0, max_value=10**4),
        st.integers(min_value=1, max_value=10**5),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=0, max_value=10**8),
        st.integers(min_value=0, max_value=10**8),
    )
    def test_monotone_in_work(self, nnz, max_degree, n, reps, work, extra):
        if bits_path_pays(nnz, max_degree, n, reps, work):
            assert bits_path_pays(nnz, max_degree, n, reps, work + extra)

    def test_sweep_graph_routes_dense_rounds_to_bits(self):
        # R = 32 trials at 5 % transmitters: about 632k endpoints.
        assert bits_path_pays(**self.GNP, repetitions=32, work=632_000)
        assert not bits_path_pays(**self.GNP, repetitions=32, work=13_000)

    def test_many_slots_keep_the_counts_kernel(self):
        # Thousands of neighbour slots cost more than the scatter saves.
        assert not bits_path_pays(**self.HEAVY, repetitions=32, work=565_000)

    def test_small_graphs_keep_the_counts_kernel(self):
        # G(256, 2 ln n / n), every node of every trial transmitting.
        assert not bits_path_pays(2_790, 21, 256, 8, 2_790 * 8)

    def test_second_word_raises_the_bar(self):
        # G(4096, 2 ln n / n): a 65th trial adds a second pass over nnz.
        gnp4096 = dict(nnz=67_906, max_degree=33, n=4_096)
        assert bits_path_pays(**gnp4096, repetitions=64, work=50_000)
        assert not bits_path_pays(**gnp4096, repetitions=65, work=50_000)

    def test_deterministic(self):
        args = (395_588, 40, 20_000, 32, 60_000)
        assert len({bits_path_pays(*args) for _ in range(5)}) == 1


@pytest.fixture(scope="module")
def bits_graph():
    n = 4096
    p = 2 * np.log(n) / n
    return RadioNetwork(gnp_connected(n, p, seed=1)), p


BITS_PROTOCOLS = [
    # Uniform at 2/d, not 1/d: at 1/d too few nodes transmit at n = 4096
    # for the gate to pick bits.
    pytest.param(lambda n, p: UniformProtocol(2.0 / (p * (n - 1))), id="uniform"),
    pytest.param(lambda n, p: DecayProtocol(n), id="decay"),
    pytest.param(lambda n, p: EGRandomizedProtocol(n, p), id="eg"),
]


class TestLockstepOnBitsPath:
    @pytest.mark.parametrize("factory", BITS_PROTOCOLS)
    def test_batch_matches_serial(self, bits_graph, factory):
        net, p = bits_graph
        proto = factory(net.n, p)
        batch = run_broadcast_batch(net, proto, repetitions=16, p=p, seed=7)
        serial = simulated_times(net, proto, repetitions=16, seed=7, p=p)
        assert np.array_equal(batch.completion_rounds, serial)
        # Observed, the driver also asks for the collided sets.
        registry = MetricsRegistry()
        with use_observer(Observer(registry, None)):
            observed = run_broadcast_batch(net, proto, repetitions=16, p=p, seed=7)
        assert np.array_equal(observed.completion_rounds, serial)
        bits_calls = registry.counters()[("kernel.batch_calls", "bits")]
        assert bits_calls > 0
        assert registry.histogram("kernel.batch_wall_s", label="bits").count == bits_calls
