"""Property-based tests for the radio kernel (hypothesis).

The vectorized kernel is differential-tested against the pure-Python
transcription of the model definition across arbitrary graphs and masks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import chung_lu, gnp, powerlaw_weights, star_graph
from repro.obs import MetricsRegistry, Observer, use_observer
from repro.radio import RadioNetwork, model
from repro.radio.model import GATHER_MIN_NNZ, gather_pays

scenario = st.tuples(
    st.integers(min_value=2, max_value=30),  # n
    st.floats(min_value=0.0, max_value=0.8),  # p
    st.integers(min_value=0, max_value=10_000),  # graph seed
    st.integers(min_value=0, max_value=10_000),  # mask seed
    st.floats(min_value=0.0, max_value=1.0),  # transmit density
    st.floats(min_value=0.0, max_value=1.0),  # informed density
)


class TestKernelAgainstReference:
    @given(scenario)
    @settings(max_examples=120, deadline=None)
    def test_vectorized_equals_reference(self, params):
        n, p, gseed, mseed, tdens, idens = params
        g = gnp(n, p, seed=gseed)
        net = RadioNetwork(g)
        rng = np.random.default_rng(mseed)
        informed = rng.random(n) < idens
        transmitting = rng.random(n) < tdens
        a = net.step(transmitting, informed)
        b = net.step_reference(transmitting, informed)
        assert np.array_equal(a.received, b.received)
        assert np.array_equal(a.collided, b.collided)
        assert np.array_equal(a.newly_informed, b.newly_informed)
        assert np.array_equal(a.informer, b.informer)
        assert a.num_transmitters == b.num_transmitters


class TestModelInvariants:
    @given(scenario)
    @settings(max_examples=80, deadline=None)
    def test_reception_requires_neighboring_transmitter(self, params):
        n, p, gseed, mseed, tdens, idens = params
        g = gnp(n, p, seed=gseed)
        net = RadioNetwork(g)
        rng = np.random.default_rng(mseed)
        informed = rng.random(n) < idens
        transmitting = rng.random(n) < tdens
        res = net.step(transmitting, informed)
        receivers = np.flatnonzero(res.received)
        for w in receivers:
            # A receiver never transmits and has exactly one transmitting
            # neighbour, which is informed.
            assert not transmitting[w]
            senders = [v for v in g.neighbors(w) if transmitting[v]]
            assert len(senders) == 1
            assert informed[senders[0]]

    @given(scenario)
    @settings(max_examples=80, deadline=None)
    def test_collided_and_received_disjoint(self, params):
        n, p, gseed, mseed, tdens, idens = params
        g = gnp(n, p, seed=gseed)
        net = RadioNetwork(g)
        rng = np.random.default_rng(mseed)
        informed = rng.random(n) < idens
        transmitting = rng.random(n) < tdens
        res = net.step(transmitting, informed)
        assert not np.any(res.received & res.collided)
        # Transmitters neither receive nor collide.
        assert not np.any(res.received & transmitting)
        assert not np.any(res.collided & transmitting)

    @given(scenario)
    @settings(max_examples=60, deadline=None)
    def test_newly_informed_subset_of_received(self, params):
        n, p, gseed, mseed, tdens, idens = params
        g = gnp(n, p, seed=gseed)
        net = RadioNetwork(g)
        rng = np.random.default_rng(mseed)
        informed = rng.random(n) < idens
        transmitting = rng.random(n) < tdens
        res = net.step(transmitting, informed)
        assert np.all(res.received[res.newly_informed])
        assert not np.any(informed[res.newly_informed])


def _kernel_graph(kind, n, x, seed):
    """A ``gnp`` graph (isolated nodes at small ``p``) or a heavy-tailed one."""
    if kind == "gnp":
        return gnp(n, 0.5 * x, seed=seed)
    return chung_lu(powerlaw_weights(n, 2.1, 0.5 + 8 * x), seed=seed)


kernel_scenario = st.tuples(
    st.sampled_from(["gnp", "chung_lu"]),
    st.integers(min_value=1, max_value=60),  # n
    st.floats(min_value=0.0, max_value=1.0),  # density knob
    st.integers(min_value=0, max_value=10_000),  # graph seed
    st.integers(min_value=0, max_value=10_000),  # mask seed
    st.sampled_from(["empty", "full", "random"]),  # transmitter mask
    st.floats(min_value=0.0, max_value=1.0),  # transmit density
    st.floats(min_value=0.0, max_value=1.0),  # informed share
)


def _kernel_case(params):
    kind, n, x, gseed, mseed, mode, tdens, ishare = params
    net = RadioNetwork(_kernel_graph(kind, n, x, gseed))
    rng = np.random.default_rng(mseed)
    transmitting = {
        "empty": np.zeros(n, dtype=bool),
        "full": np.ones(n, dtype=bool),
        "random": rng.random(n) < tdens,
    }[mode]
    # Uninformed transmitters (Theorem 6, fault-plan garbage) occupy the
    # channel without carrying the message.
    informed = rng.random(n) < ishare
    return net, transmitting, informed


class TestSerialKernels:
    """The transmitter gather and the matvec, called past the gate."""

    @given(kernel_scenario)
    @settings(max_examples=150, deadline=None)
    def test_gather_equals_matvec(self, params):
        net, transmitting, informed = _kernel_case(params)
        carrying = transmitting & informed
        tx = np.flatnonzero(transmitting)
        gathered = net._gather(tx, carrying)
        for got, want in zip(gathered, net._matvec(transmitting, carrying)):
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)

    @given(kernel_scenario, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_step_on_each_path_equals_reference(self, params, gather):
        net, transmitting, informed = _kernel_case(params)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "gather_pays", lambda nnz, work: gather)
            mp.setattr(net, "_may_gather", gather)
            registry = MetricsRegistry()
            with use_observer(Observer(registry)):
                a = net.step(transmitting, informed)
        path = "gather" if gather else "matvec"
        assert registry.counters() == {("kernel.serial_calls", path): 1.0}
        b = net.step_reference(transmitting, informed)
        for field in ("received", "collided", "newly_informed", "informer"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
        assert a.num_transmitters == b.num_transmitters

    def test_past_float_bound_falls_back(self):
        # A star with 2**18 leaves: its packed sums fit int64 but not the
        # 53-bit float mantissa, so every round takes the matvec although
        # the graph is large enough for the gather.
        net = RadioNetwork(star_graph(2**18 + 1))
        n, nnz = net.n, net.adj.indices.size
        assert net._shift is not None and nnz >= GATHER_MIN_NNZ
        assert not net._may_gather
        transmitting = np.zeros(n, dtype=bool)
        transmitting[[5, 9, 70_000]] = True
        carrying = transmitting.copy()
        carrying[9] = False
        registry = MetricsRegistry()
        with use_observer(Observer(registry)):
            total, sums = net.arrivals(transmitting, carrying)
        assert registry.counters() == {("kernel.serial_calls", "matvec"): 1.0}
        assert total[0] == 3 and sums[0] == 6 + 70_001
        assert not total[1:].any() and not sums[1:].any()


class TestGatherGate:
    @given(
        st.integers(min_value=0, max_value=10**8),
        st.integers(min_value=0, max_value=10**8),
        st.integers(min_value=0, max_value=10**8),
    )
    def test_monotone_in_work(self, nnz, work, extra):
        if gather_pays(nnz, work + extra):
            assert gather_pays(nnz, work)

    @given(
        st.integers(min_value=0, max_value=GATHER_MIN_NNZ - 1),
        st.integers(min_value=0, max_value=10**8),
    )
    def test_never_gathers_below_precheck(self, nnz, work):
        assert not gather_pays(nnz, work)

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_small_graphs_skip_the_gather(self, n, seed):
        net = RadioNetwork(gnp(n, 0.5, seed=seed))
        assert net.adj.indices.size < GATHER_MIN_NNZ
        assert not net._may_gather

    @pytest.mark.parametrize("work", [0, 91, 2_900, 17_101, 19_266, 20_862, 20_536])
    def test_served_broadcast_rounds_gather(self, work):
        # Sampled rounds of a uniform 1/d broadcast on G(20 000, 2 ln n/n).
        assert gather_pays(395_878, work)
