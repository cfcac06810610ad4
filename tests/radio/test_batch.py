"""Tests for the batched multi-trial round kernel and engine.

The load-bearing guarantee: ``R`` trials on the round driver
(``run_broadcast_batch``, ``protocol_times``) are bit-for-bit equivalent
to ``R`` traced ``simulate()`` runs on the per-trial streams spawned from
the same root seed.
"""

import numpy as np
import pytest

from repro import simulate
from repro.backends import available_backend_names, use_backend
from repro.broadcast.distributed import ObliviousProtocol
from repro.broadcast.distributed.decay import DecayProtocol
from repro.broadcast.distributed.eg_randomized import EGRandomizedProtocol
from repro.broadcast.distributed.uniform import UniformProtocol
from repro.errors import DisconnectedGraphError, InvalidParameterError, SimulationError
from repro.experiments.runner import protocol_times
from repro.graphs import Adjacency, cycle_graph, gnp_connected, path_graph
from repro.radio import RadioNetwork, run_broadcast_batch
from repro.radio.protocol import FunctionProtocol, bernoulli_mask_batch
from repro.rng import spawn_generators


def simulated_times(net, protocol, *, repetitions, seed, p, source=0, max_rounds=None,
                    with_fractions=False):
    """``protocol_times`` as ``repetitions`` traced ``simulate()`` runs."""
    rounds, fractions = [], []
    for rng in spawn_generators(seed, repetitions):
        trace = simulate(
            "broadcast", net, protocol=protocol, source=source, p=p, seed=rng,
            max_rounds=max_rounds, raise_on_incomplete=False,
        )
        rounds.append(float(trace.completion_round) if trace.completed else np.inf)
        fractions.append(1.0 if trace.completed else trace.num_informed / trace.n)
    if with_fractions:
        return np.array(rounds), np.array(fractions)
    return np.array(rounds)


def function_twin(protocol):
    """Same draws through the generic column fallback of the batch mask."""
    twin = FunctionProtocol(protocol.transmit_mask, name=f"function-{protocol.name}")
    twin.prepare = protocol.prepare
    return twin


@pytest.fixture(scope="module")
def medium():
    n = 300
    p = 2 * np.log(n) / n
    adj = gnp_connected(n, p, seed=42)
    return RadioNetwork(adj), p


PROTOCOLS = [
    pytest.param(lambda n, p: UniformProtocol(1.0 / (p * (n - 1))), id="uniform"),
    pytest.param(lambda n, p: DecayProtocol(n), id="decay"),
    pytest.param(lambda n, p: EGRandomizedProtocol(n, p), id="eg"),
    pytest.param(
        lambda n, p: EGRandomizedProtocol(n, p, strict_participation=True),
        id="eg-strict",
    ),
    pytest.param(
        lambda n, p: ObliviousProtocol(lambda t: min(1.0, 2.0 / t), name="harmonic"),
        id="oblivious-callable",
    ),
    pytest.param(
        lambda n, p: ObliviousProtocol([1.0, 1.0 / (p * n), 0.5 / (p * n)], name="seq"),
        id="oblivious-sequence",
    ),
]


class TestBatchSerialEquivalence:
    """Batch ≡ traced runs, on every available kernel backend: the
    batched engine's counts — and therefore its draws and completion
    rounds — must not depend on which backend computed them."""

    @pytest.fixture(autouse=True, params=available_backend_names())
    def _backend(self, request):
        with use_backend(request.param):
            yield request.param

    @pytest.mark.parametrize("factory", PROTOCOLS)
    def test_completion_rounds_identical(self, medium, factory):
        net, p = medium
        proto = factory(net.n, p)
        batch = protocol_times(net, proto, repetitions=12, seed=7, p=p)
        serial = simulated_times(net, proto, repetitions=12, seed=7, p=p)
        assert np.array_equal(batch, serial)

    def test_fractions_identical_on_budget_miss(self, medium):
        # A 3-round cap leaves trials incomplete: inf rounds must carry
        # the same partial informed fraction both ways.
        net, p = medium
        proto = UniformProtocol(1.0 / (p * (net.n - 1)))
        b_rounds, b_frac = protocol_times(
            net, proto, repetitions=8, seed=3, p=p, max_rounds=3, with_fractions=True
        )
        s_rounds, s_frac = simulated_times(
            net,
            proto,
            repetitions=8,
            seed=3,
            p=p,
            max_rounds=3,
            with_fractions=True,
        )
        assert np.all(np.isinf(b_rounds))
        assert np.array_equal(b_rounds, s_rounds)
        assert np.array_equal(b_frac, s_frac)
        assert np.all((b_frac > 0) & (b_frac < 1))

    def test_generic_fallback_protocol_equivalent(self, medium):
        # A protocol without a vectorized batch mask still runs correctly
        # on the batched engine via the per-column fallback.
        net, p = medium
        proto = UniformProtocol(1.0 / (p * (net.n - 1)))
        fallback = function_twin(proto)  # FunctionProtocol: generic batch path
        direct = run_broadcast_batch(net, fallback, repetitions=6, p=p, seed=11)
        serial = simulated_times(net, fallback, repetitions=6, seed=11, p=p)
        assert np.array_equal(direct.completion_rounds, serial)

    def test_nondefault_source(self, medium):
        net, p = medium
        proto = UniformProtocol(1.0 / (p * (net.n - 1)))
        batch = protocol_times(net, proto, repetitions=6, seed=5, p=p, source=17)
        serial = simulated_times(net, proto, repetitions=6, seed=5, p=p, source=17)
        assert np.array_equal(batch, serial)


class TestBatchEngineEdges:
    def test_single_repetition(self, medium):
        net, p = medium
        proto = UniformProtocol(1.0 / (p * (net.n - 1)))
        res = run_broadcast_batch(net, proto, repetitions=1, p=p, seed=0)
        assert res.repetitions == 1
        assert res.num_completed == 1
        assert res.completion_rounds.shape == (1,)

    def test_trial_finishing_round_one(self):
        # Path of 2: the only informed node transmits alone, so every
        # trial of the always-transmit protocol completes in round 1.
        net = RadioNetwork(path_graph(2))
        proto = UniformProtocol(1.0)
        res = run_broadcast_batch(net, proto, repetitions=5, seed=1)
        assert np.array_equal(res.completion_rounds, np.ones(5))
        assert res.num_rounds == 1
        assert np.array_equal(res.informed_fractions, np.ones(5))

    def test_single_node_completes_round_zero(self):
        net = RadioNetwork(Adjacency.empty(1))
        proto = UniformProtocol(1.0)
        res = run_broadcast_batch(net, proto, repetitions=3, seed=1)
        assert np.array_equal(res.completion_rounds, np.zeros(3))
        assert res.num_rounds == 0

    def test_round_cap_reports_inf(self):
        # 4-cycle with always-transmit: the antipodal node's two parents
        # collide at it every round forever — no trial can finish.
        net = RadioNetwork(cycle_graph(4))
        proto = UniformProtocol(1.0)
        res = run_broadcast_batch(net, proto, repetitions=4, seed=2, max_rounds=10)
        assert np.all(np.isinf(res.completion_rounds))
        assert res.num_rounds == 10
        assert res.num_completed == 0
        assert np.array_equal(res.informed_fractions, np.full(4, 0.75))

    def test_mixed_completion_keeps_trial_order(self, medium):
        # Trials complete in different rounds; results must land in their
        # original trial slots despite the engine compacting state.
        net, p = medium
        proto = UniformProtocol(1.0 / (p * (net.n - 1)))
        res = run_broadcast_batch(net, proto, repetitions=16, p=p, seed=9)
        assert res.num_completed == 16
        assert len(np.unique(res.completion_rounds)) > 1
        serial = simulated_times(net, proto, repetitions=16, seed=9, p=p)
        assert np.array_equal(res.completion_rounds, serial)

    def test_invalid_args(self, medium):
        net, _ = medium
        proto = UniformProtocol(0.5)
        with pytest.raises(InvalidParameterError):
            run_broadcast_batch(net, proto, repetitions=0, seed=0)
        with pytest.raises(InvalidParameterError):
            run_broadcast_batch(net, proto, source=net.n, repetitions=2, seed=0)

    def test_disconnected_raises(self):
        adj = Adjacency.from_edges(4, [(0, 1), (2, 3)])
        net = RadioNetwork(adj)
        with pytest.raises(DisconnectedGraphError):
            run_broadcast_batch(net, UniformProtocol(1.0), repetitions=2, seed=0)


class TestStepBatch:
    def test_matches_serial_step_per_column(self, medium, rng):
        net, _ = medium
        n = net.n
        transmitting = rng.random((n, 7)) < 0.1
        informed = (rng.random((n, 7)) < 0.5) | transmitting
        batch = net.step_batch(transmitting, informed)
        assert batch.repetitions == 7
        for r in range(7):
            serial = net.step(transmitting[:, r], informed[:, r])
            assert np.array_equal(batch.received[:, r], serial.received)
            assert np.array_equal(batch.collided[:, r], serial.collided)
            assert batch.num_transmitters[r] == serial.num_transmitters

    def test_uninformed_transmitters_block_without_delivering(self, medium, rng):
        # Columns where transmitting is NOT a subset of informed exercise
        # the second (message-carrying) counting pass.
        net, _ = medium
        n = net.n
        transmitting = rng.random((n, 5)) < 0.2
        informed = rng.random((n, 5)) < 0.3
        batch = net.step_batch(transmitting, informed)
        for r in range(5):
            serial = net.step(transmitting[:, r], informed[:, r])
            assert np.array_equal(batch.received[:, r], serial.received)

    def test_accounting_switches(self, medium, rng):
        net, _ = medium
        transmitting = rng.random((net.n, 3)) < 0.1
        informed = np.ones((net.n, 3), dtype=bool)
        lean = net.step_batch(
            transmitting,
            informed,
            with_collided=False,
            with_transmitters=False,
            assume_informed=True,
        )
        full = net.step_batch(transmitting, informed)
        assert lean.collided is None
        assert lean.num_transmitters is None
        assert np.array_equal(lean.received, full.received)

    def test_shape_check(self, medium):
        net, _ = medium
        with pytest.raises(SimulationError):
            net.step_batch(np.zeros(net.n, dtype=bool), np.zeros((net.n, 2), dtype=bool))
        with pytest.raises(SimulationError):
            net.step_batch(
                np.zeros((net.n, 2), dtype=int), np.zeros((net.n, 2), dtype=bool)
            )


class TestObliviousBatch:
    def test_full_probability_round_still_draws(self):
        # q = 1 transmits everywhere, yet each trial's stream advances by
        # one random(n) block, as the serial transmit_mask does.
        proto = ObliviousProtocol([1.0])
        rngs = spawn_generators(4, 3)
        twin = spawn_generators(4, 3)
        informed = np.ones((25, 3), dtype=bool)
        mask = proto.transmit_mask_batch(1, informed, np.zeros((25, 3), dtype=np.int64), rngs)
        assert mask.shape == (25, 3) and mask.all()
        for used, fresh in zip(rngs, twin):
            fresh.random(25)
            assert used.random() == fresh.random()

    def test_out_of_range_probability_raises_on_batch_path(self, medium):
        net, p = medium
        proto = ObliviousProtocol(lambda t: 0.5 if t < 3 else 1.5)
        with pytest.raises(InvalidParameterError, match="outside"):
            run_broadcast_batch(net, proto, repetitions=4, seed=0, max_rounds=10)
        with pytest.raises(InvalidParameterError, match="outside"):
            protocol_times(net, proto, repetitions=4, seed=0, max_rounds=10)


class TestBernoulliMaskBatch:
    def test_columns_match_serial_draws(self):
        rngs = spawn_generators(3, 4)
        twin = spawn_generators(3, 4)
        batch = bernoulli_mask_batch(rngs, 0.4, 50)
        assert batch.shape == (50, 4)
        for r in range(4):
            assert np.array_equal(batch[:, r], twin[r].random(50) < 0.4)

    def test_consumes_one_block_per_generator(self):
        rngs = spawn_generators(8, 2)
        twin = spawn_generators(8, 2)
        bernoulli_mask_batch(rngs, 0.5, 20)
        for used, fresh in zip(rngs, twin):
            fresh.random(20)
            assert used.random() == fresh.random()
