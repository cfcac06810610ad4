"""Property-based tests for the extension substrates (hypothesis).

Gossip gets a full differential oracle: a naive dict-of-sets
reimplementation of the knowledge dynamics checked against the
matrix-based simulator on arbitrary graphs and rate sequences.
Multi-trial driver runs are checked against per-trial traced runs of the
same dynamics, for every protocol family in the package.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import simulate
from repro.broadcast.distributed import (
    AgeBasedProtocol,
    DecayProtocol,
    EGRandomizedProtocol,
    EpochRestartProtocol,
    IdSlotProtocol,
    ObliviousProtocol,
    UniformProtocol,
)
from repro.broadcast.selectors import SelectiveFamilyProtocol, random_selective_family
from repro.errors import BroadcastIncompleteError
from repro.faults import LossyLinkModel
from repro.gossip import GossipDynamics, GossipTrace, MultiMessageDynamics
from repro.graphs import gnp
from repro.graphs.bfs import bfs_distances
from repro.graphs.geometric import random_geometric
from repro.graphs.powerlaw import chung_lu
from repro.radio import BroadcastDynamics, FunctionProtocol, RadioNetwork
from repro.radio.dynamics import run_dissemination
from repro.rng import spawn_generators

gnp_params = st.tuples(
    st.integers(min_value=2, max_value=18),
    st.floats(min_value=0.3, max_value=0.9),
    st.integers(min_value=0, max_value=10_000),
)


def _reference_gossip(adj, rate_seq, seed, rounds):
    """Dict-of-sets transcription of the gossip dynamics (the oracle)."""
    n = adj.n
    rng = np.random.default_rng(seed)
    knowledge = {v: {v} for v in range(n)}
    history = []
    for t in range(rounds):
        q = rate_seq[t % len(rate_seq)]
        transmit = rng.random(n) < q
        new_knowledge = {v: set(s) for v, s in knowledge.items()}
        for w in range(n):
            if transmit[w]:
                continue
            senders = [v for v in adj.neighbors(w) if transmit[v]]
            if len(senders) == 1:
                new_knowledge[w] |= knowledge[senders[0]]
        knowledge = new_knowledge
        history.append(sum(len(s) for s in knowledge.values()))
    return knowledge, history


class TestGossipDifferential:
    @given(
        gnp_params,
        st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=4),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_matrix_simulator_matches_reference(self, params, rates, rounds):
        n, p, seed = params
        g = gnp(n, p, seed=seed)
        assume(bool(np.all(bfs_distances(g, 0) >= 0)))
        proto = ObliviousProtocol(rates, name="seq")
        # Run the real simulator for exactly `rounds` rounds by setting the
        # budget and swallowing the incomplete error.
        try:
            trace = simulate(
                "gossip", RadioNetwork(g), protocol=proto, seed=seed, max_rounds=rounds,
            )
        except BroadcastIncompleteError as exc:
            trace = exc.trace
        # The oracle uses the same Generator construction and draw order
        # (one rng.random(n) per round), so trajectories must align while
        # the simulator is still running (it stops early when complete).
        _, history = _reference_gossip(g, rates, seed, trace.num_rounds)
        got = [rec.pairs_known for rec in trace.records]
        assert got == history


class TestFaultProperties:
    @given(gnp_params, st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_full_reliability_equals_kernel(self, params, mask_seed):
        n, p, seed = params
        g = gnp(n, p, seed=seed)
        links = LossyLinkModel(g, 1.0)
        rng = np.random.default_rng(mask_seed)
        transmitting = rng.random(n) < 0.4
        carrying = transmitting & (rng.random(n) < 0.7)
        total, message = links.sample_round_counts(transmitting, carrying, rng)
        assert np.array_equal(total, g.neighbor_counts(transmitting))
        assert np.array_equal(message, g.neighbor_counts(carrying))

    @given(gnp_params, st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=60, deadline=None)
    def test_lossy_counts_bounded_by_clean(self, params, reliability):
        n, p, seed = params
        g = gnp(n, p, seed=seed)
        links = LossyLinkModel(g, reliability)
        rng = np.random.default_rng(seed)
        transmitting = rng.random(n) < 0.5
        total, message = links.sample_round_counts(transmitting, transmitting, rng)
        clean = g.neighbor_counts(transmitting)
        assert np.all(total <= clean)
        assert np.all(message <= total)
        assert np.all(total >= 0)


class TestGeneratorProperties:
    @given(
        st.integers(min_value=1, max_value=60),
        st.floats(min_value=0.02, max_value=0.6),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_rgg_structure_and_geometry(self, n, radius, seed):
        layout = random_geometric(n, radius, seed=seed, return_layout=True)
        layout.adj.validate()
        pos = layout.positions
        r2 = radius * radius
        for u, v in layout.adj.edges():
            assert np.sum((pos[u] - pos[v]) ** 2) <= r2 + 1e-12

    @given(
        st.integers(min_value=2, max_value=60),
        st.floats(min_value=2.1, max_value=4.0),
        st.floats(min_value=1.0, max_value=10.0),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_chung_lu_structure(self, n, exponent, mean_degree, seed):
        from repro.graphs.powerlaw import powerlaw_weights

        w = powerlaw_weights(n, exponent, mean_degree)
        g = chung_lu(w, seed=seed)
        g.validate()
        assert g.n == n


class TestSelectorProperties:
    @given(
        st.integers(min_value=2, max_value=14),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_certified_family_selective_exhaustively(self, n, k, seed):
        # The raw random construction is selective only w.h.p. (hypothesis
        # finds small-(n, k) counterexamples); the certified repair mode
        # must be selective on every instance.
        from repro.broadcast.selectors import random_selective_family, verify_selective

        k = min(k, n)
        fam = random_selective_family(n, k, seed=seed, certified=True)
        assert verify_selective(fam, n, k)

    @given(
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_family_sets_within_range(self, n, seed):
        from repro.broadcast.selectors import random_selective_family

        fam = random_selective_family(n, min(4, n), seed=seed)
        for t in fam:
            assert np.all((t >= 0) & (t < n))
            assert np.unique(t).size == t.size


class TestOptimizerProperties:
    @given(
        st.integers(min_value=3, max_value=16),
        st.floats(min_value=0.4, max_value=0.9),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_optimize_preserves_completion(self, n, p, seed):
        from repro.broadcast.centralized import GreedyCoverScheduler, optimize_schedule
        from repro.radio import verify_schedule

        g = gnp(n, p, seed=seed)
        assume(bool(np.all(bfs_distances(g, 0) >= 0)))
        schedule = GreedyCoverScheduler(seed=0).build(g, 0)
        report = optimize_schedule(g, schedule, 0, max_passes=3)
        assert report.final_rounds <= report.initial_rounds
        assert verify_schedule(RadioNetwork(g), report.schedule, 0)


class TestMultimessageDifferential:
    @given(
        gnp_params,
        st.floats(min_value=0.1, max_value=1.0),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_pairs_known_matches_reference(self, params, rate, rounds, k):
        """k-token dynamics against a dict-of-sets oracle."""
        n, p, seed = params
        g = gnp(n, p, seed=seed)
        assume(bool(np.all(bfs_distances(g, 0) >= 0)))
        k = min(k, n)
        sources = list(range(k))
        try:
            trace = simulate(
                "multimessage", RadioNetwork(g), protocol=ObliviousProtocol([rate], name="const"),
                sources=sources, seed=seed, max_rounds=rounds,
            )
        except BroadcastIncompleteError as exc:
            trace = exc.trace
        # Oracle with identical draw order (one rng.random(n) per round).
        rng = np.random.default_rng(seed)
        knowledge = {v: set() for v in range(n)}
        for i, s in enumerate(sources):
            knowledge[s].add(i)
        history = []
        for _ in range(trace.num_rounds):
            draws = rng.random(n) < rate
            transmit = {v for v in range(n) if draws[v] and knowledge[v]}
            new_knowledge = {v: set(s) for v, s in knowledge.items()}
            for w in range(n):
                if w in transmit:
                    continue
                senders = [v for v in g.neighbors(w) if v in transmit]
                if len(senders) == 1:
                    new_knowledge[w] |= knowledge[senders[0]]
            knowledge = new_knowledge
            history.append(sum(len(s) for s in knowledge.values()))
        got = [rec.pairs_known for rec in trace.records]
        assert got == history


def _serial_outcome(trace) -> tuple[float, float]:
    """(completion round or inf, final fraction) of one serial trace."""
    if trace.completed:
        return float(trace.completion_round), 1.0
    if isinstance(trace, GossipTrace):
        known = float(np.sum(trace.knowledge_counts))
        return np.inf, known / float(trace.n * trace.tokens)
    return np.inf, trace.num_informed / trace.n


def _half_then_decay(t, informed, informed_round, rng):
    """A plain-function protocol: fair coins, thinning with age."""
    age = np.maximum(t - informed_round, 1)
    return rng.random(informed.size) < 0.5 / age


class TestLockstepMatchesSerial:
    @given(
        gnp_params,
        st.integers(min_value=1, max_value=5),
        st.sampled_from(
            ["uniform", "decay", "eg", "age-based", "id-slot", "selective",
             "epoch-restart", "function"]
        ),
        st.sampled_from(["broadcast", "gossip", "multimessage"]),
        st.integers(min_value=1, max_value=12),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_completion_rounds_and_fractions_bit_for_bit(
        self, params, repetitions, protocol, dynamics, max_rounds, data
    ):
        n, p, seed = params
        g = gnp(n, p, seed=seed)
        assume(bool(np.all(bfs_distances(g, 0) >= 0)))
        if protocol in ("eg", "epoch-restart"):
            assume(n >= 2 and p * n > 1)
        if protocol == "age-based":
            assume(n >= 2)
        net = RadioNetwork(g)
        family = random_selective_family(n, min(2, n), seed=seed)

        def make_protocol():
            if protocol == "uniform":
                return UniformProtocol(min(1.0, 1.0 / max(p * (n - 1), 1.0)))
            if protocol == "decay":
                return DecayProtocol(n)
            if protocol == "eg":
                return EGRandomizedProtocol(n, p)
            if protocol == "age-based":
                return AgeBasedProtocol(n, p)
            if protocol == "id-slot":
                return IdSlotProtocol(n)
            if protocol == "selective":
                return SelectiveFamilyProtocol(n, family)
            if protocol == "epoch-restart":
                return EpochRestartProtocol(EGRandomizedProtocol(n, p), 3)
            return FunctionProtocol(_half_then_decay)

        if dynamics == "broadcast":
            source = data.draw(st.integers(min_value=0, max_value=n - 1))
            process = {"source": source}
            def make():
                return BroadcastDynamics(make_protocol(), source, p)
        elif dynamics == "gossip":
            process = {}
            def make():
                return GossipDynamics(make_protocol(), p)
        else:
            sources = np.array(
                data.draw(
                    st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=4)
                ),
                dtype=np.int64,
            )
            process = {"sources": sources}
            def make():
                return MultiMessageDynamics(make_protocol(), sources, p)

        run = run_dissemination(
            net, make(), repetitions=repetitions, seed=seed, max_rounds=max_rounds
        )
        serial = [
            _serial_outcome(
                simulate(
                    dynamics, net, protocol=make_protocol(), p=p, seed=rng,
                    max_rounds=max_rounds, raise_on_incomplete=False, **process,
                )
            )
            for rng in spawn_generators(seed, repetitions)
        ]
        rounds, fractions = (np.array(column) for column in zip(*serial))
        assert np.array_equal(run.completion_rounds, rounds)
        assert np.array_equal(run.fractions, fractions)
