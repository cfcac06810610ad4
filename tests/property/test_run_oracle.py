"""A dict-of-sets oracle of a whole dissemination run, faults included.

:func:`oracle_run` transcribes one trial of broadcast, gossip or
``k``-token dissemination node by node: the fault plan's round stages of
docs/FAULTS.md (liveness, forgetting, protocol coins, garbage) and the
paper's Section 1.1 reception rule, with completion measured against the
eventually-alive target set.  It replays the protocol's and the plan's
draws on the trial's own stream, in the driver's order, so it must agree
with the simulator exactly: per round on traced single runs, and per
trial (completion round and final fraction) on multi-trial runs.

Lossy links are left to ``TestFaultProperties`` in
``test_extension_properties.py``, which checks the link sampler against
the clean kernel.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import simulate
from repro.broadcast.distributed import (
    DecayProtocol,
    EGRandomizedProtocol,
    ObliviousProtocol,
    UniformProtocol,
)
from repro.errors import BroadcastIncompleteError
from repro.faults import (
    AdversarialJammer,
    ChurnSchedule,
    CrashSchedule,
    FaultPlan,
    SpuriousNoiseModel,
)
from repro.gossip import GossipDynamics, MultiMessageDynamics
from repro.graphs import gnp
from repro.graphs.bfs import bfs_distances
from repro.radio import BroadcastDynamics, RadioNetwork
from repro.radio.dynamics import run_dissemination
from repro.rng import spawn_generators


def _initial(process, n, source, sources):
    """Each node's starting tokens, as sets."""
    if process == "broadcast":
        return [{0} if v == source else set() for v in range(n)]
    if process == "gossip":
        return [{v} for v in range(n)]
    return [{i for i, s in enumerate(sources) if s == v} for v in range(n)]


def _liveness(plan, v, t):
    """Whether ``v``'s radio is on in round ``t``, from the raw schedules."""
    if plan.crashes is not None:
        crash = int(plan.crashes.crash_round[v])
        if 0 <= crash <= t:
            return False
    if plan.churn is not None:
        for node, start, end in plan.churn.intervals.tolist():
            if node == v and start <= t and (end < 0 or t <= end):
                return False
    return True


def _rejoining(plan, t):
    """Nodes that rejoin uninformed in round ``t``."""
    churn = plan.churn
    if churn is None or not churn.forget_on_recovery:
        return set()
    return {node for node, _, end in churn.intervals.tolist() if end == t - 1}


def _eventually_alive(plan, v):
    if plan.crashes is not None and plan.crashes.crash_round[v] >= 0:
        return False
    if plan.churn is not None:
        for node, _, end in plan.churn.intervals.tolist():
            if node == v and end < 0:
                return False
    return True


def oracle_run(adj, process, protocol, plan, rng, max_rounds, *, source=0, sources=(), p=None):
    """One trial, node by node.

    Returns ``(rows, completion, fraction)``: per round ``(transmitters,
    collided, receivers, tokens_known, new)``; the completion round or
    ``inf``; the final fraction of (node, token) pairs known (1.0 on
    completion).
    """
    n = adj.n
    plan = plan or FaultPlan()
    initial = _initial(process, n, source, sources)
    num_tokens = 1 if process == "broadcast" else (n if process == "gossip" else len(sources))
    knowledge = [set(s) for s in initial]
    held_since = [0 if s else -1 for s in initial]
    target = [v for v in range(n) if _eventually_alive(plan, v)]
    if process == "broadcast":
        deliverable = {0}
    elif process == "gossip":
        deliverable = set(target)
    else:
        deliverable = {i for i, s in enumerate(sources) if _eventually_alive(plan, s)}
    protocol.prepare(n, p, source if process == "broadcast" else (sources[0] if sources else 0))

    def complete():
        return all(deliverable <= knowledge[v] for v in target)

    rows = []
    completion = 0.0 if complete() else np.inf
    for t in range(1, max_rounds + 1):
        if np.isfinite(completion):
            break
        # 1. liveness.
        alive = {v for v in range(n) if _liveness(plan, v, t)}
        # 2. forgetting: broadcast loses the message, knowledge processes
        # fall back to their endowment.
        for v in _rejoining(plan, t):
            if process == "broadcast":
                knowledge[v] = set()
                held_since[v] = -1
            else:
                knowledge[v] = set(initial[v])
                if process == "multimessage":
                    held_since[v] = 0 if initial[v] else -1
        # 3. protocol coins, among live content holders.
        holding = np.array(
            [process == "gossip" or bool(knowledge[v]) for v in range(n)], dtype=bool
        )
        coins = protocol.transmit_mask(t, holding, np.array(held_since, dtype=np.int64), rng)
        transmit = {v for v in alive if coins[v] and holding[v]}
        # 4. garbage wins over a protocol transmission at the same node.
        garbage = plan.garbage_mask(t, rng)
        noisy = set() if garbage is None else {v for v in alive if garbage[v]}
        carrying = transmit - noisy
        occupied = transmit | noisy
        # Section 1.1: exactly one arrival, and it carries the message.
        merged = [set(s) for s in knowledge]
        collided = receivers = new = 0
        for w in alive - occupied:
            heard = [u for u in adj.neighbors(w).tolist() if u in occupied]
            if len(heard) >= 2:
                collided += 1
            elif len(heard) == 1 and heard[0] in carrying:
                receivers += 1
                if not knowledge[w]:
                    new += 1
                merged[w] |= knowledge[heard[0]]
                if held_since[w] < 0:
                    held_since[w] = t
        knowledge = merged
        known = sum(len(s) for s in knowledge)
        rows.append((len(occupied), collided, receivers, known, new))
        if complete():
            completion = float(t)
    if np.isfinite(completion):
        return rows, completion, 1.0
    return rows, completion, sum(len(s) for s in knowledge) / float(n * num_tokens)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

graphs = st.tuples(
    st.integers(min_value=2, max_value=12),
    st.floats(min_value=0.3, max_value=0.9),
    st.integers(min_value=0, max_value=10_000),
)
PROTOCOLS = ["uniform", "decay", "eg", "oblivious"]
FAULTS = ["none", "crashes", "churn", "churn-retain", "jammer", "noise", "mixed"]


def _protocol(name, n, p):
    if name == "uniform":
        return UniformProtocol(min(1.0, 1.0 / max(p * (n - 1), 1.0)))
    if name == "decay":
        return DecayProtocol(n)
    if name == "eg":
        return EGRandomizedProtocol(n, p)
    return ObliviousProtocol([0.9, 0.4, 0.2], name="seq")


def _plan(kind, adj, protect, data):
    """A fault plan of ``kind`` drawn by hypothesis; ``protect`` never fails."""
    n = adj.n
    ids = st.integers(min_value=0, max_value=n - 1)
    parts = {}
    if kind in ("crashes", "mixed"):
        rounds = data.draw(st.lists(st.integers(-1, 6), min_size=n, max_size=n))
        for v in protect:
            rounds[v] = -1
        parts["crashes"] = CrashSchedule(np.array(rounds, dtype=np.int64))
    if kind in ("churn", "churn-retain", "mixed"):
        nodes = data.draw(st.lists(ids, max_size=3, unique=True))
        intervals = []
        for v in nodes:
            if v in protect:
                continue
            start = data.draw(st.integers(1, 5))
            end = data.draw(st.one_of(st.just(-1), st.integers(start, start + 4)))
            intervals.append((v, start, end))
        parts["churn"] = ChurnSchedule(
            n, intervals, forget_on_recovery=kind != "churn-retain"
        )
    if kind in ("jammer", "mixed"):
        parts["jammer"] = AdversarialJammer(
            adj,
            data.draw(st.integers(0, 2)),
            strategy=data.draw(st.sampled_from(["random", "degree"])),
            active_probability=data.draw(st.sampled_from([1.0, 0.5])),
            exclude=list(protect),
        )
    if kind in ("noise", "mixed"):
        byzantine = [v for v in data.draw(st.lists(ids, max_size=3)) if v not in protect]
        parts["noise"] = SpuriousNoiseModel(n, byzantine, data.draw(st.sampled_from([0.3, 1.0])))
    return FaultPlan(**parts) if parts else None


def _draw_case(params, process, data):
    n, p, seed = params
    g = gnp(n, p, seed=seed)
    assume(bool(np.all(bfs_distances(g, 0) >= 0)))
    source, sources = 0, ()
    if process == "broadcast":
        source = data.draw(st.integers(0, n - 1))
        protect = [source]
    elif process == "multimessage":
        sources = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)))
        protect = [sources[0]]
    else:
        protect = [0]
    return g, n, p, seed, source, sources, protect


def _dynamics(process, protocol, p, source, sources):
    if process == "broadcast":
        return BroadcastDynamics(protocol, source, p)
    if process == "gossip":
        return GossipDynamics(protocol, p)
    return MultiMessageDynamics(protocol, np.array(sources, dtype=np.int64), p)


def _trace_rows(trace, process):
    """The oracle's per-round view of a traced run."""
    if process == "broadcast":
        return [
            (r.num_transmitters, r.num_collided, None, r.informed_after, r.num_new)
            for r in trace.records
        ]
    return [
        (r.num_transmitters, None, r.num_receivers, r.pairs_known, None)
        for r in trace.records
    ]


def _comparable(rows, process):
    if process == "broadcast":
        return [(tx, coll, None, known, new) for tx, coll, _, known, new in rows]
    return [(tx, None, recv, known, None) for tx, _, recv, known, _ in rows]


def _driver_trials(net, make, plan, repetitions, seed, max_rounds):
    """Per-trial ``(completion_rounds, fractions)`` of a multi-trial run."""
    run = run_dissemination(
        net, make(), repetitions=repetitions, plan=plan, seed=seed, max_rounds=max_rounds
    )
    return run.completion_rounds, run.fractions


class TestRunOracle:
    @given(
        graphs,
        st.sampled_from(["broadcast", "gossip", "multimessage"]),
        st.sampled_from(PROTOCOLS),
        st.sampled_from(FAULTS),
        st.integers(min_value=0, max_value=14),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_traced_run_matches_oracle(self, params, process, protocol, faults, max_rounds, data):
        g, n, p, seed, source, sources, protect = _draw_case(params, process, data)
        if protocol == "eg":
            assume(p * n > 1)
        plan = _plan(faults, g, protect, data)
        placement = {"broadcast": {"source": source}, "gossip": {},
                     "multimessage": {"sources": list(sources)}}[process]
        try:
            trace = simulate(
                process, RadioNetwork(g), protocol=_protocol(protocol, n, p), p=p,
                faults=plan, seed=seed, max_rounds=max_rounds, **placement,
            )
        except BroadcastIncompleteError as exc:
            trace = exc.trace
        rows, completion, _ = oracle_run(
            g, process, _protocol(protocol, n, p), plan, np.random.default_rng(seed),
            max_rounds, source=source, sources=sources, p=p,
        )
        assert _trace_rows(trace, process) == _comparable(rows, process)
        assert trace.completed == bool(np.isfinite(completion))
        if trace.completed:
            assert trace.num_rounds == completion

    @given(
        graphs,
        st.sampled_from(["broadcast", "gossip", "multimessage"]),
        st.sampled_from(PROTOCOLS),
        st.sampled_from(FAULTS),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=14),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_multi_trial_run_matches_oracle(
        self, params, process, protocol, faults, repetitions, max_rounds, data
    ):
        g, n, p, seed, source, sources, protect = _draw_case(params, process, data)
        if protocol == "eg":
            assume(p * n > 1)
        plan = _plan(faults, g, protect, data)
        rounds, fractions = _driver_trials(
            RadioNetwork(g),
            lambda: _dynamics(process, _protocol(protocol, n, p), p, source, sources),
            plan, repetitions, seed, max_rounds,
        )
        expected = [
            oracle_run(
                g, process, _protocol(protocol, n, p), plan, rng, max_rounds,
                source=source, sources=sources, p=p,
            )[1:]
            for rng in spawn_generators(seed, repetitions)
        ]
        assert rounds.tolist() == [c for c, _ in expected]
        assert fractions.tolist() == [f for _, f in expected]
