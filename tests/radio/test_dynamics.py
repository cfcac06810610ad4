"""The unified dissemination core.

Three layers of protection for the engine refactor:

* **Golden digests** — every dynamics (broadcast, gossip, multimessage,
  push, push-pull, agents, faulty broadcast) is pinned to a digest of its
  full trace on a fixed seed, captured from the pre-refactor per-process
  loops.  Any change to RNG consumption, round accounting, or trace
  assembly flips a digest.
* **Cross-dynamics identities** — ``simulate("multimessage", ...)`` with one
  token is broadcast, round for round.
* **Driver semantics** — fault-plan gating, registry population, and the
  batch/serial bit-for-bit equivalence of the gossip-family engines.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from repro import simulate
from repro.backends import available_backend_names, use_backend
from repro.broadcast.distributed import DecayProtocol, UniformProtocol
from repro.errors import BroadcastIncompleteError, InvalidParameterError
from repro.faults import (
    AdversarialJammer,
    ChurnSchedule,
    CrashSchedule,
    FaultPlan,
    LossyLinkModel,
    SpuriousNoiseModel,
)
from repro.gossip import run_gossip_batch, run_multimessage_batch
from repro.graphs import gnp_connected, star_graph
from repro.radio import DYNAMICS_REGISTRY, FunctionProtocol, RadioNetwork
from repro.rng import spawn_generators


def trace_digest(trace) -> str:
    """Order-sensitive digest of every record field and final array."""
    h = hashlib.sha256()
    for rec in trace.records:
        h.update(repr(dataclasses.astuple(rec)).encode())
    for name in ("informed", "informed_round", "informer", "knowledge_counts"):
        arr = getattr(trace, name, None)
        if arr is not None:
            h.update(np.asarray(arr).tobytes())
    return h.hexdigest()[:16]


@pytest.fixture(scope="module")
def g64():
    return gnp_connected(64, 0.2, seed=1)


@pytest.fixture(scope="module")
def net64(g64):
    return RadioNetwork(g64)


@pytest.fixture(scope="module")
def net96():
    return RadioNetwork(gnp_connected(96, 0.15, seed=50))


@pytest.fixture(scope="module")
def net48():
    return RadioNetwork(gnp_connected(48, 0.25, seed=5))


class TestGoldenTraces:
    """Digests captured from the pre-refactor bespoke round loops.

    Parameterized over every *available* kernel backend: the digests are
    backend-invariant (identical integer neighbour counts mean identical
    RNG consumption and trajectories), so a compiled backend that flips
    one of these digests is a backend bug, not a new golden value.
    """

    @pytest.fixture(autouse=True, params=available_backend_names())
    def _backend(self, request):
        with use_backend(request.param):
            yield request.param

    def test_gossip_uniform(self, net48):
        trace = simulate("gossip", net48, protocol=UniformProtocol(0.1), seed=6)
        assert trace_digest(trace) == "75e19449f4ad97c6"

    def test_gossip_decay(self):
        trace = simulate(
            "gossip", RadioNetwork(star_graph(10)), protocol=DecayProtocol(10), seed=4,
        )
        assert trace_digest(trace) == "6533657490c5e8d3"

    def test_multimessage_k3(self, net96):
        trace = simulate(
            "multimessage", net96, protocol=UniformProtocol(0.1), sources=[0, 10, 20], seed=4,
        )
        assert trace_digest(trace) == "35b0d92d232a164d"

    def test_multimessage_k1(self, net96):
        trace = simulate("multimessage", net96, protocol=UniformProtocol(0.1), sources=[0], seed=1)
        assert trace_digest(trace) == "aff7d3328efe0c02"

    def test_push(self, g64):
        assert trace_digest(simulate("push", g64, source=0, seed=7)) == "ddcffa886c2762d7"

    def test_push_pull(self, g64):
        assert trace_digest(simulate("push-pull", g64, source=0, seed=8)) == "91d2125dffe0ac4a"

    def test_agents(self, g64):
        trace = simulate("agents", g64, num_agents=8, source=0, seed=9)
        assert trace_digest(trace) == "349406b9b3da92e6"

    def test_broadcast(self, net64):
        trace = simulate("broadcast", net64, protocol=UniformProtocol(0.2), seed=3)
        assert trace_digest(trace) == "8e0bcc7de8081ae7"

    def test_broadcast_faulty(self, g64, net64):
        plan = FaultPlan(
            crashes=CrashSchedule.random(64, 0.1, 30, seed=100, protect=[0]),
            churn=ChurnSchedule.random(
                64, 0.3, 60, mean_downtime=10.0, seed=101, protect=[0]
            ),
            links=LossyLinkModel(g64, 0.9),
            jammer=AdversarialJammer(g64, 3, strategy="random", exclude=[0]),
            noise=SpuriousNoiseModel.random(64, 0.1, 0.2, seed=102, protect=[0]),
        )
        trace = simulate(
            "broadcast", net64, protocol=DecayProtocol(64), faults=plan, seed=5, max_rounds=2000,
        )
        assert trace_digest(trace) == "5f8cc7d5132b3f36"


class TestGatherSizedTraces:
    """Pins on a graph large enough for the serial transmitter gather.

    ``G(4096, 2 ln n/n)`` is above the gather's static pre-check, so its
    sparse rounds run the gather and its dense ones the matvec, on the
    healthy path (``RadioNetwork.step``) and on the fault path
    (``RadioNetwork.arrivals`` with garbage transmitters).  The digests
    were captured when every serial round was one matvec.
    """

    @pytest.fixture(scope="class")
    def net4096(self):
        n = 4096
        net = RadioNetwork(gnp_connected(n, 2 * math.log(n) / n, seed=17))
        assert net._may_gather
        return net

    def test_broadcast_uniform(self, net4096):
        d = 2 * math.log(4096)
        trace = simulate("broadcast", net4096, protocol=UniformProtocol(1 / d), seed=21)
        assert trace_digest(trace) == "0c8f92114595b47f"

    def test_broadcast_crash_and_garbage(self, net4096):
        n = net4096.n
        plan = FaultPlan(
            crashes=CrashSchedule.random(n, 0.1, 40, seed=22, protect=[0]),
            noise=SpuriousNoiseModel.random(n, 0.1, 0.3, seed=23, protect=[0]),
        )
        trace = simulate(
            "broadcast", net4096, protocol=DecayProtocol(n), faults=plan, seed=24, max_rounds=2000,
        )
        assert trace_digest(trace) == "c6ef25595b498a8b"


class TestOneTokenIsBroadcast:
    """With a single token the continuum endpoint is exactly broadcast."""

    @pytest.mark.parametrize("make_protocol", [lambda: UniformProtocol(0.15), lambda: DecayProtocol(64)])
    @pytest.mark.parametrize("seed", [2, 13])
    def test_round_for_round(self, net64, make_protocol, seed):
        bcast = simulate("broadcast", net64, protocol=make_protocol(), source=5, seed=seed)
        multi = simulate("multimessage", net64, protocol=make_protocol(), sources=[5], seed=seed)
        assert multi.completion_round == bcast.completion_round
        assert [r.num_transmitters for r in multi.records] == [
            r.num_transmitters for r in bcast.records
        ]
        # informed count after each round == (node, token) pairs known
        assert [r.pairs_known for r in multi.records] == [
            r.informed_after for r in bcast.records
        ]


class TestDriverSemantics:
    def test_registry_names(self):
        import repro.gossip  # noqa: F401
        import repro.singleport  # noqa: F401

        names = set(DYNAMICS_REGISTRY)
        assert {
            "broadcast",
            "gossip",
            "multimessage",
            "push",
            "push-pull",
            "agents",
        } <= names
        for cls in DYNAMICS_REGISTRY.values():
            assert cls.summary

    def test_active_plan_rejected_by_faultless_dynamics(self, g64):
        from repro.radio.dynamics import run_dissemination
        from repro.singleport.push import PushDynamics

        plan = FaultPlan(crashes=CrashSchedule.random(64, 0.2, 10, seed=3, protect=[0]))
        with pytest.raises(InvalidParameterError, match="fault"):
            run_dissemination(
                RadioNetwork(g64), PushDynamics(0), plan=plan, seed=1
            )
        with pytest.raises(InvalidParameterError, match="fault"):
            simulate("push", g64, faults=plan, seed=1)

    def test_point_to_point_dynamics_run_one_trial_per_call(self, net64):
        from repro.radio.dynamics import run_dissemination
        from repro.singleport.agents import AgentDynamics
        from repro.singleport.push import PushDynamics

        for dynamics in (PushDynamics(0), AgentDynamics(4, 0)):
            with pytest.raises(InvalidParameterError, match="one trial"):
                run_dissemination(net64, dynamics, repetitions=2, seed=1)
        run = run_dissemination(net64, PushDynamics(0), repetitions=1, seed=1)
        trace = simulate("push", net64, seed=spawn_generators(1, 1)[0])
        assert run.completion_rounds.tolist() == [float(trace.completion_round)]

    def test_negative_budget_rejected(self, net64):
        from repro.radio.dynamics import BroadcastDynamics, run_dissemination

        with pytest.raises(InvalidParameterError, match="max_rounds"):
            run_dissemination(
                net64, BroadcastDynamics(UniformProtocol(0.2), 0), max_rounds=-3,
                raise_on_incomplete=False,
            )
        with pytest.raises(InvalidParameterError, match="max_rounds"):
            run_dissemination(
                net64, BroadcastDynamics(UniformProtocol(0.2), 0), repetitions=2, max_rounds=-3,
            )

    def test_null_plan_matches_healthy(self, net48):
        healthy = simulate("gossip", net48, protocol=UniformProtocol(0.1), seed=6)
        null = simulate("gossip", net48, protocol=UniformProtocol(0.1), seed=6, faults=FaultPlan())
        assert trace_digest(null) == trace_digest(healthy)

    def test_multimessage_source_validation(self, net64):
        with pytest.raises(InvalidParameterError):
            simulate("multimessage", net64, protocol=UniformProtocol(0.1), sources=[], seed=1)
        with pytest.raises(InvalidParameterError):
            simulate("multimessage", net64, protocol=UniformProtocol(0.1), sources=[0, 99], seed=1)


class TestGossipUnderFaults:
    """Satellite of the refactor: the gossip family gains FaultPlan support."""

    def test_gossip_with_crashes_completes_on_survivors(self, net48):
        plan = FaultPlan(
            crashes=CrashSchedule.random(48, 0.15, 20, seed=7, protect=[0])
        )
        trace = simulate(
            "gossip", net48, protocol=UniformProtocol(0.1), seed=3, faults=plan, max_rounds=5000,
        )
        # Dead nodes' rumors are excluded from the deliverable set; the
        # run completes relative to the surviving target.
        assert trace.completed
        assert trace.num_tokens in (None, 48)

    def test_multimessage_with_full_plan(self, g64, net64):
        plan = FaultPlan(
            crashes=CrashSchedule.random(64, 0.08, 40, seed=21, protect=[0, 7]),
            links=LossyLinkModel(g64, 0.95),
            noise=SpuriousNoiseModel.random(64, 0.05, 0.1, seed=22, protect=[0, 7]),
        )
        trace = simulate(
            "multimessage", net64, protocol=UniformProtocol(0.15), sources=[0, 7], seed=9,
            faults=plan, max_rounds=8000,
        )
        assert trace.completed

    def test_incomplete_gossip_keeps_trace(self, net48):
        with pytest.raises(BroadcastIncompleteError) as exc_info:
            simulate("gossip", net48, protocol=UniformProtocol(0.1), seed=6, max_rounds=3)
        trace = exc_info.value.trace
        assert trace is not None and trace.num_rounds == 3
        assert trace.knowledge_counts is not None


class TestBatchSerialEquivalence:
    """The lockstep gossip-family engines are bit-for-bit serial."""

    @pytest.mark.parametrize("make_protocol", [lambda: UniformProtocol(0.1), lambda: DecayProtocol(48)])
    def test_gossip_batch(self, net48, make_protocol):
        reps, seed = 4, 17
        batch = run_gossip_batch(
            net48,
            make_protocol(),
            repetitions=reps,
            seed=seed,
            with_first_complete=True,
        )
        for r, rng in enumerate(spawn_generators(seed, reps)):
            trace = simulate("gossip", net48, protocol=make_protocol(), seed=rng)
            assert batch.completion_rounds[r] == trace.completion_round
            assert (
                batch.first_complete_rounds[r]
                == trace.rounds_until_first_complete_node()
            )

    def test_multimessage_batch(self, net96):
        reps, seed, sources = 4, 23, [3, 40, 77]
        batch = run_multimessage_batch(
            net96, UniformProtocol(0.1), sources, repetitions=reps, seed=seed
        )
        for r, rng in enumerate(spawn_generators(seed, reps)):
            trace = simulate(
                "multimessage", net96, protocol=UniformProtocol(0.1), sources=sources, seed=rng,
            )
            assert batch.completion_rounds[r] == trace.completion_round

    def test_budget_miss_reports_fractions(self, net48):
        batch = run_gossip_batch(
            net48, UniformProtocol(0.1), repetitions=3, seed=5, max_rounds=4
        )
        assert np.all(np.isinf(batch.completion_rounds))
        assert np.all((batch.knowledge_fractions > 0) & (batch.knowledge_fractions < 1))

    def test_serial_dispatch_matches_batch(self, net48):
        """A protocol on the generic column fallback of the batch mask
        measures what its vectorized twin measures."""
        from repro.experiments.runner import gossip_times

        uniform = UniformProtocol(0.1)
        proxy = FunctionProtocol(uniform.transmit_mask, name="serial-uniform")
        proxy.prepare = uniform.prepare
        fast = gossip_times(net48, uniform, repetitions=3, seed=31)
        slow = gossip_times(net48, proxy, repetitions=3, seed=31)
        assert np.array_equal(fast, slow)
