"""Observability integration: no-op guarantee, event streams, result parity.

Two load-bearing properties:

* **absence is free and invisible** — with no observer installed, engines
  produce bit-for-bit the traces they produced before the layer existed
  (the golden digests in tests/radio/test_dynamics.py pin this globally;
  here we pin observed == unobserved directly);
* **presence is schema-valid** — every registered dynamics, run under a
  sink, emits run-start / round / run-end events that pass
  :func:`repro.obs.sinks.validate_event`, and the batch engines emit the
  batch-* analogues.
"""

import math

import numpy as np
import pytest

import repro
from repro import (
    MemoryTraceSink,
    MetricsRegistry,
    Observer,
    RadioNetwork,
    UniformProtocol,
    gnp_connected,
    simulate,
    use_observer,
)
from repro.backends import current_backend_name
from repro.faults import FaultPlan, LossyLinkModel
from repro.gossip import run_gossip_batch
from repro.obs.sinks import validate_event
from repro.radio.engine import run_broadcast_batch


@pytest.fixture(scope="module")
def net():
    return RadioNetwork(gnp_connected(40, 0.25, seed=5))


@pytest.fixture(scope="module")
def protocol():
    return UniformProtocol(0.25)


def observed(run, *args, **kwargs):
    """Run a callable under a fresh ambient observer; return both."""
    obs = Observer(MetricsRegistry(), MemoryTraceSink())
    with use_observer(obs):
        result = run(*args, **kwargs)
    return result, obs


class TestNoOpPath:
    def test_no_ambient_observer_by_default(self):
        assert repro.current_observer() is None

    def test_observed_serial_run_is_bit_identical(self, net, protocol):
        plain = simulate("broadcast", net, protocol=protocol, seed=7)
        traced, obs = observed(simulate, "broadcast", net, protocol=protocol, seed=7)
        assert traced.records == plain.records
        assert traced.completed == plain.completed
        assert len(obs.sink.events) > 0

    def test_observed_batch_run_is_bit_identical(self, net, protocol):
        plain = run_broadcast_batch(net, protocol, repetitions=8, seed=3)
        traced, obs = observed(
            run_broadcast_batch, net, protocol, repetitions=8, seed=3
        )
        np.testing.assert_array_equal(
            traced.completion_rounds, plain.completion_rounds
        )
        np.testing.assert_array_equal(
            traced.informed_fractions, plain.informed_fractions
        )
        assert len(obs.sink.events) > 0

    def test_unobserved_run_emits_nothing(self, net, protocol):
        # A sink that is merely constructed — never installed — sees no
        # events, and no ambient observer leaks out of engine internals.
        sink = MemoryTraceSink()
        simulate("broadcast", net, protocol=protocol, seed=7)
        run_broadcast_batch(net, protocol, repetitions=4, seed=3)
        assert sink.events == []
        assert repro.current_observer() is None


SERIAL_CASES = [
    ("broadcast", lambda net: {"protocol": UniformProtocol(0.25)}),
    ("gossip", lambda net: {"protocol": UniformProtocol(0.25)}),
    (
        "multimessage",
        lambda net: {"protocol": UniformProtocol(0.25), "sources": [0, 1, 2]},
    ),
    ("push", lambda net: {}),
    ("push-pull", lambda net: {}),
    ("agents", lambda net: {"num_agents": 8}),
]


class TestEventStream:
    @pytest.mark.parametrize("name,make_kwargs", SERIAL_CASES)
    def test_every_dynamics_emits_schema_valid_events(
        self, net, name, make_kwargs
    ):
        obs = Observer(sink=MemoryTraceSink())
        trace = simulate(name, net, obs=obs, seed=11, **make_kwargs(net))
        events = obs.sink.events
        assert events, f"{name} emitted no events"
        for event in events:
            validate_event(event)
            assert event["dynamics"] == name
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "run-start"
        assert kinds[-1] == "run-end"
        assert kinds.count("round") == trace.num_rounds
        assert events[-1]["completed"] is True
        # round events correlate to the run through a shared run id.
        assert len({event["run"] for event in events}) == 1

    def test_round_events_carry_dynamics_extras(self, net, protocol):
        obs = Observer(sink=MemoryTraceSink())
        simulate("broadcast", net, obs=obs, seed=11, protocol=protocol)
        rounds = [e for e in obs.sink.events if e["kind"] == "round"]
        assert all("new" in e and "informed" in e for e in rounds)
        obs2 = Observer(sink=MemoryTraceSink())
        simulate("gossip", net, obs=obs2, seed=11, protocol=protocol)
        rounds = [e for e in obs2.sink.events if e["kind"] == "round"]
        assert all("pairs_known" in e and "nodes_complete" in e for e in rounds)

    def test_fault_rounds_carry_faults_subdict(self, net, protocol):
        plan = FaultPlan(links=LossyLinkModel(net.adj, 0.9))
        obs = Observer(sink=MemoryTraceSink())
        simulate(
            "broadcast", net, obs=obs, seed=11, protocol=protocol, faults=plan
        )
        events = obs.sink.events
        assert events[0]["faulty"] is True
        rounds = [e for e in events if e["kind"] == "round"]
        assert rounds
        for event in rounds:
            validate_event(event)
            assert set(event["faults"]) == {"alive", "forgot", "garbage"}

    def test_batch_engines_emit_batch_events(self, net, protocol):
        result, obs = observed(
            run_broadcast_batch, net, protocol, repetitions=8, seed=3
        )
        events = obs.sink.events
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "batch-start"
        assert events[0]["backend"] == current_backend_name()
        assert kinds[-1] == "batch-end"
        assert kinds.count("batch-round") == result.num_rounds
        for event in events:
            validate_event(event)
            assert event["engine"] == "broadcast-batch"
        assert events[-1]["num_completed"] == 8

    def test_gossip_batch_engine_name(self, net, protocol):
        _, obs = observed(
            run_gossip_batch, net, protocol, repetitions=4, seed=3
        )
        assert {e["engine"] for e in obs.sink.events} == {"gossip-batch"}
        for event in obs.sink.events:
            validate_event(event)


class TestRegistryCounters:
    def test_serial_counters_match_trace(self, net, protocol):
        trace, obs = observed(simulate, "broadcast", net, protocol=protocol, seed=7)
        reg = obs.registry
        label = "broadcast"
        assert reg.counter_value("round.count", label=label) == trace.num_rounds
        assert (
            reg.counter_value("round.transmissions", label=label)
            == trace.total_transmissions
        )
        assert (
            reg.counter_value("round.collisions", label=label)
            == trace.total_collisions
        )
        assert reg.counter_value("run.count", label=label) == 1
        assert reg.histogram("round.wall_s", label=label).count == trace.num_rounds

    def test_serial_kernel_path_counted(self):
        # A uniform 1/d broadcast on a graph above the gather's pre-check:
        # its sparse rounds gather, and counting them changes nothing.
        n = 4096
        d = 2 * math.log(n)
        big = RadioNetwork(gnp_connected(n, d / n, seed=8))
        proto = UniformProtocol(1 / d)
        plain = simulate("broadcast", big, protocol=proto, seed=9)
        traced, obs = observed(simulate, "broadcast", big, protocol=proto, seed=9)
        reg = obs.registry
        assert reg.counter_value("kernel.serial_calls", label="gather") > 0
        assert (
            reg.counter_value("kernel.serial_calls", label="gather")
            + reg.counter_value("kernel.serial_calls", label="matvec")
            == traced.num_rounds
        )
        assert traced.records == plain.records
        assert np.array_equal(traced.informer, plain.informer)
        assert np.array_equal(traced.informed_round, plain.informed_round)

    def test_batch_counters_match_result(self, net, protocol):
        result, obs = observed(
            run_broadcast_batch, net, protocol, repetitions=8, seed=3
        )
        reg = obs.registry
        label = protocol.name
        assert reg.counter_value("batch.rounds", label=label) == result.num_rounds
        assert (
            reg.counter_value("batch.transmissions", label=label)
            == result.total_transmissions
        )
        assert (
            reg.counter_value("batch.collisions", label=label)
            == result.total_collisions
        )


class TestUnifiedResultInterface:
    def test_serial_traces_satisfy_protocol(self, net, protocol):
        trace = simulate("broadcast", net, protocol=protocol, seed=7)
        gossip = simulate("gossip", net, protocol=protocol, seed=7)
        for result in (trace, gossip):
            assert isinstance(result, repro.SimulationResult)
            assert result.num_rounds == len(result.informed_curve()) - 1
            assert result.total_transmissions >= 0

    def test_batch_results_satisfy_protocol_with_stats(self, net, protocol):
        result = run_broadcast_batch(
            net, protocol, repetitions=8, seed=3, with_stats=True
        )
        assert isinstance(result, repro.SimulationResult)
        assert result.completed is True
        assert len(result.informed_curve()) == result.num_rounds + 1
        assert result.informed_curve()[0] == 8  # sources of 8 trials
        assert result.total_transmissions > 0

    def test_batch_stats_unavailable_without_flag(self, net, protocol):
        result = run_broadcast_batch(net, protocol, repetitions=8, seed=3)
        with pytest.raises(ValueError, match="with_stats=True"):
            result.total_transmissions
        with pytest.raises(ValueError, match="with_stats=True"):
            result.informed_curve()

    def test_observer_implies_stats_collection(self, net, protocol):
        result, _ = observed(
            run_broadcast_batch, net, protocol, repetitions=8, seed=3
        )
        assert result.total_transmissions > 0  # no ValueError

    def test_stats_do_not_perturb_trials(self, net, protocol):
        plain = run_broadcast_batch(net, protocol, repetitions=8, seed=3)
        stats = run_broadcast_batch(
            net, protocol, repetitions=8, seed=3, with_stats=True
        )
        np.testing.assert_array_equal(
            plain.completion_rounds, stats.completion_rounds
        )

    def test_rounds_executed_removed(self, net, protocol):
        # Deprecated in PR 4, removed in PR 9: num_rounds is the one name.
        broadcast = run_broadcast_batch(net, protocol, repetitions=4, seed=3)
        gossip = run_gossip_batch(net, protocol, repetitions=4, seed=3)
        for result in (broadcast, gossip):
            assert not hasattr(result, "rounds_executed")
            assert result.num_rounds >= 1
