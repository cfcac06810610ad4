"""Round-trip tests for the pinned result wire schema (repro.schema).

Every result type must survive ``to_dict`` → JSON → ``from_dict`` with
its semantics intact, and the generic :func:`repro.schema.result_from_dict`
dispatcher must route each document to the right type — this is the
contract shared by ``repro run --json``, the job server's responses and
the content-addressed result cache.
"""

import json
import math

import numpy as np
import pytest

from repro import (
    DecayProtocol,
    RESULT_SCHEMA_VERSION,
    RadioNetwork,
    gnp_connected,
    result_from_dict,
    simulate,
)
from repro.errors import ReproError
from repro.gossip import run_gossip_batch
from repro.radio.engine import run_broadcast_batch
from repro.schema import canonical_json, decode_curve, encode_curve


@pytest.fixture
def net():
    return RadioNetwork(gnp_connected(40, 0.25, seed=3))


@pytest.fixture
def protocol():
    return DecayProtocol(40)


def wire_round_trip(result):
    """to_dict → JSON text → from_dict → to_dict, asserting byte equality."""
    doc = result.to_dict()
    text = json.dumps(doc)
    again = result_from_dict(json.loads(text))
    assert canonical_json(again.to_dict()) == canonical_json(doc)
    return again


class TestBroadcastTraceRoundTrip:
    def test_round_trip_equality(self, net, protocol):
        trace = simulate("broadcast", net, protocol=protocol, seed=5)
        again = wire_round_trip(trace)
        assert again.completed == trace.completed
        assert again.num_rounds == trace.num_rounds
        assert again.total_transmissions == trace.total_transmissions
        np.testing.assert_array_equal(
            again.informed_curve(), trace.informed_curve()
        )

    def test_schema_version_pinned(self, net, protocol):
        doc = simulate("broadcast", net, protocol=protocol, seed=5).to_dict()
        assert doc["schema_version"] == RESULT_SCHEMA_VERSION
        assert doc["kind"] == "broadcast-trace"


class TestGossipTraceRoundTrip:
    def test_round_trip_equality(self, net, protocol):
        trace = simulate("gossip", net, protocol=protocol, seed=5)
        again = wire_round_trip(trace)
        assert again.completed == trace.completed
        assert again.num_rounds == trace.num_rounds
        assert again.tokens == trace.tokens
        np.testing.assert_array_equal(
            again.knowledge_counts, trace.knowledge_counts
        )


class TestBatchResultsRoundTrip:
    def test_broadcast_batch(self, net, protocol):
        batch = run_broadcast_batch(
            net, protocol, repetitions=5, seed=4, with_stats=True
        )
        again = wire_round_trip(batch)
        assert again.num_completed == batch.num_completed
        np.testing.assert_array_equal(
            again.completion_rounds, batch.completion_rounds
        )

    def test_gossip_batch(self, net, protocol):
        batch = run_gossip_batch(net, protocol, repetitions=5, seed=4)
        again = wire_round_trip(batch)
        assert again.num_completed == batch.num_completed
        np.testing.assert_array_equal(
            again.completion_rounds, batch.completion_rounds
        )

    def test_incomplete_runs_carry_inf_through_json(self, net, protocol):
        # Strict JSON has no Infinity: budget misses encode as null and
        # decode back to inf.
        batch = run_broadcast_batch(
            net, protocol, repetitions=5, seed=4, max_rounds=2
        )
        assert np.isinf(batch.completion_rounds).any()
        again = wire_round_trip(batch)
        np.testing.assert_array_equal(
            np.isinf(again.completion_rounds), np.isinf(batch.completion_rounds)
        )


class TestCurveCodec:
    def test_encode_decode(self):
        values = [1.0, math.inf, 3.5]
        encoded = encode_curve(values)
        assert encoded == [1.0, None, 3.5]
        decoded = decode_curve(encoded)
        assert decoded.dtype == np.float64
        np.testing.assert_array_equal(decoded, np.array([1.0, math.inf, 3.5]))


class TestDispatcher:
    def test_simulate_results_dispatch(self):
        graph = {"n": 30, "p": 0.3, "seed": 1}
        result = simulate(
            "broadcast", graph, protocol=DecayProtocol(30), seed=2
        )
        again = result_from_dict(result.to_dict())
        assert type(again) is type(result)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError, match="kind"):
            result_from_dict(
                {"schema_version": RESULT_SCHEMA_VERSION, "kind": "nope"}
            )

    def test_wrong_version_rejected(self, net, protocol):
        doc = simulate("broadcast", net, protocol=protocol, seed=5).to_dict()
        doc["schema_version"] = RESULT_SCHEMA_VERSION + 1
        with pytest.raises(ReproError, match="schema_version"):
            result_from_dict(doc)
