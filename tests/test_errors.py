"""Unit tests for the exception hierarchy."""

import pytest

from repro import simulate
from repro.errors import (
    BroadcastIncompleteError,
    DisconnectedGraphError,
    GraphError,
    InvalidParameterError,
    ReproError,
    ScheduleError,
    SimulationError,
)


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (
            GraphError,
            DisconnectedGraphError,
            InvalidParameterError,
            ScheduleError,
            SimulationError,
            BroadcastIncompleteError,
        ):
            assert issubclass(exc, ReproError)

    def test_disconnected_is_graph_error(self):
        assert issubclass(DisconnectedGraphError, GraphError)

    def test_incomplete_is_simulation_error(self):
        assert issubclass(BroadcastIncompleteError, SimulationError)

    def test_invalid_parameter_is_value_error(self):
        # Callers using plain `except ValueError` still catch bad params.
        assert issubclass(InvalidParameterError, ValueError)

    def test_single_catch_all(self):
        with pytest.raises(ReproError):
            raise DisconnectedGraphError("x")


class TestBroadcastIncomplete:
    def test_carries_trace(self):
        err = BroadcastIncompleteError("partial", trace="sentinel")
        assert err.trace == "sentinel"
        assert "partial" in str(err)

    def test_trace_optional(self):
        assert BroadcastIncompleteError("x").trace is None

    def test_real_usage_has_trace(self, star10):
        import numpy as np

        from repro.radio import FunctionProtocol, RadioNetwork

        silent = FunctionProtocol(
            lambda t, i, ir, rng: np.zeros(i.size, dtype=bool), name="silent"
        )
        with pytest.raises(BroadcastIncompleteError) as exc:
            simulate("broadcast", RadioNetwork(star10), protocol=silent, source=0, max_rounds=3)
        assert exc.value.trace.num_rounds == 3
