"""Unit tests for experiment result containers and helpers."""

import math

import numpy as np
import pytest

from repro.broadcast.distributed import UniformProtocol
from repro.errors import InvalidParameterError
from repro.experiments.runner import (
    ExperimentResult,
    aggregate,
    gossip_times,
    protocol_times,
    scheduler_rounds,
)
from repro.graphs import gnp_connected
from repro.radio import FunctionProtocol, RadioNetwork
from repro.theory.fitting import linear_fit


def flood():
    """A protocol without a lockstep path: always transmit."""
    return FunctionProtocol(
        lambda t, informed, informed_round, rng: np.ones(informed.size, dtype=bool),
        name="flood",
    )


class TestAggregate:
    def test_values(self):
        agg = aggregate([1, 2, 3, 4])
        assert agg["mean"] == 2.5
        assert agg["min"] == 1 and agg["max"] == 4
        assert agg["std"] == pytest.approx(np.std([1, 2, 3, 4], ddof=1))

    def test_single_value(self):
        agg = aggregate([5])
        assert agg["std"] == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestExperimentResult:
    def make(self):
        res = ExperimentResult(
            experiment_id="EX",
            title="demo",
            claim="something grows",
            columns=["n", "t"],
            rows=[{"n": 10, "t": 4.0}, {"n": 100, "t": 8.0}],
        )
        res.fits["t vs ln n"] = linear_fit(
            np.log([10.0, 100.0]), np.array([4.0, 8.0]), "ln n"
        )
        res.notes.append("a note")
        return res

    def test_table_contains_everything(self):
        out = self.make().table()
        assert "[EX] demo" in out
        assert "fit t vs ln n" in out
        assert "note: a note" in out

    def test_markdown(self):
        out = self.make().to_markdown()
        assert out.startswith("### EX")
        assert "*Claim:*" in out
        assert "| n | t |" in out

    def test_column_extraction(self):
        res = self.make()
        assert list(res.column("t")) == [4.0, 8.0]

    def test_column_missing_is_nan(self):
        res = self.make()
        res.rows.append({"n": 5})
        assert math.isnan(res.column("t")[-1])


class TestMeasurementHelpers:
    def test_protocol_times_finite(self, gnp_small):
        times = protocol_times(
            RadioNetwork(gnp_small),
            UniformProtocol(0.1),
            repetitions=3,
            seed=0,
        )
        assert times.shape == (3,)
        assert np.all(np.isfinite(times))

    def test_protocol_times_inf_on_budget_miss(self, gnp_small):
        times = protocol_times(
            RadioNetwork(gnp_small),
            UniformProtocol(1.0),  # permanent flooding deadlocks
            repetitions=2,
            seed=0,
            max_rounds=30,
        )
        assert np.all(np.isinf(times))

    @pytest.mark.parametrize("repetitions", [0, -1])
    @pytest.mark.parametrize("sweep", [protocol_times, gossip_times])
    def test_repetition_count_must_be_positive(self, gnp_small, sweep, repetitions):
        # Both the lockstep (uniform) and the serial (flood) dispatch reject
        # it up front, before numpy sees a bad array shape.
        for protocol in (UniformProtocol(0.1), flood()):
            with pytest.raises(InvalidParameterError, match="repetitions"):
                sweep(RadioNetwork(gnp_small), protocol, repetitions=repetitions, seed=0)

    def test_scheduler_rounds(self):
        from repro.broadcast.centralized import GreedyCoverScheduler

        graphs = [gnp_connected(60, 0.15, seed=s) for s in (1, 2)]
        rounds = scheduler_rounds(lambda: GreedyCoverScheduler(seed=0), graphs)
        assert rounds.shape == (2,)
        assert np.all(rounds >= 1)
