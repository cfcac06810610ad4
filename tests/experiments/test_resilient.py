"""Unit tests for the resilient sweep engine + the robustness acceptance demos."""

import json
import math

import numpy as np
import pytest

from repro import simulate
from repro.broadcast.distributed import EGRandomizedProtocol, EpochRestartProtocol
from repro.errors import InvalidParameterError, ReproError
from repro.experiments.resilient import (
    STATUS_ERROR,
    STATUS_INCOMPLETE,
    STATUS_OK,
    SweepCheckpoint,
    TrialOutcome,
    TrialRecord,
    run_resilient_sweep,
)
from repro.faults import ChurnSchedule, FaultPlan
from repro.graphs import gnp_connected
from repro.radio import RadioNetwork


def ok_trial(index, rng):
    return TrialOutcome(completed=True, rounds=10.0 + index,
                        informed_fraction=1.0)


class TestRunResilientSweep:
    def test_all_ok(self):
        res = run_resilient_sweep(ok_trial, 4, seed=0)
        assert res.num_trials == 4
        assert res.completion_fraction == 1.0
        assert res.failure_counts() == {}
        assert res.mean_rounds() == pytest.approx(11.5)

    def test_trial_rng_is_deterministic(self):
        draws = {}

        def trial(index, rng):
            draws.setdefault(index, []).append(rng.random())
            return ok_trial(index, rng)

        run_resilient_sweep(trial, 3, seed=42)
        run_resilient_sweep(trial, 3, seed=42)
        for vals in draws.values():
            assert vals[0] == vals[1]

    def test_retry_uses_fresh_stream_then_succeeds(self):
        seen = {}

        def flaky(index, rng):
            seen.setdefault(index, []).append(rng.random())
            if index == 1 and len(seen[1]) == 1:
                raise RuntimeError("transient")
            return ok_trial(index, rng)

        res = run_resilient_sweep(flaky, 3, seed=0, max_attempts=3)
        assert res.completion_fraction == 1.0
        rec = res.records[1]
        assert rec.attempts == 2
        assert rec.status == STATUS_OK
        # Attempt 2 ran on an independent child stream.
        assert seen[1][0] != seen[1][1]

    def test_error_after_max_attempts_does_not_abort_sweep(self):
        def doomed(index, rng):
            if index == 0:
                raise ValueError("poisoned trial")
            return ok_trial(index, rng)

        res = run_resilient_sweep(doomed, 3, seed=0, max_attempts=2)
        assert res.num_trials == 3
        rec = res.records[0]
        assert rec.status == STATUS_ERROR
        assert rec.attempts == 2
        assert "poisoned" in rec.error
        assert math.isinf(rec.rounds)
        assert res.failure_counts() == {STATUS_ERROR: 1}

    def test_incomplete_outcome_recorded_not_retried(self):
        calls = {"n": 0}

        def stalls(index, rng):
            calls["n"] += 1
            return TrialOutcome(completed=False, rounds=float("inf"),
                                informed_fraction=0.25)

        res = run_resilient_sweep(stalls, 2, seed=0, max_attempts=5)
        assert calls["n"] == 2  # a budget miss is measured, not retried
        for rec in res.records:
            assert rec.status == STATUS_INCOMPLETE
            assert rec.informed_fraction == 0.25
        # No successful trial anywhere: the aggregate degrades to inf.
        assert res.mean_rounds() == float("inf")
        assert res.completion_fraction == 0.0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            run_resilient_sweep(ok_trial, 0)
        with pytest.raises(InvalidParameterError):
            run_resilient_sweep(ok_trial, 1, max_attempts=0)


class TestCheckpointResume:
    def test_interrupted_resume_matches_uninterrupted(self, tmp_path):
        """Acceptance demo (a): kill-and-resume == one uninterrupted run."""
        draws = {}

        def trial(index, rng):
            draws[index] = rng.random()
            return TrialOutcome(completed=True, rounds=draws[index],
                                informed_fraction=1.0)

        uninterrupted = run_resilient_sweep(trial, 6, seed=7)
        ck = tmp_path / "sweep.json"
        # "Kill" the sweep after 2 trials, then resume twice.
        partial = run_resilient_sweep(
            trial, 6, seed=7, checkpoint=ck, config_key="demo",
            max_trials_this_run=2,
        )
        assert partial.num_trials == 2
        resumed = run_resilient_sweep(
            trial, 6, seed=7, checkpoint=ck, config_key="demo", resume=True,
            max_trials_this_run=2,
        )
        assert resumed.num_trials == 4
        final = run_resilient_sweep(
            trial, 6, seed=7, checkpoint=ck, config_key="demo", resume=True,
        )
        assert final.num_trials == 6
        # Bit-identical rounds and aggregates.
        assert np.array_equal(final.rounds(), uninterrupted.rounds())
        assert final.summary() == uninterrupted.summary()

    def test_config_key_mismatch_refuses_to_mix(self, tmp_path):
        ck = tmp_path / "sweep.json"
        run_resilient_sweep(ok_trial, 2, seed=0, checkpoint=ck, config_key="a")
        with pytest.raises(ReproError, match="refusing to mix"):
            run_resilient_sweep(
                ok_trial, 2, seed=0, checkpoint=ck, config_key="b", resume=True
            )

    def test_malformed_checkpoint_quarantined(self, tmp_path):
        """A corrupt file restarts the sweep fresh instead of crashing."""
        ck = tmp_path / "sweep.json"
        ck.write_text("not json at all")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            records = SweepCheckpoint(ck).load()
        assert records == {}
        assert not ck.exists()
        quarantined = tmp_path / "sweep.json.corrupt"
        assert quarantined.read_text() == "not json at all"

    @pytest.mark.parametrize(
        "garbage",
        ['{"records": []}', '{"config_key": "k", "records": "nope"}', "[1, 2]"],
    )
    def test_truncated_payload_quarantined(self, tmp_path, garbage):
        ck = tmp_path / "sweep.json"
        ck.write_text(garbage)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert SweepCheckpoint(ck, "k").load() == {}

    def test_resume_restarts_fresh_after_quarantine(self, tmp_path):
        """An end-to-end resume over a corrupt checkpoint reruns everything."""
        ck = tmp_path / "sweep.json"
        ck.write_text('{"truncated')
        with pytest.warns(RuntimeWarning, match="quarantined"):
            res = run_resilient_sweep(
                ok_trial, 3, seed=0, checkpoint=ck, config_key="k", resume=True
            )
        assert res.num_trials == 3
        assert res.completion_fraction == 1.0
        # The rerun rewrote a healthy checkpoint at the original path.
        assert len(SweepCheckpoint(ck, "k").load()) == 3

    def test_checkpoint_file_is_valid_json_with_sorted_records(self, tmp_path):
        ck = tmp_path / "sweep.json"
        run_resilient_sweep(ok_trial, 3, seed=0, checkpoint=ck, config_key="k")
        payload = json.loads(ck.read_text())
        assert payload["config_key"] == "k"
        assert [r["index"] for r in payload["records"]] == [0, 1, 2]
        loaded = SweepCheckpoint(ck, "k").load()
        assert loaded[1] == TrialRecord.from_json(payload["records"][1])

    def test_checkpoint_every_batches_flushes(self, tmp_path):
        ck = tmp_path / "sweep.json"
        flushes = []
        real_save = SweepCheckpoint.save

        class CountingCheckpoint(SweepCheckpoint):
            def save(self, records):
                flushes.append(len(records))
                real_save(self, records)

        run_resilient_sweep(
            ok_trial, 5, seed=0,
            checkpoint=CountingCheckpoint(ck, ""), checkpoint_every=2,
        )
        # Flushes at 2, 4 and a final partial flush of 5.
        assert flushes == [2, 4, 5]
        assert len(SweepCheckpoint(ck, "").load()) == 5


class TestChurnResilienceDemo:
    """Acceptance demo (b): epoch restart completes where stock EG stalls."""

    @pytest.fixture(scope="class")
    def churn_setup(self):
        n = 256
        d = 4.0 * math.log(n)
        p = d / n
        g = gnp_connected(n, p, seed=42)
        return g, n, p

    def _sweep(self, churn_setup, proto_factory, trials=6):
        g, n, p = churn_setup
        net = RadioNetwork(g)

        def trial(index, rng):
            plan = FaultPlan(
                churn=ChurnSchedule.random(
                    n, 0.6, 120, mean_downtime=40.0, seed=rng, protect=[0]
                )
            )
            return simulate(
                "broadcast", net, protocol=proto_factory(), faults=plan, seed=rng, p=p,
                max_rounds=600, check_connected=False, raise_on_incomplete=False,
            )

        return run_resilient_sweep(trial, trials, seed=3)

    def test_stock_strict_protocol_stalls_under_churn(self, churn_setup):
        g, n, p = churn_setup
        res = self._sweep(
            churn_setup,
            lambda: EGRandomizedProtocol(n, p, strict_participation=True),
        )
        assert res.completion_fraction < 1.0
        # Failures land as structured records with partial progress, not
        # as exceptions.
        failed = [r for r in res.records if r.status != STATUS_OK]
        assert failed
        for rec in failed:
            assert rec.status == STATUS_INCOMPLETE
            assert 0.0 < rec.informed_fraction < 1.0
            assert math.isinf(rec.rounds)

    def test_epoch_restart_completes_under_same_churn(self, churn_setup):
        g, n, p = churn_setup
        res = self._sweep(
            churn_setup,
            lambda: EpochRestartProtocol.for_eg(n, p, strict_participation=True),
        )
        assert res.completion_fraction == 1.0
        assert all(np.isfinite(res.rounds()))
