"""Tests for the parallel sweep executor (jobs-independence, seeding).

Results are read through ``TaskOutcome.unwrap()``, the view for callers
that treat a failed task as fatal.
"""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.experiments.parallel import (
    SweepTask,
    child_seed_int,
    run_catalog_supervised,
    run_supervised_sweep,
)
from repro.experiments.resilient import run_resilient_sweep
from repro.rng import spawn_seeds


def unwrapped_sweep(tasks, **kwargs):
    """Task results in task order; raises on the first failed task."""
    return [outcome.unwrap() for outcome in run_supervised_sweep(tasks, **kwargs)]


def unwrapped_catalog(experiment_ids, **kwargs):
    return [outcome.unwrap() for outcome in run_catalog_supervised(experiment_ids, **kwargs)]


def _draw(seed, count=4):
    """Module-level so it pickles into worker processes."""
    return list(np.random.default_rng(seed).random(count))


def _sweep_mean(seed, trials=5):
    """A resilient sub-sweep as one parallel config (module-level)."""
    result = run_resilient_sweep(
        lambda index, rng: _trial(index, rng), trials, seed=seed
    )
    return result.mean_rounds()


def _trial(index, rng):
    from repro.experiments.resilient import TrialOutcome

    return TrialOutcome(completed=True, rounds=float(rng.integers(1, 100)), informed_fraction=1.0)


class TestRunParallelSweep:
    def test_results_in_task_order(self):
        tasks = [SweepTask(key=f"t{i}", fn=_draw, kwargs={"count": i + 1}) for i in range(3)]
        results = unwrapped_sweep(tasks, jobs=1, seed=0)
        assert [len(r) for r in results] == [1, 2, 3]

    def test_jobs_do_not_change_results(self):
        tasks = [SweepTask(key=f"t{i}", fn=_draw) for i in range(5)]
        serial = unwrapped_sweep(tasks, jobs=1, seed=123)
        fanned = unwrapped_sweep(tasks, jobs=3, seed=123)
        assert serial == fanned

    def test_configs_get_distinct_streams(self):
        tasks = [SweepTask(key=f"t{i}", fn=_draw) for i in range(6)]
        results = unwrapped_sweep(tasks, jobs=1, seed=9)
        firsts = [r[0] for r in results]
        assert len(set(firsts)) == 6

    def test_seed_changes_results(self):
        tasks = [SweepTask(key="t", fn=_draw)]
        a = unwrapped_sweep(tasks, jobs=1, seed=1)
        b = unwrapped_sweep(tasks, jobs=1, seed=2)
        assert a != b

    def test_rejects_bad_jobs(self):
        with pytest.raises(InvalidParameterError):
            unwrapped_sweep([SweepTask(key="t", fn=_draw)], jobs=0, seed=0)

    def test_empty_tasks(self):
        assert unwrapped_sweep([], jobs=2, seed=0) == []


class TestResilientComposition:
    def test_parallel_resilient_sweeps_match_serial(self):
        # Each config is a whole resilient sweep seeded by its spawned
        # child; worker-process execution must not change any trial.
        tasks = [
            SweepTask(key=f"cfg{i}", fn=_sweep_mean, kwargs={"trials": 4})
            for i in range(3)
        ]
        serial = unwrapped_sweep(tasks, jobs=1, seed=77)
        fanned = unwrapped_sweep(tasks, jobs=2, seed=77)
        assert serial == fanned

    def test_sibling_configs_have_distinct_trial_streams(self):
        # Spawned children share entropy and differ only by spawn_key;
        # the resilient engine's per-trial derivation must preserve it
        # (the pre-fix behaviour collapsed all siblings onto one stream).
        means = unwrapped_sweep(
            [SweepTask(key=f"cfg{i}", fn=_sweep_mean) for i in range(4)],
            jobs=1,
            seed=5,
        )
        assert len(set(means)) == 4

    def test_spawned_children_derive_distinct_attempt_rngs(self):
        from repro.experiments.resilient import _attempt_rng

        kids = spawn_seeds(0, 2)
        a = _attempt_rng(kids[0], 0, 0).random()
        b = _attempt_rng(kids[1], 0, 0).random()
        assert a != b


class TestChildSeedInt:
    def test_deterministic_and_distinct(self):
        kids = spawn_seeds(42, 8)
        ints = [child_seed_int(k) for k in kids]
        again = [child_seed_int(k) for k in spawn_seeds(42, 8)]
        assert ints == again
        assert len(set(ints)) == 8


class TestRunCatalogParallel:
    def test_jobs_identity_on_experiments(self):
        # The CLI acceptance property: run-all --jobs 1 and --jobs 2 emit
        # byte-identical tables for the same root seed.  E7 is the
        # cheapest catalogued experiment; two instances force real
        # worker-process fan-out on the jobs=2 side.
        serial = unwrapped_catalog(["E7", "E7"], quick=True, seed=3, jobs=1)
        fanned = unwrapped_catalog(["E7", "E7"], quick=True, seed=3, jobs=2)
        assert [r.table() for r in serial] == [r.table() for r in fanned]
        # Distinct child seeds: the two instances are different sweeps.
        assert serial[0].table() != serial[1].table()

    def test_result_order_matches_request(self):
        results = unwrapped_catalog(["E7", "E7"], quick=True, seed=1, jobs=1)
        assert [r.experiment_id for r in results] == ["E7", "E7"]
