"""Experiment harness: the per-claim reproduction catalog (E1–E12).

The paper states asymptotic bounds rather than tables; every experiment in
:mod:`~repro.experiments.catalog` reproduces the *shape* of one stated
claim (see DESIGN.md §4 for the index).  Usage::

    from repro.experiments import run_experiment, EXPERIMENTS
    result = run_experiment("E4", quick=True, seed=0)
    print(result.table())

The benchmark files under ``benchmarks/`` and the CLI both route through
:func:`run_experiment`.

Long fault sweeps run on the resilient engine
(:func:`~repro.experiments.resilient.run_resilient_sweep`): per-trial
retry with fresh derived seeds, JSON checkpoint/resume, and structured
failure records instead of aborted tables.

Independent sweep configs fan out over worker processes through
:func:`~repro.experiments.supervisor.run_supervised_sweep`; per-config
seeds are spawned from the root before scheduling, so results never
depend on the worker count (``repro run-all --jobs N``).  Each task ends
as a :class:`~repro.experiments.supervisor.TaskOutcome`;
``outcome.unwrap()`` returns its result or raises its failure.

The same sweeps shard across machines through the fault-tolerant
coordinator/worker fabric (:func:`~repro.experiments.fabric.run_fabric_sweep`,
``repro run-all --fabric``) with identical seed discipline: leases,
heartbeats, requeues and work stealing never change a single byte of
the results.
"""

from .catalog import EXPERIMENTS, get_experiment, run_experiment
from .fabric import run_fabric_sweep, run_worker
from .parallel import SweepTask, run_catalog_fabric, run_catalog_supervised
from .report import format_markdown_table, format_table
from .resilient import (
    SweepCheckpoint,
    SweepResult,
    TrialOutcome,
    TrialRecord,
    run_resilient_sweep,
)
from .runner import ExperimentResult, aggregate, outcomes_table
from .supervisor import (
    SweepTaskCheckpoint,
    TaskOutcome,
    outcome_counts,
    run_supervised_sweep,
)

__all__ = [
    "EXPERIMENTS",
    "get_experiment",
    "run_experiment",
    "ExperimentResult",
    "aggregate",
    "outcomes_table",
    "format_table",
    "format_markdown_table",
    "run_resilient_sweep",
    "SweepResult",
    "SweepCheckpoint",
    "TrialRecord",
    "TrialOutcome",
    "SweepTask",
    "TaskOutcome",
    "SweepTaskCheckpoint",
    "outcome_counts",
    "run_supervised_sweep",
    "run_fabric_sweep",
    "run_worker",
    "run_catalog_supervised",
    "run_catalog_fabric",
]
