"""Parallel sweep executor: fan independent configs over worker processes.

A sweep is a list of independent configurations (one experiment, one
parameter cell, one resilient sub-sweep) that share nothing but a root
seed.  This module runs them concurrently without changing what they
compute:

* **stateless seed derivation** — every config receives a child of the
  root ``SeedSequence`` (``spawn_seeds(seed, len(tasks))``), derived
  *before* any work is scheduled.  The derivation depends only on the
  root seed and the config's position, never on worker scheduling — or
  on how many crash-recovery retries the supervisor needed — so
  ``jobs=1`` and ``jobs=N`` produce byte-identical results;
* **supervised execution** — the pool work is driven by
  :mod:`repro.experiments.supervisor`: per-task wall-clock deadlines,
  bounded retry on worker crashes (each retry reuses the task's
  original child seed), pool rebuilds, and graceful degradation to
  serial in-process execution.  :func:`run_supervised_sweep` surfaces
  the structured :class:`~repro.experiments.supervisor.TaskOutcome`
  records; :meth:`~repro.experiments.supervisor.TaskOutcome.unwrap`
  turns one into its result, or raises for a failed task;
* **checkpoint composition** — tasks may themselves be
  :func:`~repro.experiments.resilient.run_resilient_sweep` calls: each
  child ``SeedSequence`` carries a distinct ``spawn_key``, which the
  resilient engine's per-(trial, attempt) derivation preserves, so two
  parallel sweep configs never collide on trial streams even though all
  children share the root's entropy.  On top of that, a sweep-level
  :class:`~repro.experiments.supervisor.SweepTaskCheckpoint` lets an
  interrupted ``run-all --jobs N`` resume past completed experiments.

``repro run-all --jobs N`` (and ``repro run --jobs N``) route through
:func:`run_catalog_supervised`; ``--fabric`` routes the same task list
through :func:`run_catalog_fabric`, which shards it over the multi-host
coordinator/worker fabric (:mod:`repro.experiments.fabric`) with
identical seed discipline — the two paths are byte-identical.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .._typing import SeedLike
from .catalog import get_experiment
from .runner import ExperimentResult
from .supervisor import (
    SweepTask,
    SweepTaskCheckpoint,
    TaskOutcome,
    run_supervised_sweep,
)

__all__ = [
    "SweepTask",
    "run_supervised_sweep",
    "run_catalog_supervised",
    "run_catalog_fabric",
    "child_seed_int",
    "outcomes_payload",
]


def child_seed_int(child: np.random.SeedSequence) -> int:
    """Collapse a spawned child into a plain integer seed.

    Experiment runners (and their checkpoint ``config_key`` strings)
    traffic in integer seeds; the first word of the child's generated
    state is a deterministic 64-bit digest of ``(entropy, spawn_key)``,
    so distinct configs keep distinct streams.
    """
    return int(child.generate_state(1, np.uint64)[0])


def _run_catalog_task(
    seed: np.random.SeedSequence,
    *,
    experiment_id: str,
    quick: bool,
    checkpoint: str | None,
    resume: bool,
) -> ExperimentResult:
    spec = get_experiment(experiment_id)
    return spec(
        quick=quick,
        seed=child_seed_int(seed),
        checkpoint=checkpoint,
        resume=resume,
    )


def _catalog_checkpoint(
    checkpoint: str | None,
    experiment_ids: Sequence[str],
    quick: bool,
    seed: SeedLike,
) -> SweepTaskCheckpoint | None:
    """The sweep-level checkpoint for a catalog run, if requested.

    Lives alongside the per-experiment trial checkpoints in the same
    directory.  The config key pins the id list (child seeds depend on
    task position), the mode and the root seed, so a resume under any
    different configuration refuses to mix.
    """
    if checkpoint is None:
        return None
    from hashlib import sha1

    from ..io import result_from_payload, result_to_payload

    key = f"catalog:quick={quick}:seed={seed}:ids={','.join(experiment_ids)}"
    # One manifest per configuration: `run E14` and `run-all` can share a
    # checkpoint directory without tripping the refuse-to-mix guard.
    digest = sha1(key.encode()).hexdigest()[:10]
    return SweepTaskCheckpoint(
        Path(checkpoint) / f"catalog-tasks-{digest}.json",
        config_key=key,
        encode=result_to_payload,
        decode=result_from_payload,
    )


def _catalog_tasks(
    experiment_ids: Sequence[str],
    quick: bool,
    checkpoint: str | None,
    resume: bool,
) -> list[SweepTask]:
    """One :class:`SweepTask` per catalogued experiment, keyed by its id."""
    return [
        SweepTask(
            key=experiment_id,
            fn=_run_catalog_task,
            kwargs={
                "experiment_id": experiment_id,
                "quick": quick,
                "checkpoint": checkpoint,
                "resume": resume,
            },
        )
        for experiment_id in experiment_ids
    ]


def run_catalog_supervised(
    experiment_ids: Sequence[str],
    *,
    quick: bool = True,
    seed: SeedLike = 0,
    jobs: int = 1,
    checkpoint: str | None = None,
    resume: bool = False,
    task_timeout: float | None = None,
    max_task_retries: int = 2,
) -> list[TaskOutcome]:
    """Run catalogued experiments as a supervised parallel sweep.

    Each experiment is one :class:`SweepTask` receiving an integer seed
    digested from its spawned child (:func:`child_seed_int`), so the
    result tables are a pure function of ``(experiment_ids, quick,
    seed)`` — independent of ``jobs`` and of any crash recovery.
    ``checkpoint``/``resume`` serve double duty: they are forwarded to
    experiments that support trial-level checkpointing, *and* they back
    a sweep-level :class:`~repro.experiments.supervisor.SweepTaskCheckpoint`
    (``<checkpoint>/catalog-tasks.json``) that lets a resumed run skip
    experiments that already completed.

    Returns outcomes (``ok`` / ``timeout`` / ``crashed`` / ``error``) in
    catalog order — a poisoned experiment degrades to a failed outcome
    instead of aborting its siblings.
    """
    return run_supervised_sweep(
        _catalog_tasks(experiment_ids, quick, checkpoint, resume),
        jobs=jobs,
        seed=seed,
        task_timeout=task_timeout,
        max_task_retries=max_task_retries,
        checkpoint=_catalog_checkpoint(checkpoint, experiment_ids, quick, seed),
        resume=resume,
    )


def run_catalog_fabric(
    experiment_ids: Sequence[str],
    *,
    quick: bool = True,
    seed: SeedLike = 0,
    listen: str = "127.0.0.1:0",
    workers: int = 0,
    checkpoint: str | None = None,
    resume: bool = False,
    task_timeout: float | None = None,
    max_task_retries: int = 2,
) -> list[TaskOutcome]:
    """Run catalogued experiments on the multi-host sweep fabric.

    The fabric twin of :func:`run_catalog_supervised`: the same task
    list, seed derivation and sweep-level checkpoint manifest, executed
    by :func:`~repro.experiments.fabric.run_fabric_sweep` instead of the
    local pool — so ``run-all --jobs 1`` and ``run-all --fabric :0
    --workers N`` produce byte-identical tables, and an interrupted
    fabric run resumes from the same manifest a pool run would.

    ``workers=0`` listens on ``listen`` for externally started ``repro
    worker --connect`` processes and degrades to in-process execution
    when none arrive; ``workers=N`` spawns N loopback workers.
    """
    from .fabric import run_fabric_sweep

    return run_fabric_sweep(
        _catalog_tasks(experiment_ids, quick, checkpoint, resume),
        seed=seed,
        listen=listen,
        workers=workers,
        task_timeout=task_timeout,
        max_task_retries=max_task_retries,
        checkpoint=_catalog_checkpoint(checkpoint, experiment_ids, quick, seed),
        resume=resume,
    )


def outcomes_payload(outcomes: Sequence[TaskOutcome]) -> dict:
    """A catalog sweep's outcomes in the pinned wire schema.

    The JSON document shared by ``repro run-all --json`` and the job
    server's ``POST /v1/sweeps`` responses.  Only the *deterministic*
    outcome fields appear — wall-clock ``elapsed`` and executor ``host``
    attribution are dropped — so the document is a pure function of
    ``(experiment_ids, quick, seed)`` and therefore content-addressable:
    a cold sweep and a cached replay serialise to identical bytes.
    """
    from ..io import result_wire
    from ..schema import RESULT_SCHEMA_VERSION

    return {
        "schema_version": RESULT_SCHEMA_VERSION,
        "kind": "experiment-sweep",
        "outcomes": [
            {
                "key": outcome.key,
                "status": outcome.status,
                "attempts": outcome.attempts,
                "error": outcome.error,
                "result": result_wire(outcome.result) if outcome.ok else None,
            }
            for outcome in outcomes
        ],
    }
