"""Parallel sweep executor: fan independent configs over worker processes.

A sweep is a list of independent configurations (one experiment, one
parameter cell) that share nothing but a root seed.  This module runs
them concurrently without changing what they compute:

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
* **one store** — with a ``checkpoint`` directory, every completed
  experiment's result lands in a content-addressed
  :class:`~repro.serve.cache.ResultCache` rooted there, keyed by its
  task's function, kwargs and seed child
  (:func:`~repro.experiments.supervisor.task_store_key`).  Rerunning an
  interrupted ``run-all --jobs N`` — or any sweep that has an
  experiment at the same position under the same ``--seed`` — serves
  those experiments from the store instead of executing them.

``repro run-all --jobs N`` (and ``repro run --jobs N``) route through
:func:`run_catalog_supervised`; ``--fabric`` routes the same task list
through :func:`run_catalog_fabric`, which shards it over the multi-host
coordinator/worker fabric (:mod:`repro.experiments.fabric`) with
identical seed discipline — the two paths are byte-identical.
"""

from __future__ import annotations

import json
from typing import Sequence

import numpy as np

from .._typing import SeedLike
from .catalog import get_experiment
from .runner import ExperimentResult
from .supervisor import (
    SweepTask,
    TaskOutcome,
    TaskStore,
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

    Experiment runners traffic in integer seeds; the first word of the
    child's generated state is a deterministic 64-bit digest of
    ``(entropy, spawn_key)``, so distinct configs keep distinct streams.
    """
    return int(child.generate_state(1, np.uint64)[0])


def _run_catalog_task(
    seed: np.random.SeedSequence, *, experiment_id: str, quick: bool
) -> ExperimentResult:
    return get_experiment(experiment_id)(quick=quick, seed=child_seed_int(seed))


def _encode_result(result: ExperimentResult) -> bytes:
    from ..io import result_wire
    from ..schema import canonical_json

    return canonical_json(result_wire(result)).encode()


def _decode_result(body: bytes) -> ExperimentResult:
    from ..io import result_from_wire

    return result_from_wire(json.loads(body))


def _catalog_store(checkpoint: str | None) -> TaskStore | None:
    """The store rooted at ``checkpoint``: experiment results in their
    wire form, the same document ``run --json`` prints."""
    if checkpoint is None:
        return None
    from ..serve.cache import ResultCache

    return TaskStore(ResultCache(checkpoint), _encode_result, _decode_result)


def _catalog_tasks(experiment_ids: Sequence[str], quick: bool) -> list[SweepTask]:
    """One :class:`SweepTask` per catalogued experiment, keyed by its id."""
    return [
        SweepTask(
            key=experiment_id,
            fn=_run_catalog_task,
            kwargs={"experiment_id": experiment_id, "quick": quick},
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
    task_timeout: float | None = None,
    max_task_retries: int = 2,
) -> list[TaskOutcome]:
    """Run catalogued experiments as a supervised parallel sweep.

    Each experiment is one :class:`SweepTask` receiving an integer seed
    digested from its spawned child (:func:`child_seed_int`), so the
    result tables are a pure function of ``(experiment_ids, quick,
    seed)`` — independent of ``jobs`` and of any crash recovery.
    ``checkpoint`` names the root of the sweep's store: completed
    experiments are stored there, and experiments already stored (by
    this sweep or another with the same ``quick``, ``seed`` and
    position) are served from it with ``attempts=1``, ``elapsed=0.0``
    and ``host="store"``.  Delete the directory after changing
    experiment code: a store is valid for one code version.

    Returns outcomes (``ok`` / ``timeout`` / ``crashed`` / ``error``) in
    catalog order — a poisoned experiment degrades to a failed outcome
    instead of aborting its siblings.
    """
    return run_supervised_sweep(
        _catalog_tasks(experiment_ids, quick),
        jobs=jobs,
        seed=seed,
        task_timeout=task_timeout,
        max_task_retries=max_task_retries,
        store=_catalog_store(checkpoint),
    )


def run_catalog_fabric(
    experiment_ids: Sequence[str],
    *,
    quick: bool = True,
    seed: SeedLike = 0,
    listen: str = "127.0.0.1:0",
    workers: int = 0,
    checkpoint: str | None = None,
    task_timeout: float | None = None,
    max_task_retries: int = 2,
) -> list[TaskOutcome]:
    """Run catalogued experiments on the multi-host sweep fabric.

    The fabric twin of :func:`run_catalog_supervised`: the same task
    list, seed derivation and store, executed by
    :func:`~repro.experiments.fabric.run_fabric_sweep` instead of the
    local pool — so ``run-all --jobs 1`` and ``run-all --fabric :0
    --workers N`` produce byte-identical tables, and a fabric run is
    served from the same store entries a pool run wrote.

    ``workers=0`` listens on ``listen`` for externally started ``repro
    worker --connect`` processes and degrades to in-process execution
    when none arrive; ``workers=N`` spawns N loopback workers.
    """
    from .fabric import run_fabric_sweep

    return run_fabric_sweep(
        _catalog_tasks(experiment_ids, quick),
        seed=seed,
        listen=listen,
        workers=workers,
        task_timeout=task_timeout,
        max_task_retries=max_task_retries,
        store=_catalog_store(checkpoint),
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
