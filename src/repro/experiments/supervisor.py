"""Supervised sweep execution: one task ledger under every transport.

A sweep is a list of independent :class:`SweepTask` s sharing a root
seed.  :class:`TaskLedger` is the one state machine every executor runs
them on: it owns the task list, the seed children spawned once from the
root, the queue, and the per-task attempt accounting, and it is the only
place that charges and refunds attempts, decides retry versus failure,
records the terminal :class:`TaskOutcome` and flushes the checkpoint.
Transports only move tasks:

* **the local process pool** (:class:`_Supervisor`, ``jobs > 1``) fans
  tasks over a :class:`~concurrent.futures.ProcessPoolExecutor` and
  supervises it, since a bare pool is brittle — one worker death (OOM,
  segfault, ``kill -9``) raises ``BrokenProcessPool`` and a hung worker
  blocks ``future.result()`` forever;
* **the in-process loop** (:func:`run_in_process`) runs ``jobs=1``
  sweeps and every degraded remainder;
* **the TCP fabric** (:mod:`repro.experiments.fabric`) shards the same
  ledger over remote workers.

The healthy sweep is the zero-fault special case of a supervised one,
exactly the stance ``docs/FAULTS.md`` takes toward the simulated channel:

* **deadlines** — futures are consumed with per-task wall-clock
  deadlines instead of unbounded ``result()``; an expired task is
  recorded as ``timeout``, its (possibly hung) pool is torn down so the
  remaining tasks keep moving, and siblings are requeued unpenalised;
* **crash recovery** — a broken pool is rebuilt and the in-flight and
  pending tasks requeued with bounded retries.  Every retry reuses the
  task's *original* spawned ``SeedSequence`` child, so the
  ``jobs=1 ≡ jobs=N`` byte-identity guarantee survives recovery: a task
  that crashed twice and succeeded on attempt three returns exactly what
  an unfaulted run returns.  Pool breakage cannot name its culprit, so
  every in-flight task is charged one attempt — a poisoned task exhausts
  its budget and is recorded ``crashed`` while innocents retry through
  (the MapReduce re-execution stance);
* **graceful degradation** — after ``max_pool_rebuilds`` spontaneous
  pool breaks the supervisor stops trusting process isolation and runs
  the remaining tasks serially in-process on the same ledger (deadlines
  become post-hoc checks there, since Python cannot pre-empt a running
  task), so each task keeps the one attempt budget it started with;
* **structured outcomes** — every task terminates as a
  :class:`TaskOutcome` (``ok`` / ``timeout`` / ``crashed`` / ``error``
  with attempt counts), never as an uncaught exception, so ``run-all``
  reports and skips a poisoned experiment instead of dying;
* **sweep-level checkpointing** — :class:`SweepTaskCheckpoint` persists
  completed task outcomes so an interrupted ``run-all --jobs N``
  resumes past finished experiments;
* **observability** — retries, worker crashes, pool rebuilds, timeouts
  and degradation emit ``exec-*`` trace events and ``exec.*`` metrics
  through the ambient :class:`~repro.obs.Observer`, so
  ``repro profile`` shows recovery activity.

Verification is its own subsystem: :mod:`repro.experiments.chaos`
injects deterministic worker crashes, hangs and errors, and
``tests/experiments/test_supervisor.py`` pins both the recovery
behaviour and result byte-identity with the unfaulted run.
"""

from __future__ import annotations

import json
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .._atomic import atomic_write
from ..errors import InvalidParameterError, ReproError, SweepTaskError
from ..rng import spawn_seeds
from ..obs import (
    MemoryTraceSink,
    MetricsRegistry,
    Observer,
    current_observer,
    maybe_span,
    use_observer,
)
from ..obs.sinks import SCHEMA_VERSION

__all__ = [
    "TASK_OK",
    "TASK_TIMEOUT",
    "TASK_CRASHED",
    "TASK_ERROR",
    "SweepTask",
    "TaskOutcome",
    "SweepTaskCheckpoint",
    "run_supervised_sweep",
    "outcome_counts",
]

#: Terminal statuses a supervised task can end in.
TASK_OK = "ok"            # task returned a result
TASK_TIMEOUT = "timeout"  # wall-clock deadline expired (not retried)
TASK_CRASHED = "crashed"  # worker died on every allowed attempt
TASK_ERROR = "error"      # task raised on every allowed attempt

#: ``TaskOutcome.host`` of attempts run by this process or its pool.
LOCAL_HOST = "local"


@dataclass(frozen=True)
class SweepTask:
    """One independent unit of sweep work.

    ``fn`` must be picklable (a module-level callable) when the sweep
    runs with ``jobs > 1``; it is invoked as ``fn(seed=child, **kwargs)``
    where ``child`` is the task's spawned :class:`~numpy.random.SeedSequence`.
    """

    key: str
    fn: Callable[..., Any]
    kwargs: dict = field(default_factory=dict)


@dataclass
class TaskOutcome:
    """Structured terminal record of one supervised sweep task.

    ``result`` is only meaningful when ``status == "ok"``; ``error``
    carries the last failure message otherwise.  ``exception`` holds the
    last raised exception object for ``error`` outcomes (crash and
    timeout leave nothing to re-raise) and never crosses serialisation.

    The executor-shard attribution fields exist for the multi-host
    fabric (:mod:`repro.experiments.fabric`) and stay at their zero
    values under single-host supervision: ``host`` names the executor
    shard that produced the terminal attempt (``"local"`` for the
    in-process and pool paths), ``requeued`` counts how many times the
    task was put back on the queue by recovery, and ``lost_leases`` how
    many of those requeues were a lease revoked from a partitioned,
    disconnected or expired worker.
    """

    key: str
    status: str
    result: Any = None
    attempts: int = 1
    elapsed: float = 0.0
    error: str = ""
    host: str = ""
    requeued: int = 0
    lost_leases: int = 0
    exception: BaseException | None = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.status == TASK_OK

    def unwrap(self) -> Any:
        """The result, for callers that treat a failed task as fatal.

        Re-raises the stored exception of an ``error`` outcome, or
        raises :class:`~repro.errors.SweepTaskError` (carrying this
        outcome) for a crash or timeout, which leave nothing to re-raise.
        """
        if self.ok:
            return self.result
        if self.exception is not None:
            raise self.exception
        raise SweepTaskError(
            f"sweep task {self.key!r} ended {self.status!r} "
            f"after {self.attempts} attempt(s): {self.error}",
            outcome=self,
        )

    def to_json(self, encode: Callable[[Any], Any] | None = None) -> dict:
        """Checkpoint form; ``encode`` serialises the ``ok`` result."""
        result = None
        if self.ok:
            result = encode(self.result) if encode is not None else self.result
        return {
            "key": self.key,
            "status": self.status,
            "attempts": self.attempts,
            "elapsed": self.elapsed,
            "error": self.error,
            "host": self.host,
            "requeued": self.requeued,
            "lost_leases": self.lost_leases,
            "result": result,
        }

    @classmethod
    def from_json(
        cls, payload: dict, decode: Callable[[Any], Any] | None = None
    ) -> "TaskOutcome":
        result = payload["result"]
        if result is not None and decode is not None:
            result = decode(result)
        return cls(
            key=payload["key"],
            status=payload["status"],
            result=result,
            attempts=payload["attempts"],
            elapsed=payload["elapsed"],
            error=payload.get("error", ""),
            host=payload.get("host", ""),
            requeued=payload.get("requeued", 0),
            lost_leases=payload.get("lost_leases", 0),
        )


def outcome_counts(
    outcomes: Sequence[TaskOutcome], *, with_recovery: bool = False
) -> dict[str, int]:
    """Outcome tally by status (insertion-ordered, only statuses seen).

    With ``with_recovery=True`` the tally also carries total
    ``requeued`` and ``lost_leases`` counts across the sweep (only when
    non-zero), so fabric summaries can say how much recovery the
    statuses hide.
    """
    counts: dict[str, int] = {}
    for outcome in outcomes:
        counts[outcome.status] = counts.get(outcome.status, 0) + 1
    if with_recovery:
        requeued = sum(o.requeued for o in outcomes)
        lost = sum(o.lost_leases for o in outcomes)
        if requeued:
            counts["requeued"] = requeued
        if lost:
            counts["lost_leases"] = lost
    return counts


class JsonCheckpoint:
    """One config-keyed JSON checkpoint file: load, save, quarantine.

    The file is ``{"config_key": ..., <entries_field>: [...]}``.  Writes
    are atomic (:func:`~repro._atomic.atomic_write`) so a kill mid-flush
    cannot corrupt it.  A truncated or garbage file (a kill mid-write on
    a filesystem without atomic replace, a stray file at the checkpoint
    path) is *quarantined* — renamed ``*.corrupt`` with a warning — and
    the sweep restarts fresh, instead of a hard crash on resume.  A
    ``config_key`` mismatch still raises: that file is a healthy
    checkpoint for a *different* sweep, and silently discarding it would
    mix samples.
    """

    entries_field: str  # the JSON key of the entry list, set by subclasses
    kind: str  # what the quarantine warning calls the file

    def __init__(self, path: str | Path, config_key: str = ""):
        self.path = Path(path)
        self.config_key = config_key

    def exists(self) -> bool:
        return self.path.exists()

    def _load_entries(self, decode: Callable[[dict], Any]) -> list:
        """Decoded entries; empty when absent or quarantined."""
        if not self.path.exists():
            return []
        try:
            payload = json.loads(self.path.read_text())
            stored_key = payload["config_key"]
            entries = [decode(entry) for entry in payload[self.entries_field]]
        except (AttributeError, KeyError, TypeError, ValueError, OSError):
            quarantine_checkpoint(self.path, kind=self.kind)
            return []
        if stored_key != self.config_key:
            raise ReproError(
                f"checkpoint {self.path} was written for config "
                f"{stored_key!r}, sweep is {self.config_key!r}; refusing to mix"
            )
        return entries

    def _save_entries(self, entries: list) -> None:
        payload = {"config_key": self.config_key, self.entries_field: entries}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(self.path, json.dumps(payload, indent=2) + "\n")


class SweepTaskCheckpoint(JsonCheckpoint):
    """JSON checkpoint of a supervised sweep's terminal task outcomes.

    The sibling of :class:`~repro.experiments.resilient.SweepCheckpoint`
    one level up: where that one records *trials inside* one sweep
    config, this one records whole *tasks* of a parallel sweep, so an
    interrupted ``run-all --jobs N`` resumes past completed experiments.
    On resume only ``ok`` outcomes are skipped — failed tasks get a
    fresh chance.

    ``encode``/``decode`` convert an ``ok`` task result to/from its JSON
    form (default: stored verbatim, so results must be JSON-serialisable).
    """

    entries_field = "tasks"
    kind = "sweep-task checkpoint"

    def __init__(
        self,
        path: str | Path,
        config_key: str = "",
        *,
        encode: Callable[[Any], Any] | None = None,
        decode: Callable[[Any], Any] | None = None,
    ):
        super().__init__(path, config_key)
        self.encode = encode
        self.decode = decode

    def load(self) -> dict[str, TaskOutcome]:
        """Outcomes keyed by task key; empty when absent or quarantined."""
        outcomes = self._load_entries(lambda t: TaskOutcome.from_json(t, self.decode))
        return {o.key: o for o in outcomes}

    def save(self, outcomes: dict[str, TaskOutcome]) -> None:
        self._save_entries([outcomes[k].to_json(self.encode) for k in sorted(outcomes)])


def quarantine_checkpoint(path: Path, *, kind: str = "checkpoint") -> Path:
    """Move a corrupt checkpoint aside (``*.corrupt``) and warn.

    A truncated or garbage checkpoint should restart the sweep fresh,
    not kill the resume — the original bytes are preserved for forensics
    instead of being overwritten by the next flush.
    """
    quarantined = path.with_name(path.name + ".corrupt")
    try:
        path.replace(quarantined)
    except OSError:  # pragma: no cover - renaming across mounts etc.
        quarantined = path
    warnings.warn(
        f"corrupt {kind} {path} quarantined to {quarantined}; starting fresh",
        RuntimeWarning,
        stacklevel=3,
    )
    return quarantined


# ----------------------------------------------------------------------
# The task ledger
# ----------------------------------------------------------------------


class TaskLedger:
    """The task state machine under every sweep transport (single-use).

    A transport pops task indices off :attr:`queue`, calls :meth:`charge`
    when an attempt starts, and reports how it ended through
    :meth:`record`, :meth:`retry_or_fail`, :meth:`expire` or
    :meth:`refund`.  Every attempt of task ``i`` runs on
    ``children[i]``, and every transport charges the same ``attempts``
    counter against one ``1 + max_task_retries`` budget — also when a
    fabric sweep degrades to in-process execution half-way.

    ``scope`` is the owning sweep's metric family: ``"exec"``
    (:func:`run_supervised_sweep`) or ``"fabric"``
    (:func:`~repro.experiments.fabric.run_fabric_sweep`).  Terminal
    outcomes count under ``<scope>.tasks``; a requeue emits
    ``exec-task-retry`` or ``fabric-task-requeue``, and only the latter
    feeds :attr:`TaskOutcome.requeued`.
    """

    def __init__(
        self,
        tasks: list[SweepTask],
        children: list[np.random.SeedSequence],
        resumed: dict[int, TaskOutcome],
        *,
        scope: str,
        task_timeout: float | None,
        max_task_retries: int,
        checkpoint: SweepTaskCheckpoint | None,
        obs: Observer | None,
    ):
        self.tasks = tasks
        self.children = children
        self.scope = scope
        self.task_timeout = task_timeout
        self.max_attempts = 1 + max_task_retries
        self.checkpoint = checkpoint
        self.obs = obs
        self.outcomes: dict[int, TaskOutcome] = dict(resumed)
        self.queue: deque[int] = deque(
            i for i in range(len(tasks)) if i not in resumed
        )
        self.attempts = [0] * len(tasks)
        self.requeues = [0] * len(tasks)
        self.lost_leases = [0] * len(tasks)
        self.first_started: dict[int, float] = {}
        self.recorded = 0  # terminal outcomes recorded by this execution

    # -- observability -------------------------------------------------

    def emit(self, kind: str, **fields) -> None:
        if self.obs is not None:
            self.obs.emit({"v": SCHEMA_VERSION, "kind": kind, **fields})

    def inc(self, name: str, *, label: str = "") -> None:
        if self.obs is not None:
            self.obs.inc(name, label=label)

    # -- state ---------------------------------------------------------

    def done(self) -> bool:
        return len(self.outcomes) == len(self.tasks)

    def results(self) -> list[TaskOutcome]:
        """Outcomes in task order (call once :meth:`done`)."""
        return [self.outcomes[i] for i in range(len(self.tasks))]

    def elapsed(self, index: int) -> float:
        started = self.first_started.get(index)
        return time.monotonic() - started if started is not None else 0.0

    # -- transitions ---------------------------------------------------

    def charge(self, index: int) -> None:
        """An attempt of ``index`` starts: it costs one unit of budget."""
        self.attempts[index] += 1
        self.first_started.setdefault(index, time.monotonic())

    def refund(self, index: int, reason: str = "") -> None:
        """Requeue ``index`` uncharged: its attempt never got a fair run.

        With a ``reason`` the requeue is reported (the fabric's
        undelivered frames and goodbyes).  Without one it is silent: an
        attempt that never left this process, or a pool sibling of an
        expired task, which ``exec-pool-rebuild`` already counts.
        """
        self.attempts[index] -= 1
        if reason:
            self._requeue(index, reason)
        else:
            self.queue.appendleft(index)

    def retry_or_fail(
        self, index: int, status: str, reason: str, *, host: str, exception=None
    ) -> bool:
        """Requeue ``index`` if budget remains; else record ``status``."""
        if self.attempts[index] < self.max_attempts:
            self._requeue(index, reason)
            return True
        self.record(index, status, error=reason, host=host, exception=exception)
        return False

    def _requeue(self, index: int, reason: str) -> None:
        self.queue.appendleft(index)
        key = self.tasks[index].key
        if self.scope == "exec":
            self.inc("exec.task_retries")
            self.emit(
                "exec-task-retry",
                task=key,
                attempt=self.attempts[index] + 1,
                reason=reason,
            )
        else:
            self.requeues[index] += 1
            self.inc("fabric.requeues")
            self.emit(
                "fabric-task-requeue",
                task=key,
                attempt=self.attempts[index],
                reason=reason,
            )

    def expire(self, index: int, *, host: str) -> None:
        """Record a deadline expiry: terminal, never retried."""
        self.inc(f"{self.scope}.task_timeouts")
        self.emit(
            f"{self.scope}-task-timeout",
            task=self.tasks[index].key,
            elapsed_s=self.elapsed(index),
        )
        self.record(
            index,
            TASK_TIMEOUT,
            error=f"deadline of {self.task_timeout}s expired",
            host=host,
        )

    def record(
        self,
        index: int,
        status: str,
        *,
        host: str,
        result: Any = None,
        error: str = "",
        exception=None,
    ) -> None:
        """Record the terminal outcome of ``index`` and flush the checkpoint."""
        outcome = TaskOutcome(
            key=self.tasks[index].key,
            status=status,
            result=result,
            attempts=self.attempts[index],
            elapsed=self.elapsed(index),
            error=error,
            host=host,
            requeued=self.requeues[index],
            lost_leases=self.lost_leases[index],
            exception=exception,
        )
        self.outcomes[index] = outcome
        self.recorded += 1
        self.inc(f"{self.scope}.tasks", label=status)
        if self.obs is not None:
            self.obs.observe(f"{self.scope}.task_wall_s", outcome.elapsed, label=status)
        if self.checkpoint is not None:
            self.checkpoint.save({o.key: o for o in self.outcomes.values()})


def open_ledger(
    tasks: Sequence[SweepTask],
    *,
    scope: str,
    seed,
    task_timeout: float | None,
    max_task_retries: int,
    checkpoint: str | Path | SweepTaskCheckpoint | None,
    resume: bool,
    config_key: str,
) -> TaskLedger:
    """Validate, spawn the children and resume: both executors' preamble.

    Task ``i`` gets the ``i``-th child of ``seed``, spawned here once.
    With ``resume=True`` tasks whose key has an ``ok`` outcome in the
    checkpoint are done before the sweep starts.
    """
    if max_task_retries < 0:
        raise InvalidParameterError(
            f"max_task_retries must be >= 0, got {max_task_retries}"
        )
    if task_timeout is not None and task_timeout <= 0:
        raise InvalidParameterError(
            f"task_timeout must be positive, got {task_timeout}"
        )
    tasks = list(tasks)
    if checkpoint is not None and not isinstance(checkpoint, SweepTaskCheckpoint):
        checkpoint = SweepTaskCheckpoint(checkpoint, config_key)
    if checkpoint is not None and len({t.key for t in tasks}) != len(tasks):
        raise InvalidParameterError("sweep checkpointing requires unique task keys")
    children = list(spawn_seeds(seed, len(tasks)))

    resumed: dict[int, TaskOutcome] = {}
    if checkpoint is not None and resume and checkpoint.exists():
        on_record = checkpoint.load()
        for i, task in enumerate(tasks):
            previous = on_record.get(task.key)
            if previous is not None and previous.ok:
                resumed[i] = previous

    obs = current_observer()
    if obs is not None and not obs.active:
        obs = None
    return TaskLedger(
        tasks,
        children,
        resumed,
        scope=scope,
        task_timeout=task_timeout,
        max_task_retries=max_task_retries,
        checkpoint=checkpoint,
        obs=obs,
    )


# ----------------------------------------------------------------------
# Worker-side trampolines (module level so tasks pickle into workers)
# ----------------------------------------------------------------------


def _call_task(task: SweepTask, child: np.random.SeedSequence) -> Any:
    """Module-level trampoline so tasks pickle into worker processes."""
    return task.fn(seed=child, **task.kwargs)


def _call_task_observed(task: SweepTask, child: np.random.SeedSequence):
    """Worker-side trampoline that records observability locally.

    Runs in the worker process when the *parent* sweep has an observer
    attached.  The worker installs a fresh registry and in-memory sink
    (observers themselves do not cross process boundaries — sinks hold
    file handles), tags events with the task key, and ships back
    ``(result, registry_snapshot, events)`` for the parent to merge in
    deterministic task order.
    """
    registry = MetricsRegistry()
    sink = MemoryTraceSink()
    worker_obs = Observer(registry, sink, tags={"task": task.key})
    with use_observer(worker_obs):
        with worker_obs.span("sweep.task", label=task.key):
            result = task.fn(seed=child, **task.kwargs)
    return result, registry.snapshot(), sink.events


def _merge_worker_observations(obs: Observer, snapshot: dict, events: list) -> None:
    """Fold one worker's registry snapshot and buffered events into ``obs``."""
    if obs.registry is not None:
        obs.registry.merge_snapshot(snapshot)
    if obs.sink is not None:
        for event in events:
            obs.emit(event)


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------


def run_in_process(ledger: TaskLedger) -> None:
    """The in-process transport: run every queued task serially.

    Runs ``jobs=1`` sweeps and the degraded remainder of the pool and of
    the fabric.  The ambient observer is visible to the task directly,
    so no snapshot transport is needed — only the per-task span.  Python
    cannot pre-empt a running task, so the deadline is a post-hoc check
    on each attempt: an over-budget attempt is recorded ``timeout`` and
    not retried.  A task that kills the *process* (the chaos harness's
    ``os._exit``) is beyond in-process supervision — by the time a sweep
    degrades, such a task has normally exhausted its budget and been
    recorded ``crashed`` already.
    """
    while ledger.queue:
        index = ledger.queue.popleft()
        task = ledger.tasks[index]
        ledger.charge(index)
        started = time.monotonic()
        try:
            with maybe_span("sweep.task", label=task.key):
                result = _call_task(task, ledger.children[index])
        except KeyboardInterrupt:
            raise
        except Exception as exc:  # noqa: BLE001 — supervision is the point
            if not _overdue(ledger, index, started):
                ledger.retry_or_fail(
                    index,
                    TASK_ERROR,
                    f"{type(exc).__name__}: {exc}",
                    host=LOCAL_HOST,
                    exception=exc,
                )
            continue
        if not _overdue(ledger, index, started):
            ledger.record(index, TASK_OK, result=result, host=LOCAL_HOST)


def _overdue(ledger: TaskLedger, index: int, started: float) -> bool:
    """Post-hoc deadline check of one in-process attempt; expires it."""
    if ledger.task_timeout is None or time.monotonic() - started <= ledger.task_timeout:
        return False
    ledger.expire(index, host=LOCAL_HOST)
    return True


@dataclass
class _Flight:
    """Bookkeeping for one in-flight future."""

    index: int
    deadline: float | None


class _Supervisor:
    """The local process-pool transport of one ledger (single-use)."""

    def __init__(self, ledger: TaskLedger, *, jobs: int, max_pool_rebuilds: int):
        self.ledger = ledger
        self.jobs = jobs
        self.max_pool_rebuilds = max_pool_rebuilds
        # (snapshot, events) per task index, merged in index order later.
        self.worker_payloads: dict[int, tuple] = {}
        self.rebuilds = 0

    def _record_ok(self, index: int, result: Any) -> None:
        if self.ledger.obs is not None:
            result, snapshot, events = result
            self.worker_payloads[index] = (snapshot, events)
        self.ledger.record(index, TASK_OK, result=result, host=LOCAL_HOST)

    # -- pool mechanics ------------------------------------------------

    def _new_pool(self) -> ProcessPoolExecutor:
        workers = max(1, min(self.jobs, len(self.ledger.queue) + 1))
        return ProcessPoolExecutor(max_workers=workers)

    def _submit(self, pool: ProcessPoolExecutor, inflight: dict, index: int) -> None:
        ledger = self.ledger
        ledger.charge(index)
        fn = _call_task if ledger.obs is None else _call_task_observed
        deadline = (
            time.monotonic() + ledger.task_timeout
            if ledger.task_timeout is not None
            else None
        )
        future = pool.submit(fn, ledger.tasks[index], ledger.children[index])
        inflight[future] = _Flight(index=index, deadline=deadline)

    def _refill(self, pool: ProcessPoolExecutor, inflight: dict) -> bool:
        """Top the pool up to capacity; False when it broke mid-submit.

        The submission window is the worker count, so every in-flight
        future is actually *running* — which is what makes the per-task
        deadline a wall-clock bound on the task, not on queue wait.
        """
        queue = self.ledger.queue
        while queue and len(inflight) < pool._max_workers:
            index = queue.popleft()
            try:
                self._submit(pool, inflight, index)
            except BrokenExecutor:
                self.ledger.refund(index)  # the attempt never started
                return False
        return True

    def _drain_victims(self, inflight: dict) -> list[int]:
        """Pull every in-flight task out, in task order."""
        victims = sorted(flight.index for flight in inflight.values())
        inflight.clear()
        return victims

    def _handle_pool_break(
        self, pool: ProcessPoolExecutor, inflight: dict
    ) -> ProcessPoolExecutor | None:
        """Spontaneous pool death: requeue victims (charged), rebuild.

        Returns the fresh pool, or ``None`` when the rebuild budget is
        exhausted and the sweep must degrade to serial execution.
        """
        ledger = self.ledger
        victims = self._drain_victims(inflight)
        ledger.inc("exec.worker_crashes")
        ledger.emit("exec-worker-crash", victims=len(victims))
        # The pool cannot say which task killed it, so every in-flight
        # task is charged one attempt; the poisoned one runs out of
        # budget first while innocents retry through.
        requeued = 0
        for index in reversed(victims):
            if ledger.retry_or_fail(
                index, TASK_CRASHED, "worker process died", host=LOCAL_HOST
            ):
                requeued += 1
        pool.shutdown(wait=False, cancel_futures=True)
        self.rebuilds += 1
        if self.rebuilds > self.max_pool_rebuilds:
            ledger.inc("exec.degradations")
            ledger.emit("exec-degraded", remaining=len(ledger.queue))
            return None
        ledger.inc("exec.pool_rebuilds")
        ledger.emit("exec-pool-rebuild", rebuilds=self.rebuilds, requeued=requeued)
        return self._new_pool()

    def _handle_deadlines(
        self, pool: ProcessPoolExecutor, inflight: dict
    ) -> ProcessPoolExecutor:
        """Expire overdue tasks; tear the pool down to unstick workers.

        A hung worker cannot be cancelled through the futures API, so the
        whole pool is terminated and rebuilt.  In-flight *siblings* are
        requeued without an attempt charge — the teardown was ours, not
        theirs — which also keeps the deadline path off the degradation
        budget (every expiry retires its task, so this cannot loop).
        """
        now = time.monotonic()
        expired = sorted(
            (flight.index, future)
            for future, flight in inflight.items()
            if flight.deadline is not None and now >= flight.deadline
        )
        if not expired:
            return pool
        for index, future in expired:
            del inflight[future]
            self.ledger.expire(index, host=LOCAL_HOST)
        survivors = self._drain_victims(inflight)
        for index in reversed(survivors):
            self.ledger.refund(index)
        _terminate_pool(pool)
        self.ledger.inc("exec.pool_rebuilds")
        self.ledger.emit(
            "exec-pool-rebuild", rebuilds=self.rebuilds, requeued=len(survivors)
        )
        return self._new_pool()

    # -- execution -----------------------------------------------------

    def run(self) -> None:
        """Drive the pool until done, degraded, or interrupted.

        On degradation the unfinished indices stay in the ledger's queue
        for :func:`run_in_process`.  ``KeyboardInterrupt`` shuts the pool
        down with ``cancel_futures=True`` before propagating, so queued
        work stops instead of running on in a leaked executor.
        """
        queue = self.ledger.queue
        pool = self._new_pool()
        inflight: dict = {}
        try:
            while queue or inflight:
                if not self._refill(pool, inflight):
                    pool = self._handle_pool_break(pool, inflight)
                    if pool is None:
                        return
                    continue
                timeout = None
                if self.ledger.task_timeout is not None:
                    now = time.monotonic()
                    timeout = max(
                        0.0,
                        min(flight.deadline for flight in inflight.values()) - now,
                    )
                done, _ = futures_wait(
                    set(inflight), timeout=timeout, return_when=FIRST_COMPLETED
                )
                broke = False
                for future in sorted(done, key=lambda f: inflight[f].index):
                    flight = inflight.pop(future)
                    try:
                        result = future.result()
                    except BrokenExecutor:
                        broke = True
                        # Re-entered below as a victim of the break.
                        inflight[future] = flight
                    except Exception as exc:  # noqa: BLE001 — supervision is the point
                        self.ledger.retry_or_fail(
                            flight.index,
                            TASK_ERROR,
                            f"{type(exc).__name__}: {exc}",
                            host=LOCAL_HOST,
                            exception=exc,
                        )
                    else:
                        self._record_ok(flight.index, result)
                if broke:
                    pool = self._handle_pool_break(pool, inflight)
                    if pool is None:
                        return
                elif inflight:
                    pool = self._handle_deadlines(pool, inflight)
            pool.shutdown(wait=True)
            pool = None
        except KeyboardInterrupt:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            raise

    def merge_observations(self) -> None:
        """Fold worker registries/events into the parent, in task order.

        Deferred to the end of the sweep (rather than merged at each
        completion) so the merged stream is independent of scheduling
        and of any recovery reordering.
        """
        obs = self.ledger.obs
        if obs is None:
            return
        for index in sorted(self.worker_payloads):
            snapshot, events = self.worker_payloads[index]
            _merge_worker_observations(obs, snapshot, events)


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Kill a pool's worker processes (the only way to unstick a hang).

    ``ProcessPoolExecutor`` has no public kill switch; terminating the
    worker processes makes the executor observe a broken pool and wind
    itself down, and ``shutdown(wait=False)`` never joins the hung
    worker from this thread.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already-dead worker
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def run_supervised_sweep(
    tasks: Sequence[SweepTask],
    *,
    jobs: int = 1,
    seed=None,
    task_timeout: float | None = None,
    max_task_retries: int = 2,
    max_pool_rebuilds: int = 3,
    checkpoint: str | Path | SweepTaskCheckpoint | None = None,
    resume: bool = False,
    config_key: str = "",
) -> list[TaskOutcome]:
    """Run sweep tasks under supervision; one :class:`TaskOutcome` each.

    Parameters
    ----------
    tasks: the sweep configurations, in outcome order.
    jobs: worker processes; ``1`` runs in-process (no executor, no
        pickling requirement, post-hoc deadlines), ``N > 1`` fans out
        over a supervised :class:`~concurrent.futures.ProcessPoolExecutor`
        — even for a single task, which keeps its crash isolation and
        its pre-emptive deadline.
    seed: root seed; task ``i`` receives the ``i``-th spawned child on
        *every* attempt, so outcomes do not depend on ``jobs``, on
        completion order, or on how many retries recovery needed.
    task_timeout: per-task wall-clock deadline in seconds (``None``
        disables).  An expired task is recorded ``timeout`` and not
        retried; its siblings are requeued unpenalised.
    max_task_retries: re-submissions after the first attempt before a
        task is recorded ``crashed``/``error``.
    max_pool_rebuilds: spontaneous pool breaks tolerated before the
        sweep degrades to serial in-process execution.
    checkpoint: path (or :class:`SweepTaskCheckpoint`) persisting
        terminal outcomes; with ``resume=True`` tasks whose key has an
        ``ok`` outcome on record are skipped (failed ones rerun).
        Requires task keys to be unique.
    config_key: identifies the sweep configuration inside the
        checkpoint; resuming under a different key raises.

    Returns
    -------
    Outcomes in task order (:meth:`TaskOutcome.unwrap` turns one into
    its result or its exception).  ``KeyboardInterrupt`` flushes nothing
    extra (terminal outcomes are flushed as they land) and shuts the
    pool down with ``cancel_futures=True`` before propagating.
    """
    if jobs < 1:
        raise InvalidParameterError(f"jobs must be >= 1, got {jobs}")
    if max_pool_rebuilds < 0:
        raise InvalidParameterError(
            f"max_pool_rebuilds must be >= 0, got {max_pool_rebuilds}"
        )
    ledger = open_ledger(
        tasks,
        scope="exec",
        seed=seed,
        task_timeout=task_timeout,
        max_task_retries=max_task_retries,
        checkpoint=checkpoint,
        resume=resume,
        config_key=config_key,
    )
    supervisor = _Supervisor(ledger, jobs=jobs, max_pool_rebuilds=max_pool_rebuilds)
    try:
        if jobs > 1 and ledger.queue:
            supervisor.run()
        run_in_process(ledger)  # jobs=1, or the degraded remainder
    finally:
        supervisor.merge_observations()
    return ledger.results()
