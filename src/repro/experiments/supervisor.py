"""Supervised parallel execution: deadlines, crash recovery, degradation.

The parallel sweep executor (:mod:`repro.experiments.parallel`) fans
independent sweep tasks over a :class:`~concurrent.futures.ProcessPoolExecutor`.
A bare pool is brittle: one worker death (OOM, segfault, ``kill -9``)
raises :class:`~concurrent.futures.process.BrokenProcessPool` and
destroys the whole sweep, and a hung worker blocks ``future.result()``
forever.  This module is the supervision layer in between — the healthy
sweep is its zero-fault special case, exactly the stance
``docs/FAULTS.md`` takes toward the simulated channel:

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
  the remaining tasks serially in-process (deadlines become post-hoc
  checks there, since Python cannot pre-empt a running task);
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
from ..errors import InvalidParameterError, ReproError
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


class SweepTaskCheckpoint:
    """JSON checkpoint of a supervised sweep's terminal task outcomes.

    The sibling of :class:`~repro.experiments.resilient.SweepCheckpoint`
    one level up: where that one records *trials inside* one sweep
    config, this one records whole *tasks* of a parallel sweep, so an
    interrupted ``run-all --jobs N`` resumes past completed experiments.
    Writes are atomic (write-tmp-then-replace); a corrupt file is
    quarantined (renamed ``*.corrupt``) with a warning instead of
    aborting the resume; resuming under a different ``config_key``
    raises.  On resume only ``ok`` outcomes are skipped — failed tasks
    get a fresh chance.

    ``encode``/``decode`` convert an ``ok`` task result to/from its JSON
    form (default: stored verbatim, so results must be JSON-serialisable).
    """

    def __init__(
        self,
        path: str | Path,
        config_key: str = "",
        *,
        encode: Callable[[Any], Any] | None = None,
        decode: Callable[[Any], Any] | None = None,
    ):
        self.path = Path(path)
        self.config_key = config_key
        self.encode = encode
        self.decode = decode

    def exists(self) -> bool:
        return self.path.exists()

    def load(self) -> dict[str, TaskOutcome]:
        """Outcomes keyed by task key; empty when absent or quarantined."""
        if not self.path.exists():
            return {}
        try:
            payload = json.loads(self.path.read_text())
            stored_key = payload["config_key"]
            outcomes = [
                TaskOutcome.from_json(t, self.decode) for t in payload["tasks"]
            ]
        except (AttributeError, KeyError, TypeError, ValueError, OSError):
            quarantine_checkpoint(self.path, kind="sweep-task checkpoint")
            return {}
        if stored_key != self.config_key:
            raise ReproError(
                f"checkpoint {self.path} was written for config "
                f"{stored_key!r}, sweep is {self.config_key!r}; refusing to mix"
            )
        return {o.key: o for o in outcomes}

    def save(self, outcomes: dict[str, TaskOutcome]) -> None:
        payload = {
            "config_key": self.config_key,
            "tasks": [outcomes[k].to_json(self.encode) for k in sorted(outcomes)],
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(self.path, json.dumps(payload, indent=2) + "\n")


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
# The supervisor
# ----------------------------------------------------------------------


@dataclass
class _Flight:
    """Bookkeeping for one in-flight future."""

    index: int
    deadline: float | None


class _Supervisor:
    """One supervised sweep execution (single-use)."""

    def __init__(
        self,
        tasks: list[SweepTask],
        children: list[np.random.SeedSequence],
        pending: list[int],
        *,
        jobs: int,
        task_timeout: float | None,
        max_task_retries: int,
        max_pool_rebuilds: int,
        obs: Observer | None,
    ):
        self.tasks = tasks
        self.children = children
        self.jobs = jobs
        self.task_timeout = task_timeout
        self.max_attempts = 1 + max_task_retries
        self.max_pool_rebuilds = max_pool_rebuilds
        self.obs = obs
        self.outcomes: dict[int, TaskOutcome] = {}
        self.queue: deque[int] = deque(pending)
        self.attempts: dict[int, int] = {i: 0 for i in pending}
        self.first_started: dict[int, float] = {}
        # (snapshot, events) per task index, merged in index order later.
        self.worker_payloads: dict[int, tuple] = {}
        self.rebuilds = 0
        self.on_complete: Callable[[int, TaskOutcome], None] | None = None

    # -- observability -------------------------------------------------

    def _emit(self, kind: str, **fields) -> None:
        if self.obs is not None:
            self.obs.emit({"v": SCHEMA_VERSION, "kind": kind, **fields})

    def _inc(self, name: str, *, label: str = "") -> None:
        if self.obs is not None:
            self.obs.inc(name, label=label)

    # -- outcome recording ---------------------------------------------

    def _elapsed(self, index: int) -> float:
        started = self.first_started.get(index)
        return time.monotonic() - started if started is not None else 0.0

    def _record(self, index: int, outcome: TaskOutcome) -> None:
        if not outcome.host:
            outcome.host = "local"
        self.outcomes[index] = outcome
        self._inc("exec.tasks", label=outcome.status)
        if self.obs is not None:
            self.obs.observe(
                "exec.task_wall_s", outcome.elapsed, label=outcome.status
            )
        if self.on_complete is not None:
            self.on_complete(index, outcome)

    def _record_ok(self, index: int, result: Any) -> None:
        if self.obs is not None:
            result, snapshot, events = result
            self.worker_payloads[index] = (snapshot, events)
        self._record(
            index,
            TaskOutcome(
                key=self.tasks[index].key,
                status=TASK_OK,
                result=result,
                attempts=self.attempts[index],
                elapsed=self._elapsed(index),
            ),
        )

    def _record_failure(
        self, index: int, status: str, error: str, exception=None
    ) -> None:
        self._record(
            index,
            TaskOutcome(
                key=self.tasks[index].key,
                status=status,
                attempts=self.attempts[index],
                elapsed=self._elapsed(index),
                error=error,
                exception=exception,
            ),
        )

    def _retry_or_fail(
        self, index: int, status: str, reason: str, exception=None
    ) -> bool:
        """Requeue ``index`` if retry budget remains; else record failure."""
        if self.attempts[index] < self.max_attempts:
            self._inc("exec.task_retries")
            self._emit(
                "exec-task-retry",
                task=self.tasks[index].key,
                attempt=self.attempts[index] + 1,
                reason=reason,
            )
            self.queue.appendleft(index)
            return True
        self._record_failure(index, status, reason, exception)
        return False

    # -- pool mechanics ------------------------------------------------

    def _new_pool(self) -> ProcessPoolExecutor:
        workers = max(1, min(self.jobs, len(self.queue) + 1))
        return ProcessPoolExecutor(max_workers=workers)

    def _submit(self, pool: ProcessPoolExecutor, inflight: dict, index: int) -> None:
        self.attempts[index] += 1
        now = time.monotonic()
        self.first_started.setdefault(index, now)
        fn = _call_task if self.obs is None else _call_task_observed
        deadline = now + self.task_timeout if self.task_timeout is not None else None
        future = pool.submit(fn, self.tasks[index], self.children[index])
        inflight[future] = _Flight(index=index, deadline=deadline)

    def _refill(self, pool: ProcessPoolExecutor, inflight: dict) -> bool:
        """Top the pool up to capacity; False when it broke mid-submit.

        The submission window is the worker count, so every in-flight
        future is actually *running* — which is what makes the per-task
        deadline a wall-clock bound on the task, not on queue wait.
        """
        while self.queue and len(inflight) < pool._max_workers:
            index = self.queue.popleft()
            try:
                self._submit(pool, inflight, index)
            except BrokenExecutor:
                # Undo the charge: the attempt never started.
                self.attempts[index] -= 1
                self.queue.appendleft(index)
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
        victims = self._drain_victims(inflight)
        self._inc("exec.worker_crashes")
        self._emit("exec-worker-crash", victims=len(victims))
        # The pool cannot say which task killed it, so every in-flight
        # task is charged one attempt; the poisoned one runs out of
        # budget first while innocents retry through.
        requeued = 0
        for index in reversed(victims):
            if self._retry_or_fail(index, TASK_CRASHED, "worker process died"):
                requeued += 1
        pool.shutdown(wait=False, cancel_futures=True)
        self.rebuilds += 1
        if self.rebuilds > self.max_pool_rebuilds:
            self._inc("exec.degradations")
            self._emit("exec-degraded", remaining=len(self.queue))
            return None
        self._inc("exec.pool_rebuilds")
        self._emit("exec-pool-rebuild", rebuilds=self.rebuilds, requeued=requeued)
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
            self._inc("exec.task_timeouts")
            self._emit(
                "exec-task-timeout",
                task=self.tasks[index].key,
                elapsed_s=self._elapsed(index),
            )
            self._record_failure(
                index,
                TASK_TIMEOUT,
                f"deadline of {self.task_timeout}s expired",
            )
        survivors = self._drain_victims(inflight)
        for index in reversed(survivors):
            self.attempts[index] -= 1  # resubmission restores the charge
            self.queue.appendleft(index)
        _terminate_pool(pool)
        self._inc("exec.pool_rebuilds")
        self._emit(
            "exec-pool-rebuild", rebuilds=self.rebuilds, requeued=len(survivors)
        )
        return self._new_pool()

    # -- execution -----------------------------------------------------

    def run_pooled(self) -> None:
        """Drive the pool until done, degraded, or interrupted.

        On degradation the unfinished indices stay in ``self.queue`` for
        :meth:`run_serial`.  ``KeyboardInterrupt`` shuts the pool down
        with ``cancel_futures=True`` before propagating, so queued work
        stops instead of running on in a leaked executor.
        """
        pool = self._new_pool()
        inflight: dict = {}
        try:
            while self.queue or inflight:
                if not self._refill(pool, inflight):
                    pool = self._handle_pool_break(pool, inflight)
                    if pool is None:
                        return
                    continue
                timeout = None
                if self.task_timeout is not None:
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
                        self._retry_or_fail(
                            flight.index,
                            TASK_ERROR,
                            f"{type(exc).__name__}: {exc}",
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

    def run_serial(self) -> None:
        """Run every queued task in-process (jobs=1, or degraded mode).

        The ambient observer is visible to the task directly, so no
        snapshot transport is needed — only the per-task span.  Python
        cannot pre-empt a running task, so the deadline is a post-hoc
        check here: an over-budget attempt is recorded ``timeout`` and
        not retried.  A task that kills the *process* (the chaos
        harness's ``os._exit``) is beyond in-process supervision — by
        the time the sweep degrades, such a task has normally exhausted
        its budget and been recorded ``crashed`` already.
        """
        while self.queue:
            index = self.queue.popleft()
            task = self.tasks[index]
            self.attempts[index] += 1
            self.first_started.setdefault(index, time.monotonic())
            try:
                with maybe_span("sweep.task", label=task.key):
                    result = _call_task(task, self.children[index])
            except KeyboardInterrupt:
                raise
            except Exception as exc:  # noqa: BLE001 — supervision is the point
                if self._timed_out(index):
                    continue
                self._retry_or_fail(
                    index,
                    TASK_ERROR,
                    f"{type(exc).__name__}: {exc}",
                    exception=exc,
                )
                continue
            if self._timed_out(index):
                continue
            self._record(
                index,
                TaskOutcome(
                    key=task.key,
                    status=TASK_OK,
                    result=result,
                    attempts=self.attempts[index],
                    elapsed=self._elapsed(index),
                ),
            )

    def _timed_out(self, index: int) -> bool:
        """Post-hoc deadline check for serial attempts."""
        if self.task_timeout is None or self._elapsed(index) <= self.task_timeout:
            return False
        self._inc("exec.task_timeouts")
        self._emit(
            "exec-task-timeout",
            task=self.tasks[index].key,
            elapsed_s=self._elapsed(index),
        )
        self._record_failure(
            index, TASK_TIMEOUT, f"deadline of {self.task_timeout}s expired"
        )
        return True

    def merge_observations(self) -> None:
        """Fold worker registries/events into the parent, in task order.

        Deferred to the end of the sweep (rather than merged at each
        completion) so the merged stream is independent of scheduling
        and of any recovery reordering.
        """
        if self.obs is None:
            return
        for index in sorted(self.worker_payloads):
            snapshot, events = self.worker_payloads[index]
            _merge_worker_observations(self.obs, snapshot, events)


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
        over a supervised :class:`~concurrent.futures.ProcessPoolExecutor`.
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
    Outcomes in task order.  ``KeyboardInterrupt`` flushes nothing extra
    (terminal outcomes are flushed as they land) and shuts the pool down
    with ``cancel_futures=True`` before propagating.
    """
    if jobs < 1:
        raise InvalidParameterError(f"jobs must be >= 1, got {jobs}")
    if max_task_retries < 0:
        raise InvalidParameterError(
            f"max_task_retries must be >= 0, got {max_task_retries}"
        )
    if max_pool_rebuilds < 0:
        raise InvalidParameterError(
            f"max_pool_rebuilds must be >= 0, got {max_pool_rebuilds}"
        )
    if task_timeout is not None and task_timeout <= 0:
        raise InvalidParameterError(
            f"task_timeout must be positive, got {task_timeout}"
        )
    tasks = list(tasks)
    if checkpoint is not None and not isinstance(checkpoint, SweepTaskCheckpoint):
        checkpoint = SweepTaskCheckpoint(checkpoint, config_key)
    if checkpoint is not None and len({t.key for t in tasks}) != len(tasks):
        raise InvalidParameterError(
            "sweep checkpointing requires unique task keys"
        )
    children = spawn_seeds(seed, len(tasks))

    obs = current_observer()
    if obs is not None and not obs.active:
        obs = None

    resumed: dict[int, TaskOutcome] = {}
    if checkpoint is not None and resume and checkpoint.exists():
        on_record = checkpoint.load()
        for i, task in enumerate(tasks):
            previous = on_record.get(task.key)
            if previous is not None and previous.ok:
                resumed[i] = previous

    pending = [i for i in range(len(tasks)) if i not in resumed]
    supervisor = _Supervisor(
        tasks,
        list(children),
        pending,
        jobs=jobs,
        task_timeout=task_timeout,
        max_task_retries=max_task_retries,
        max_pool_rebuilds=max_pool_rebuilds,
        obs=obs,
    )
    supervisor.outcomes.update(resumed)
    if checkpoint is not None:
        flushed = dict(resumed)

        def flush(index: int, outcome: TaskOutcome) -> None:
            flushed[index] = outcome
            checkpoint.save({o.key: o for o in flushed.values()})

        supervisor.on_complete = flush
    try:
        if jobs == 1 or len(pending) <= 1:
            supervisor.run_serial()
        else:
            supervisor.run_pooled()
            supervisor.run_serial()  # degraded remainder, if any
    finally:
        supervisor.merge_observations()
    return [supervisor.outcomes[i] for i in range(len(tasks))]
