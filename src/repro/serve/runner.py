"""Job execution: spec → result document, under a bounded worker bridge.

The middle layer of the client/runner/types split.  Two halves:

* **pure execution** — :func:`execute_spec` turns a validated
  :class:`~repro.serve.types.JobSpec` / :class:`~repro.serve.types.SweepSpec`
  into its schema-versioned result document by calling
  :func:`repro.simulate` (simulate jobs) or
  :func:`~repro.experiments.parallel.run_catalog_supervised` (sweeps).
  No state, no I/O beyond the simulation itself — this is what the
  in-process client and the HTTP server share.

* **the JobManager** — admission, dedupe and supervision around that
  execution.  Every submitted spec is canonicalised and hashed; a key
  with a stored result is a **cache hit** (job born terminal, no
  execution), a key already executing **coalesces** onto the in-flight
  job (concurrent identical requests cost one execution), and a fresh
  key is queued onto a bounded thread pool.  Each executing job runs
  under its own :class:`~repro.obs.Observer` whose sink tees every
  engine event (``run-*``, ``round``, ``batch-*``, ``exec-*``) into the
  job's replayable event buffer — the stream behind
  ``GET /v1/jobs/{id}/events`` — and whose registry is merged into the
  manager's under lock at job end, emitting the ``serve.*`` metric
  series (queue depth, cache hit ratio, job wall-time histograms).

Resilience (see ``docs/SERVICE.md`` → *Resilience semantics*):

* every admitted execution is journaled to an optional
  :class:`~repro.serve.journal.JobJournal` *before* it runs, and its
  terminal state afterwards; :meth:`JobManager.recover` re-admits the
  incomplete remainder on restart, idempotently, via their
  content-addressed keys;
* jobs carry optional **deadlines** and support **cooperative
  cancellation** — both are checked at round/task boundaries by the
  job's trace sink (the engine emits an event per round, so the check
  rides the tape for free) and surface as the ``timeout`` /
  ``cancelled`` terminal states;
* :meth:`JobManager.drain` stops admission
  (:class:`~repro.errors.ServerDrainingError` → HTTP 503) and gives
  in-flight jobs a bounded budget to finish; whatever remains is
  already journaled for restart pickup.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from itertools import count
from pathlib import Path
from typing import Iterable
from warnings import warn

from ..api import simulate
from ..errors import (
    InvalidParameterError,
    JobCancelledError,
    JobDeadlineError,
    JobQueueFullError,
    ServerDrainingError,
)
from ..obs import MetricsRegistry, Observer, current_observer, use_observer
from ..obs.sinks import SCHEMA_VERSION
from .cache import ResultCache
from .chaos import ServeChaos
from .journal import JobJournal
from .types import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    JOB_TIMEOUT,
    JobSpec,
    JobStatus,
    SweepSpec,
    spec_from_dict,
)

__all__ = [
    "build_protocol",
    "execute_spec",
    "Job",
    "JobManager",
]


# ----------------------------------------------------------------------
# Declarative protocol specs
# ----------------------------------------------------------------------


def _build_uniform(graph: dict, *, q: float):
    from ..broadcast.distributed import UniformProtocol

    return UniformProtocol(q)


def _build_decay(graph: dict, *, n: int | None = None, phase_length=None):
    from ..broadcast.distributed import DecayProtocol

    return DecayProtocol(n if n is not None else graph["n"], phase_length=phase_length)


def _build_eg(
    graph: dict,
    *,
    n: int | None = None,
    p: float | None = None,
    strict_participation: bool = False,
    selectivity: float = 1.0,
):
    from ..broadcast.distributed import EGRandomizedProtocol

    return EGRandomizedProtocol(
        n if n is not None else graph["n"],
        p if p is not None else graph["p"],
        strict_participation=strict_participation,
        selectivity=selectivity,
    )


#: Wire protocol kinds → builders.  Builders receive the job's graph
#: parameters so ``n``/``p`` default to the ambient graph's values.
PROTOCOL_BUILDERS = {
    "uniform": _build_uniform,
    "decay": _build_decay,
    "eg-randomized": _build_eg,
}


def build_protocol(spec: dict, graph: dict):
    """Resolve a declarative protocol spec against the job's graph."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InvalidParameterError(
            "protocol spec must be a {'kind': ..., ...} mapping"
        )
    kind = spec["kind"]
    builder = PROTOCOL_BUILDERS.get(kind)
    if builder is None:
        known = ", ".join(sorted(PROTOCOL_BUILDERS))
        raise InvalidParameterError(
            f"unknown protocol kind {kind!r}; known kinds: {known}"
        )
    kwargs = {key: value for key, value in spec.items() if key != "kind"}
    try:
        return builder(graph, **kwargs)
    except TypeError as exc:
        raise InvalidParameterError(
            f"bad arguments for protocol kind {kind!r}: {exc}"
        ) from None


# ----------------------------------------------------------------------
# Pure execution
# ----------------------------------------------------------------------


def execute_job(spec: JobSpec) -> dict:
    """Run one simulate job and return its result document.

    A round-budget miss returns the partial trace (the document records
    ``completed`` per the result schema) rather than failing the job —
    an incomplete run is a valid, cacheable answer to the question the
    spec asked.
    """
    kwargs = dict(spec.params)
    protocol_spec = kwargs.pop("protocol", None)
    if protocol_spec is not None:
        kwargs["protocol"] = build_protocol(protocol_spec, spec.graph)
    result = simulate(
        spec.process,
        dict(spec.graph),
        seed=spec.seed,
        max_rounds=spec.max_rounds,
        raise_on_incomplete=False,
        backend=spec.backend,
        **kwargs,
    )
    return result.to_dict()


def execute_sweep(spec: SweepSpec) -> dict:
    """Run a catalogued experiment sweep and return its wire payload."""
    from ..experiments.parallel import outcomes_payload, run_catalog_supervised

    outcomes = run_catalog_supervised(
        list(spec.experiments),
        quick=spec.quick,
        seed=spec.seed,
        jobs=spec.jobs,
    )
    return outcomes_payload(outcomes)


def execute_spec(spec) -> dict:
    """Dispatch either request shape to its executor."""
    if isinstance(spec, JobSpec):
        return execute_job(spec)
    if isinstance(spec, SweepSpec):
        return execute_sweep(spec)
    raise InvalidParameterError(
        f"spec must be a JobSpec or SweepSpec, got {type(spec).__name__}"
    )


# ----------------------------------------------------------------------
# Jobs and the manager
# ----------------------------------------------------------------------


class Job:
    """One submitted request: lifecycle state plus a replayable event tape.

    Thread-safe: the executing worker appends events and flips state
    under the job's lock; HTTP handlers snapshot status and read event
    windows concurrently.  ``done`` is set strictly *after* the final
    ``serve-job-end`` event lands, so a reader that sees ``done`` and an
    exhausted cursor has seen the whole tape.

    ``deadline`` is an absolute :meth:`Observer.clock` instant fixed at
    admission (``deadline_s`` budgets the whole job, queue wait
    included); ``cancel_event`` is the cooperative cancellation flag.
    Both are enforced by :meth:`raise_if_interrupted`, which the job's
    trace sink calls at every engine round/task boundary.
    """

    def __init__(self, job_id: str, spec, key: str, *, cache: str = "miss"):
        self.id = job_id
        self.spec = spec
        self.key = key
        self.cache = cache
        self.state = JOB_QUEUED
        self.result: dict | None = None
        self.error = ""
        self.elapsed_s = 0.0
        self.done = threading.Event()
        self.cancel_event = threading.Event()
        self.deadline: float | None = None
        self.journaled = False
        self._events: list[dict] = []
        self._lock = threading.Lock()

    def cancel(self) -> None:
        """Request cooperative cancellation (takes effect next round)."""
        self.cancel_event.set()

    def raise_if_interrupted(self) -> None:
        """Raise if this job has been cancelled or outran its deadline."""
        if self.cancel_event.is_set():
            raise JobCancelledError(f"job {self.id} cancelled")
        if self.deadline is not None and Observer.clock() > self.deadline:
            raise JobDeadlineError(
                f"job {self.id} exceeded its deadline_s="
                f"{self.spec.deadline_s} budget"
            )

    def append_event(self, event: dict) -> None:
        with self._lock:
            self._events.append(event)

    def events_since(self, cursor: int) -> tuple[list[dict], int]:
        """Events from ``cursor`` on, plus the new cursor (for streaming)."""
        with self._lock:
            window = self._events[cursor:]
        return window, cursor + len(window)

    def num_events(self) -> int:
        with self._lock:
            return len(self._events)

    def status(self) -> JobStatus:
        """An immutable snapshot of the job for the wire."""
        return JobStatus(
            id=self.id,
            kind=self.spec.kind,
            state=self.state,
            spec=self.spec.to_dict(),
            cache=self.cache,
            error=self.error,
            elapsed_s=self.elapsed_s,
            events=self.num_events(),
            result=self.result,
        )


class _JobTraceSink:
    """Per-job tee: every event lands on the job's tape, then downstream.

    While ``armed``, each emit also runs the job's interruption check —
    the engine emits an event per round (and the supervisor per task
    fault/finish), so deadlines and cancellation piggyback on the event
    stream with no engine changes.  The manager disarms the sink before
    emitting terminal events, which must never themselves re-raise.
    """

    def __init__(self, job: Job, downstream=None):
        self.job = job
        self.downstream = downstream
        self.armed = False

    def emit(self, event: dict) -> None:
        self.job.append_event(event)
        if self.downstream is not None:
            self.downstream.emit(event)
        if self.armed:
            self.job.raise_if_interrupted()

    def close(self) -> None:
        """The job owns no sink resources; downstream is the manager's."""


class JobManager:
    """Admission, dedupe, caching and supervision for simulation jobs.

    Parameters
    ----------
    cache: a :class:`~repro.serve.cache.ResultCache`, a directory path
        for one, or ``None`` to serve without a cache (every request
        executes; in-flight coalescing still applies).
    workers: bounded thread-pool width for concurrent executions.
    max_pending: admission bound on queued-or-running jobs; beyond it
        :meth:`submit` raises :class:`~repro.errors.JobQueueFullError`
        (HTTP 429) instead of growing an unserviceable backlog.
    journal: a :class:`~repro.serve.journal.JobJournal`, a directory
        path for one, or ``None`` to run without crash recovery.  Call
        :meth:`recover` after construction to replay incomplete jobs
        from a previous process.
    chaos: optional :class:`~repro.serve.chaos.ServeChaos` schedule —
        deterministic fault injection for the chaos suite; never set in
        production.
    obs: optional external :class:`~repro.obs.Observer`: its registry
        receives the ``serve.*`` series on top of the manager's own, and
        its sink receives a tee of every job's events.
    """

    def __init__(
        self,
        *,
        cache: ResultCache | str | None = None,
        workers: int = 2,
        max_pending: int = 256,
        journal: JobJournal | str | Path | None = None,
        chaos: ServeChaos | None = None,
        obs: Observer | None = None,
    ):
        if workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        if max_pending < 1:
            raise InvalidParameterError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        if journal is not None and not isinstance(journal, JobJournal):
            journal = JobJournal(journal)
        self.cache = cache
        self.journal = journal
        self.chaos = chaos
        self.registry = MetricsRegistry()
        self._obs = obs if obs is not None else current_observer()
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._inflight: dict[str, Job] = {}
        self._ids = count(1)
        self._executions = 0
        self._max_pending = max_pending
        self._closed = False
        self._draining = False

    # -- metrics (manager lock held) -----------------------------------

    def _inc(self, name: str, *, label: str = "") -> None:
        self.registry.inc(name, label=label)
        if self._obs is not None:
            self._obs.inc(name, label=label)

    def _observe(self, name: str, value: float, *, label: str = "") -> None:
        self.registry.observe(name, value, label=label)
        if self._obs is not None:
            self._obs.observe(name, value, label=label)

    def _set_depth(self) -> None:
        depth = float(len(self._inflight))
        self.registry.set_gauge("serve.queue.depth", depth)
        if self._obs is not None and self._obs.registry is not None:
            self._obs.registry.set_gauge("serve.queue.depth", depth)

    def _emit(self, event: dict) -> None:
        """Manager-level event to the external observer's sink, if any."""
        if self._obs is not None:
            self._obs.emit(event)

    # -- public surface ------------------------------------------------

    @property
    def num_executions(self) -> int:
        """Actual executions started — cache hits and coalesces excluded."""
        with self._lock:
            return self._executions

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` or :meth:`shutdown` stopped admission."""
        with self._lock:
            return self._draining or self._closed

    def submit(self, spec, *, _journal: bool = True) -> Job:
        """Admit one spec: cache hit, coalesce, or queue an execution.

        ``_journal=False`` is the :meth:`recover` path: the replayed
        execution's submit record already survives in the compacted
        journal, so appending another would double it.
        """
        key = spec.cache_key()
        with self._lock:
            if self._closed:
                raise ServerDrainingError("job manager is shut down")
            if self._draining:
                raise ServerDrainingError(
                    "job manager is draining; retry against a live server"
                )
            self._inc("serve.requests", label=spec.kind)
            inflight = self._inflight.get(key)
            if inflight is not None:
                # Identical spec already executing: one execution serves
                # every concurrent caller.
                self._inc("serve.cache.coalesced")
                return inflight
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                self._inc("serve.cache.hits")
                job = Job(self._next_id(), spec, key, cache="hit")
                job.state = JOB_DONE
                job.result = cached
                job.done.set()
                self._jobs[job.id] = job
                return job
            self._inc("serve.cache.misses")
            if len(self._inflight) >= self._max_pending:
                self._inc("serve.rejections")
                raise JobQueueFullError(
                    f"job queue is full ({self._max_pending} pending); "
                    "retry later"
                )
            job = Job(self._next_id(), spec, key, cache="miss")
            if spec.deadline_s is not None:
                job.deadline = Observer.clock() + spec.deadline_s
            if self.journal is not None:
                job.journaled = True
                if _journal:
                    self.journal.record_submit(key, spec.to_dict())
                    self._inc("serve.journal.submits")
            self._jobs[job.id] = job
            self._inflight[key] = job
            self._executions += 1
            self._inc("serve.executions", label=spec.kind)
            self._set_depth()
        self._pool.submit(self._run, job)
        return job

    def cancel(self, job_id: str) -> Job | None:
        """Request cancellation of a job (``None`` when unknown).

        Cooperative: the flag is checked before execution starts and at
        every round/task boundary, so a running simulate job stops
        within a round.  Already-terminal jobs are a no-op.  Note a
        coalesced job is one shared execution — cancelling it cancels
        it for every caller that coalesced onto it.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.done.is_set():
                return job
            job.cancel()
            self._inc("serve.cancellations", label=job.spec.kind)
        return job

    def recover(self) -> list[Job]:
        """Replay the journal's incomplete jobs from a previous process.

        Each entry re-admits through the normal :meth:`submit` path, so
        recovery is idempotent by content address: work whose result
        reached the cache before the crash replays as an instant cache
        hit (and is journal-terminated on the spot); work that never
        finished simply executes again, producing the identical
        document.  Entries whose spec no longer parses (schema drift)
        are terminated as failed rather than replayed forever.
        """
        if self.journal is None:
            return []
        entries = self.journal.recover()
        if self.journal.quarantined:
            self._inc("serve.journal.quarantined")
        replayed: list[Job] = []
        for entry in entries:
            try:
                spec = spec_from_dict(entry.spec)
            except InvalidParameterError as exc:
                warn(
                    f"journal entry {entry.key[:12]} no longer parses "
                    f"({exc}); marking it failed",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self.journal.record_terminal(entry.key, JOB_FAILED)
                continue
            job = self.submit(spec, _journal=False)
            with self._lock:
                self._inc("serve.journal.recovered", label=spec.kind)
            if job.done.is_set():
                # Born terminal (cache hit): the execution's result
                # outlived the crash even though its terminal record
                # did not.  Close the journal pair now.
                self.journal.record_terminal(job.key, job.state)
                with self._lock:
                    self._inc("serve.journal.terminals", label=job.state)
            replayed.append(job)
        return replayed

    def job(self, job_id: str) -> Job | None:
        """Look a job up by id (``None`` when unknown)."""
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return list(self._jobs.values())

    def stats(self) -> dict:
        """Headline counters for ``GET /v1/healthz``."""
        with self._lock:
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "jobs": states,
                "executions": self._executions,
                "draining": self._draining or self._closed,
                "cache": {
                    "hits": int(self.registry.counter_value("serve.cache.hits")),
                    "misses": int(
                        self.registry.counter_value("serve.cache.misses")
                    ),
                    "coalesced": int(
                        self.registry.counter_value("serve.cache.coalesced")
                    ),
                    "entries": len(self.cache) if self.cache is not None else 0,
                },
            }

    def wait(self, job: Job, timeout: float | None = None) -> bool:
        """Block until the job is terminal; False on timeout."""
        return job.done.wait(timeout)

    def drain(self, budget_s: float = 30.0) -> dict:
        """Stop admission and give in-flight jobs a bounded finish window.

        New submits raise :class:`~repro.errors.ServerDrainingError`
        (HTTP 503 + ``Retry-After``) from the moment this is called.
        Jobs still unfinished when the budget runs out are handed to
        the journal: their terminal-record write is disarmed (so the
        submit record stays unpaired and the next process's
        :meth:`recover` re-admits them) and they are cooperatively
        cancelled so their worker threads wind down at the next round
        boundary instead of blocking process exit.  Returns a summary
        dict (``inflight``/``finished``/``journaled``/``wall_s``).
        """
        start = Observer.clock()
        with self._lock:
            self._draining = True
            inflight = list(self._inflight.values())
        self._emit(
            {
                "v": SCHEMA_VERSION,
                "kind": "serve-drain-start",
                "inflight": len(inflight),
            }
        )
        deadline = start + max(0.0, budget_s)
        for job in inflight:
            job.done.wait(max(0.0, deadline - Observer.clock()))
        finished = sum(1 for job in inflight if job.done.is_set())
        journaled = 0
        for job in inflight:
            if job.done.is_set():
                continue
            if job.journaled:
                # Leave the submit record unpaired: the restarted
                # manager replays this job.  Disarm *before* cancelling
                # so the unwinding thread cannot write the terminal
                # record first.
                job.journaled = False
                journaled += 1
            job.cancel()
        wall_s = Observer.clock() - start
        with self._lock:
            self._observe("serve.drain_s", wall_s)
        self._emit(
            {
                "v": SCHEMA_VERSION,
                "kind": "serve-drain-end",
                "finished": finished,
                "journaled": journaled,
                "wall_s": wall_s,
            }
        )
        return {
            "inflight": len(inflight),
            "finished": finished,
            "journaled": journaled,
            "wall_s": wall_s,
        }

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool and resolve every job a waiter could block on.

        Queued-but-never-started executions are cancelled out of the
        pool and marked failed ("server shutting down") so ``wait()``
        callers unblock instead of hanging until their timeout.  Their
        journal submit records are deliberately left unpaired — a
        restarted manager's :meth:`recover` picks the work back up.
        """
        with self._lock:
            self._closed = True
        self._pool.shutdown(wait=wait, cancel_futures=True)
        with self._lock:
            for job in self._jobs.values():
                if job.done.is_set():
                    continue
                if job.state == JOB_QUEUED:
                    job.error = "server shutting down"
                    job.state = JOB_FAILED
                    self._inflight.pop(job.key, None)
                    self._inc("serve.jobs", label=job.state)
                    job.done.set()
            self._set_depth()

    # -- execution (worker threads) ------------------------------------

    def _next_id(self) -> str:
        return f"job-{next(self._ids):06d}"

    def _run(self, job: Job) -> None:
        start = Observer.clock()
        registry = MetricsRegistry()
        downstream = self._obs.sink if self._obs is not None else None
        sink = _JobTraceSink(job, downstream=downstream)
        obs = Observer(registry, sink)
        obs.emit(
            {
                "v": SCHEMA_VERSION,
                "kind": "serve-job-start",
                "job": job.id,
                "spec": job.key,
            }
        )
        try:
            # Cancelled (or deadline-expired) while still queued: skip
            # the execution entirely.
            job.raise_if_interrupted()
            if self.chaos is not None:
                self.chaos.on_execute()
                job.raise_if_interrupted()
            job.state = JOB_RUNNING
            sink.armed = True
            try:
                with use_observer(obs):
                    result = execute_spec(job.spec)
            finally:
                # Terminal events below must never re-raise.
                sink.armed = False
            # Inside the handlers: a put that raises (an unwritable disk,
            # a result strict JSON cannot hold) fails the job instead of
            # escaping the worker and leaving it non-terminal forever.
            if self.cache is not None:
                self.cache.put(job.key, result)
        except JobCancelledError as exc:
            job.error = str(exc)
            job.state = JOB_CANCELLED
        except JobDeadlineError as exc:
            job.error = str(exc)
            job.state = JOB_TIMEOUT
        except Exception as exc:  # noqa: BLE001 — failures become job state
            job.error = f"{type(exc).__name__}: {exc}"
            job.state = JOB_FAILED
        else:
            job.result = result
            job.state = JOB_DONE
        job.elapsed_s = Observer.clock() - start
        if job.state in (JOB_CANCELLED, JOB_TIMEOUT):
            obs.emit(
                {
                    "v": SCHEMA_VERSION,
                    "kind": "serve-job-cancelled",
                    "job": job.id,
                    "spec": job.key,
                    "state": job.state,
                }
            )
        obs.emit(
            {
                "v": SCHEMA_VERSION,
                "kind": "serve-job-end",
                "job": job.id,
                "spec": job.key,
                "state": job.state,
                "wall_s": job.elapsed_s,
            }
        )
        if self.journal is not None and job.journaled:
            # Result (if any) is in the cache; the journal pair may
            # close.  Crash before this line → restart replays the job,
            # which is either a cache hit or a byte-identical re-run.
            self.journal.record_terminal(job.key, job.state)
        with self._lock:
            self._inflight.pop(job.key, None)
            self.registry.merge_snapshot(registry.snapshot())
            if self._obs is not None and self._obs.registry is not None:
                self._obs.registry.merge_snapshot(registry.snapshot())
            self._inc("serve.jobs", label=job.state)
            self._observe("serve.job_wall_s", job.elapsed_s, label=job.spec.kind)
            if self.journal is not None and job.journaled:
                self._inc("serve.journal.terminals", label=job.state)
            self._set_depth()
        # The tape is complete; only now may waiters observe `done`.
        job.done.set()

    # -- context management --------------------------------------------

    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def iter_job_events(job: Job, *, poll_s: float = 0.02) -> Iterable[dict]:
    """Follow a job's event tape to completion (blocking generator).

    The in-process twin of ``GET /v1/jobs/{id}/events``: yields every
    event in order, waiting for more while the job runs, and returns
    once the job is terminal and the tape is drained.
    """
    cursor = 0
    while True:
        window, cursor = job.events_since(cursor)
        yield from window
        if job.done.is_set() and cursor == job.num_events():
            return
        job.done.wait(poll_s)
