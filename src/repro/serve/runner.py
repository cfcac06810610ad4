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
  key is queued for one of ``workers`` **forked worker processes**, so
  executions run in parallel outside the server's GIL.  Each worker
  keeps its own bounded graph map; hit bodies stay in memory in the
  manager's body map (see :class:`JobManager`).  A spec that is not
  deterministic skips the cache and coalescing and executes every time.
  A worker runs the job under its own :class:`~repro.obs.Observer` whose
  sink keeps every engine event (``run-*``, ``round``, ``batch-*``,
  ``exec-*``) and sends them with its reply, or streams them over the
  worker's pipe while the job has a live reader; the manager puts them
  on the job's replayable event tape — the stream behind
  ``GET /v1/jobs/{id}/events`` — and merges the worker's registry into
  its own under lock at job end, emitting the ``serve.*`` metric series
  (queue depth, cache hit ratio, job wall-time histograms).

Resilience (see ``docs/SERVICE.md`` → *Resilience semantics*):

* every admitted execution is journaled to an optional
  :class:`~repro.serve.journal.JobJournal` *before* it runs, and its
  terminal state afterwards; :meth:`JobManager.recover` re-admits the
  incomplete remainder on restart, idempotently, via their
  content-addressed keys;
* jobs carry optional **deadlines** and support **cooperative
  cancellation**: a cancel, or the passing deadline, tells the job's
  worker to stop, and the worker stops at its next engine event (one
  per round or task) — the job ends ``cancelled`` / ``timeout``;
* a worker that dies mid-job fails only that job and is re-forked;
* :meth:`JobManager.drain` stops admission
  (:class:`~repro.errors.ServerDrainingError` → HTTP 503) and gives
  in-flight jobs a bounded budget to finish; whatever remains is
  already journaled for restart pickup.
"""

from __future__ import annotations

import ctypes
import gc
import json
import multiprocessing
import os
import signal
import stat
import threading
import time
import warnings
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from contextvars import ContextVar
from itertools import count
from pathlib import Path
from traceback import format_exc
from typing import Iterable

from ..api import _as_network, simulate
from ..chaos import FaultSchedule
from ..errors import (
    InvalidParameterError,
    JobCancelledError,
    JobDeadlineError,
    JobQueueFullError,
    ServerDrainingError,
)
from ..obs import MetricsRegistry, Observer, current_observer, use_observer
from ..obs.sinks import SCHEMA_VERSION
from ..radio.model import RadioNetwork
from ..schema import canonical_json
from .cache import ResultCache
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

#: Where a deterministic job gets its network: a worker process sets
#: this to its :class:`_GraphMap` around :func:`execute_spec`; unset, as
#: for every other caller, :func:`execute_job` samples a fresh graph
#: from the spec.
_GRAPH_MAP: ContextVar = ContextVar("repro_serve_graph_map", default=None)


def execute_job(spec: JobSpec) -> dict:
    """Run one simulate job and return its result document.

    A round-budget miss returns the partial trace (the document records
    ``completed`` per the result schema) rather than failing the job —
    an incomplete run is a valid, cacheable answer to the question the
    spec asked.  Inside a :class:`JobManager` worker a deterministic
    spec may run on a cached network; the graph is a pure function of
    its mapping, so the document is the same.
    """
    kwargs = dict(spec.params)
    protocol_spec = kwargs.pop("protocol", None)
    if protocol_spec is not None:
        kwargs["protocol"] = build_protocol(protocol_spec, spec.graph)
    graphs = _GRAPH_MAP.get()
    result = simulate(
        spec.process,
        # Not bound to a name: a network built here is freed as soon as
        # the run returns, before its result is encoded.
        graphs.network(spec.graph)
        if graphs is not None and spec.deterministic
        else dict(spec.graph),
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

#: Byte budget of a manager's graph maps (networks by graph mapping),
#: counted by :func:`_network_bytes` and split evenly over the workers.
GRAPH_MAP_BYTES = 64 << 20
#: Byte budget of a manager's body map (result bytes by cache key).
BODY_MAP_BYTES = 64 << 20
#: How many once-built graph mappings a worker remembers, so that a
#: second request for one admits its network to the graph map.
SEEN_GRAPHS = 1024
#: Seconds :meth:`JobManager.shutdown` waits for a worker to exit on
#: EOF before killing it.
WORKER_EXIT_S = 5.0


def _network_bytes(network: RadioNetwork) -> int:
    """An upper bound on the bytes a network holds on the serial path.

    The CSR arrays, the degree and id vectors, and the ``int64`` matrix
    that :meth:`~repro.graphs.adjacency.Adjacency.matrix` builds on first
    use (copies of the CSR arrays plus one data entry per stored entry).
    Counting the lazily built fields up front keeps the budget a bound
    however the network is used after it is admitted.
    """
    adj = network.adj
    csr = adj.indptr.nbytes + adj.indices.nbytes
    return 2 * csr + 8 * adj.indices.size + 16 * adj.n


class _LRU:
    """A least-recently-used map under a byte budget.

    Not thread-safe: the :class:`JobManager` holds its lock around every
    call to its body map, and each worker process owns its graph map.
    A value larger than the whole budget is not admitted.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.bytes = 0
        self._entries: OrderedDict[str, tuple[object, int]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str):
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def put(self, key: str, value, size: int) -> None:
        if size > self.budget:
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self.bytes -= old[1]
        self._entries[key] = (value, size)
        self.bytes += size
        while self.bytes > self.budget:
            _key, (_value, evicted) = self._entries.popitem(last=False)
            self.bytes -= evicted


class _GraphMap:
    """One worker's networks by canonical graph mapping.

    A network is admitted to the LRU on the second request for its graph
    (a bounded set of :data:`SEEN_GRAPHS` keys remembers the first), so
    traffic that never repeats a graph retains none.  Hits and misses
    count as ``serve.graphs.*`` on the ambient observer, the running
    job's, whose registry travels back to the manager with the reply.
    """

    def __init__(self, budget: int):
        self.lru = _LRU(budget)
        self._seen: OrderedDict[str, None] = OrderedDict()

    def network(self, graph: dict) -> RadioNetwork:
        key = json.dumps(graph, sort_keys=True)
        obs = current_observer()
        network = self.lru.get(key)
        if network is not None:
            if obs is not None:
                obs.inc("serve.graphs.hits")
            return network
        if obs is not None:
            obs.inc("serve.graphs.misses")
        admit = key in self._seen
        if admit:
            del self._seen[key]
        else:
            self._seen[key] = None
            if len(self._seen) > SEEN_GRAPHS:
                self._seen.popitem(last=False)
        network = _as_network(graph)
        if admit:
            self.lru.put(key, network, _network_bytes(network))
        return network

    def usage(self) -> tuple[int, int]:
        """``(entries, bytes)`` of the map, as healthz reports them."""
        return len(self.lru), self.lru.bytes


# ----------------------------------------------------------------------
# Worker processes
# ----------------------------------------------------------------------
#
# Manager -> worker: (spec, watched) runs a job; while it runs, "watch"
# (stream its events from here on) or "stop" (abandon it at its next
# event).  A "watch" or "stop" that arrives after the job replied is
# read as the next message and dropped.  Worker -> manager, per job:
# ("events", [event, ...]) while it streams, then one reply
# (state, payload, events, registry snapshot, graph-map usage), where
# state is "done" (payload: the canonical result bytes), "failed"
# (payload: "Type: message") or "stopped" (payload: None), and events
# are the ones it kept.

#: The free heap a worker keeps between jobs: glibc's trim threshold and
#: its mmap threshold (a larger block is mapped on its own and unmapped
#: when freed).  So each job reuses the last one's pages, unfaulted.
WORKER_HEAP_BYTES = 32 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_heap() -> None:
    """Fix glibc's heap thresholds at :data:`WORKER_HEAP_BYTES` (a no-op
    where the C library has no ``mallopt``)."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, WORKER_HEAP_BYTES)
        mallopt(_M_TRIM_THRESHOLD, WORKER_HEAP_BYTES)


class _WorkerTape:
    """A worker-side trace sink: the job's events, kept or streamed.

    Events are kept for the reply unless the job has a live reader
    (``stream``).  At each event the tape reads what the manager pushed:
    a ``"watch"`` sends the kept events and streams from then on, and a
    ``"stop"`` raises at that event boundary.  The stop is sticky: every
    later emit of the job raises too, so code that catches the first
    raise (a sweep's task supervision, which would requeue the task) is
    stopped at its own next event.
    """

    def __init__(self, conn, stream: bool):
        self.conn = conn
        self.stream = stream
        self.events: list[dict] = []
        self.stopped = False

    def emit(self, event: dict) -> None:
        if not self.stopped:
            if self.stream:
                self.conn.send(("events", [event]))
            else:
                self.events.append(event)
            while not self.stopped and self.conn.poll():
                if self.conn.recv() == "stop":
                    self.stopped = True
                elif not self.stream:
                    self.stream = True
                    self.conn.send(("events", self.events))
                    self.events = []
        if self.stopped:
            raise JobCancelledError("stopped by the job manager")

    def close(self) -> None:
        """The pipe belongs to the worker loop."""


def _serve_jobs(conn, graphs: _GraphMap) -> None:
    """A worker's loop: run each job received on ``conn`` until EOF."""
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if isinstance(message, str):
            continue  # a stale "stop" or "watch"
        spec, watched = message
        registry = MetricsRegistry()
        tape = _WorkerTape(conn, watched)
        token = _GRAPH_MAP.set(graphs)
        try:
            with use_observer(Observer(registry, tape)):
                start = Observer.clock()
                document = execute_spec(spec)
                encoding = Observer.clock()
                reply = ("done", canonical_json(document).encode())
            del document
            registry.observe("serve.worker.phase_s", encoding - start, label="execute")
            registry.observe("serve.worker.phase_s", Observer.clock() - encoding, label="encode")
        except JobCancelledError:
            reply = ("stopped", None)
        except Exception as exc:  # noqa: BLE001 — failures become job state
            reply = ("failed", f"{type(exc).__name__}: {exc}")
        finally:
            _GRAPH_MAP.reset(token)
        try:
            conn.send((*reply, tape.events, registry.snapshot(), graphs.usage()))
        except OSError:
            return


def _close_inherited_sockets(keep: int) -> None:
    """Close every socket a forked worker inherited, except ``keep``.

    Those are the server's listener and connections and the manager's
    ends of the other workers' pipes.  A copy held here would keep a
    client's event stream from ending and a sibling worker from seeing
    EOF.  The cycle collector is frozen first, so no inherited socket
    object is ever finalised here against a reused descriptor.
    """
    gc.freeze()
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:  # pragma: no cover - no procfs
        return
    for fd in fds:
        if fd == keep or fd < 3:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            pass  # the listing's own descriptor, already closed


def _worker_main(conn, graph_budget: int) -> None:
    """Entry point of a forked worker process."""
    # A sweep job's supervised pool forks from here; daemonic processes
    # may not have children.  The manager still reaps this process.
    multiprocessing.current_process().daemon = False
    # Ctrl-C reaches the whole process group: the server handles it and
    # closes the pipes.  A plain SIGTERM ends the worker.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)
    _close_inherited_sockets(conn.fileno())
    _keep_heap()
    _serve_jobs(conn, _GraphMap(graph_budget))
    # Skip interpreter teardown: it would run the server's exit hooks,
    # whose locks another thread may have held at the fork.
    os._exit(0)


class _Worker:
    """The manager's handle on one forked worker process.

    ``job`` is the job it runs (``None`` while idle).  Sends on the pipe
    are serialised by a lock, so a ``"stop"`` or ``"watch"`` that another
    thread pushes (:meth:`push`) reaches the worker only while it runs
    that job.
    """

    def __init__(self, graph_budget: int):
        context = multiprocessing.get_context("fork")
        self.conn, child = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_worker_main,
            args=(child, graph_budget),
            name="repro-serve-worker",
            daemon=True,
        )
        with warnings.catch_warnings():
            # Python 3.12+ warns on every fork of a process with threads
            # (numpy's BLAS pool is one).  A worker takes none of the
            # server's locks and skips its exit hooks (_worker_main).
            warnings.filterwarnings(
                "ignore", ".*use of fork", DeprecationWarning
            )
            self.process.start()
        child.close()
        #: ``(entries, bytes)`` of its graph map, from its last reply.
        self.graphs = (0, 0)
        self.job: Job | None = None
        self._lock = threading.Lock()

    def start(self, job: Job) -> None:
        """Send ``job`` to the worker."""
        with self._lock:
            self.job = job
            job.worker = self
            # Read after ``job.worker`` is set: a reader or a cancel that
            # came too early to push is seen here instead.
            self.conn.send((job.spec, job.watched))
            if job.cancel_event.is_set():
                self.conn.send("stop")

    def release(self) -> None:
        """The worker replied or died: drop later pushes for its job."""
        with self._lock:
            if self.job is not None:
                self.job.worker = None
                self.job = None

    def push(self, job: Job, message: str) -> None:
        """Send ``message`` if the worker still runs ``job``."""
        with self._lock:
            if self.job is job:
                try:
                    self.conn.send(message)
                except OSError:
                    pass  # it died: its dispatch thread reads the EOF

    def close(self, wait: bool = True) -> int | None:
        """Close the pipe (an idle worker exits on EOF); the exit code."""
        self.conn.close()
        if wait:
            self.process.join(WORKER_EXIT_S)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(WORKER_EXIT_S)
        return self.process.exitcode


class _WorkerFailed(Exception):
    """A job's failure as the worker reported it: ``"Type: message"``."""


class Job:
    """One submitted request: lifecycle state plus a replayable event tape.

    Thread-safe: the job's dispatch thread appends events and flips
    state; HTTP handlers snapshot status and read event windows
    concurrently.  ``done`` is set strictly *after* the final
    ``serve-job-end`` event lands, so a reader that sees ``done`` and an
    exhausted cursor has seen the whole tape.  The first
    :meth:`events_since` call while the job runs (a live reader) asks
    its worker to stream its events instead of sending them with its
    reply.

    ``deadline`` is an absolute :meth:`Observer.clock` instant fixed at
    admission (``deadline_s`` budgets the whole job, queue wait
    included); ``cancel_event`` is the cooperative cancellation flag.
    :meth:`cancel` and the dispatch thread, once the deadline passes,
    tell the job's worker to stop at its next round/task boundary.

    A finished job holds its result as ``body``, the canonical JSON bytes
    the cache stores and the server sends; :attr:`result` decodes them
    on demand for in-process callers.
    """

    def __init__(self, job_id: str, spec, key: str, *, cache: str = "miss"):
        self.id = job_id
        self.spec = spec
        self.key = key
        self.cache = cache
        self.state = JOB_QUEUED
        self.body: bytes | None = None
        self.error = ""
        self.elapsed_s = 0.0
        self.done = threading.Event()
        self.cancel_event = threading.Event()
        self.deadline: float | None = None
        self.journaled = False
        #: The worker running the job (``None`` unless it runs), and
        #: whether the job has a live reader.
        self.worker: _Worker | None = None
        self.watched = False
        self._events: list[dict] = []
        self._lock = threading.Lock()

    @property
    def result(self) -> dict | None:
        """The result document, decoded from ``body`` on each access."""
        return None if self.body is None else json.loads(self.body)

    def cancel(self) -> None:
        """Request cooperative cancellation (takes effect next round)."""
        if self.cancel_event.is_set():
            return  # its worker was told once
        self.cancel_event.set()
        worker = self.worker
        if worker is not None:
            worker.push(self, "stop")

    def raise_if_interrupted(self) -> None:
        """Raise if this job has been cancelled or outran its deadline."""
        if self.cancel_event.is_set():
            raise JobCancelledError(f"job {self.id} cancelled")
        if self.deadline is not None and Observer.clock() > self.deadline:
            raise JobDeadlineError(
                f"job {self.id} exceeded its deadline_s="
                f"{self.spec.deadline_s} budget"
            )

    def append_events(self, events: Iterable[dict]) -> None:
        with self._lock:
            self._events.extend(events)

    def events_since(self, cursor: int) -> tuple[list[dict], int]:
        """Events from ``cursor`` on, plus the new cursor (for streaming)."""
        if not self.watched:
            self.watched = True
            worker = self.worker
            if worker is not None:
                worker.push(self, "watch")
        with self._lock:
            window = self._events[cursor:]
        return window, cursor + len(window)

    def tape(self) -> list[dict]:
        """Every event so far; unlike :meth:`events_since`, not a reader."""
        with self._lock:
            return list(self._events)

    def num_events(self) -> int:
        with self._lock:
            return len(self._events)

    def head(self) -> JobStatus:
        """A snapshot of the job without its result (nothing decoded)."""
        return JobStatus(
            id=self.id,
            kind=self.spec.kind,
            state=self.state,
            spec=self.spec.to_dict(),
            cache=self.cache,
            error=self.error,
            elapsed_s=self.elapsed_s,
            events=self.num_events(),
        )

    def status(self) -> JobStatus:
        """A snapshot of the job with its result document decoded."""
        status = self.head()
        status.result = self.result
        return status


def _job_event(job: Job, kind: str, **fields) -> dict:
    """A ``serve-job-*`` event of ``job``."""
    return {"v": SCHEMA_VERSION, "kind": kind, "job": job.id, "spec": job.key, **fields}


class JobManager:
    """Admission, dedupe, caching and supervision for simulation jobs.

    Parameters
    ----------
    cache: a :class:`~repro.serve.cache.ResultCache`, a directory path
        for one, or ``None`` to serve without a cache (every request
        executes; in-flight coalescing still applies).
    workers: how many executions run at once, each on its own forked
        worker process.
    max_pending: admission bound on queued-or-running jobs; beyond it
        :meth:`submit` raises :class:`~repro.errors.JobQueueFullError`
        (HTTP 429) instead of growing an unserviceable backlog.
    journal: a :class:`~repro.serve.journal.JobJournal`, a directory
        path for one, or ``None`` to run without crash recovery.  Call
        :meth:`recover` after construction to replay incomplete jobs
        from a previous process.
    chaos: optional :class:`~repro.chaos.FaultSchedule` — deterministic
        fault injection for the chaos suite; never set in production.
        Its ``hold`` rules (kind ``"execute"``) sleep an execution
        ``seconds`` before it runs; the counter advances before the
        sleep, so the journal replay of a job killed mid-hold runs
        unheld.  Its ``reset`` rules act on the HTTP server's
        connections (:class:`~repro.serve.http.Server`).
    obs: optional external :class:`~repro.obs.Observer`: its registry
        receives the ``serve.*`` series on top of the manager's own, and
        its sink receives each job's event tape when the job ends.

    Executions run on ``workers`` worker processes, forked (``fork``
    start method) when the manager is built, before it starts a thread
    of its own, so a worker shares the server's imported modules and
    pays no start-up.  One dispatch thread per worker sends it a job's
    spec and waits for the reply: the result's canonical bytes, encoded
    in the worker, with the job's engine events for its tape (while the
    job has a live reader they arrive one by one instead).  A cancel or
    a passed deadline tells the worker to stop.  The manager writes the
    cache and the journal.  A worker that dies fails only the job it
    ran (``"worker process exited (code N)"``) and is re-forked.

    The working set stays in bounded LRU maps, each under a fixed byte
    budget.  Each worker keeps a **graph map** of networks by canonical
    graph mapping, under ``GRAPH_MAP_BYTES // workers``; a network is
    admitted on the second request for its graph in that worker, so
    traffic that never repeats a graph retains none.  A job goes to the
    idle worker returned last, so back-to-back repeats of a graph run
    where its network is.  The manager keeps the **body map**
    (:data:`BODY_MAP_BYTES`) of result bytes by cache key, filled by
    finished misses and by disk hits, so every hit on one key shares one
    ``bytes`` object and reads the disk at most once while it stays in
    memory.  Only
    :attr:`~repro.serve.types.JobSpec.deterministic` specs use the maps,
    the result cache and coalescing; any other spec executes every time.
    """

    def __init__(
        self,
        *,
        cache: ResultCache | str | None = None,
        workers: int = 2,
        max_pending: int = 256,
        journal: JobJournal | str | Path | None = None,
        chaos: FaultSchedule | None = None,
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
        # Forked before the dispatch pool starts a thread.
        self._graph_budget = GRAPH_MAP_BYTES // workers
        self._workers: list[_Worker | None] = [
            _Worker(self._graph_budget) for _ in range(workers)
        ]
        # Idle slots, last returned on top: back-to-back jobs run on
        # one worker, whose graph map has seen their graphs.
        self._idle = list(range(workers))
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        # Keyed by cache key, or by job id for a spec that is not
        # deterministic (see _slot).
        self._inflight: dict[str, Job] = {}
        self._bodies = _LRU(BODY_MAP_BYTES)
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
            if spec.deterministic:
                inflight = self._inflight.get(key)
                if inflight is not None:
                    # Identical spec already executing: one execution
                    # serves every concurrent caller.
                    self._inc("serve.cache.coalesced")
                    return inflight
                cached = self._cached_body(key)
                if cached is not None:
                    self._inc("serve.cache.hits")
                    job = Job(self._next_id(), spec, key, cache="hit")
                    job.state = JOB_DONE
                    job.body = cached
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
            self._inflight[self._slot(job)] = job
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
                warnings.warn(
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
        entries = len(self.cache) if self.cache is not None else 0
        with self._lock:
            workers = [worker for worker in self._workers if worker is not None]
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            counter = self.registry.counter_value
            return {
                "jobs": states,
                "executions": self._executions,
                "draining": self._draining or self._closed,
                "cache": {
                    "hits": int(counter("serve.cache.hits")),
                    "memory_hits": int(counter("serve.cache.memory_hits")),
                    "misses": int(counter("serve.cache.misses")),
                    "coalesced": int(counter("serve.cache.coalesced")),
                    "entries": entries,
                },
                "graphs": {
                    "hits": int(counter("serve.graphs.hits")),
                    "misses": int(counter("serve.graphs.misses")),
                    "entries": sum(worker.graphs[0] for worker in workers),
                    "bytes": sum(worker.graphs[1] for worker in workers),
                },
                "workers": {
                    "processes": len(workers),
                    "respawns": int(counter("serve.worker_respawns")),
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
        cancelled so their workers stop at the next round boundary
        instead of blocking process exit.  Returns a summary
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
        """Stop the pool and the workers; resolve every job a waiter
        could block on.

        Queued-but-never-started executions are cancelled out of the
        pool and marked failed ("server shutting down") so ``wait()``
        callers unblock instead of hanging until their timeout.  Their
        journal submit records are deliberately left unpaired — a
        restarted manager's :meth:`recover` picks the work back up.
        Idle workers' pipes are closed, so they exit on EOF; a worker
        still running a job (``wait=False``) is closed by its dispatch
        thread when the job ends.
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
                    self._inflight.pop(self._slot(job), None)
                    self._inc("serve.jobs", label=job.state)
                    job.done.set()
            self._set_depth()
            idle = [self._workers[slot] for slot in self._idle]
            for slot in self._idle:
                self._workers[slot] = None
        for worker in idle:
            if worker is not None:
                worker.close(wait)

    # -- execution (dispatch threads) ----------------------------------

    def _next_id(self) -> str:
        return f"job-{next(self._ids):06d}"

    @staticmethod
    def _slot(job: Job) -> str:
        """The job's ``_inflight`` key: a spec that is not deterministic
        never coalesces, so it is keyed by job id."""
        return job.key if job.spec.deterministic else job.id

    def _cached_body(self, key: str) -> bytes | None:
        """A stored result's bytes, from memory or from disk (lock held)."""
        if self.cache is None:
            return None
        body = self._bodies.get(key)
        if body is not None:
            self._inc("serve.cache.memory_hits")
            return body
        body = self.cache.get(key)
        if body is not None:
            self._bodies.put(key, body, len(body))
        return body

    def _borrow(self) -> tuple[int, _Worker]:
        """An idle worker slot, the one returned last.

        One dispatch thread per slot, so an idle slot always exists.  A
        slot whose worker is gone (its re-fork failed, or it died while
        idle) is re-forked here.
        """
        with self._lock:
            slot = self._idle.pop()
            worker = self._workers[slot]
        if worker is None or not worker.process.is_alive():
            try:
                worker = self._respawn(worker)
            except BaseException:
                self._give_back(slot, None)
                raise
        return slot, worker

    def _respawn(self, dead: _Worker | None) -> _Worker:
        if dead is not None:
            dead.close()
        worker = _Worker(self._graph_budget)
        with self._lock:
            self._inc("serve.worker_respawns")
        return worker

    def _give_back(self, slot: int, worker: _Worker | None) -> None:
        """Return a slot to the idle list, or close its worker once the
        manager is shut down."""
        with self._lock:
            closed = self._closed
            self._workers[slot] = None if closed else worker
            self._idle.append(slot)
        if closed and worker is not None:
            worker.close()

    def _execute(self, job: Job, registry: MetricsRegistry, events: list[dict]) -> bytes:
        """Run ``job`` on a worker; the result's canonical bytes.

        Streamed events go onto the job's tape as they arrive; those the
        worker kept for its reply are added to ``events``.  Once the
        job's deadline passes, the worker is told to stop.  A job that
        stopped raises its cancellation or deadline error.  The worker's
        registry snapshot merges into ``registry`` whatever the outcome.
        """
        slot, worker = self._borrow()
        handle, stopping = worker, False
        try:
            worker.start(job)
            while True:
                wait_s = None
                if job.deadline is not None and not stopping:
                    wait_s = job.deadline - Observer.clock()
                    if wait_s <= 0:
                        stopping, wait_s = True, None
                        worker.push(job, "stop")
                if not worker.conn.poll(wait_s):
                    continue
                message = worker.conn.recv()
                if message[0] != "events":
                    break
                job.append_events(message[1])
            state, payload, kept, snapshot, worker.graphs = message
        except (EOFError, OSError):
            code = worker.close()
            try:
                worker = self._respawn(None)
            except OSError:
                worker = None  # re-forked by the next _borrow
            raise _WorkerFailed(f"worker process exited (code {code})") from None
        finally:
            handle.release()
            self._give_back(slot, worker)
        events.extend(kept)
        registry.merge_snapshot(snapshot)
        if state == "stopped":
            job.raise_if_interrupted()
            raise JobCancelledError(f"job {job.id} cancelled")
        if state == "failed":
            raise _WorkerFailed(payload)
        return payload

    def _run(self, job: Job) -> None:
        start = Observer.clock()
        registry = MetricsRegistry()
        job.append_events([_job_event(job, "serve-job-start")])
        events: list[dict] = []
        try:
            # Cancelled (or deadline-expired) while still queued: skip
            # the execution entirely.
            job.raise_if_interrupted()
            if self.chaos is not None:
                hold = self.chaos.fire("execute", "hold")
                if hold is not None:
                    time.sleep(hold.seconds)
                    job.raise_if_interrupted()
            job.state = JOB_RUNNING
            # The worker's encoding is the only one: the cache stores
            # these bytes and the server sends them.
            body = self._execute(job, registry, events)
            # Inside the handlers: a put that raises (an unwritable
            # disk) fails the job instead of escaping the dispatch
            # thread and leaving it non-terminal forever.
            if self.cache is not None and job.spec.deterministic:
                self.cache.put(job.key, body)
        except JobCancelledError as exc:
            job.error = str(exc)
            job.state = JOB_CANCELLED
        except JobDeadlineError as exc:
            job.error = str(exc)
            job.state = JOB_TIMEOUT
        except _WorkerFailed as exc:
            job.error = str(exc)
            job.state = JOB_FAILED
        except Exception as exc:  # noqa: BLE001 — failures become job state
            job.error = f"{type(exc).__name__}: {exc}"
            job.state = JOB_FAILED
        else:
            job.body = body
            job.state = JOB_DONE
        job.elapsed_s = Observer.clock() - start
        if job.state in (JOB_CANCELLED, JOB_TIMEOUT):
            events.append(_job_event(job, "serve-job-cancelled", state=job.state))
        events.append(_job_event(job, "serve-job-end", state=job.state, wall_s=job.elapsed_s))
        job.append_events(events)
        try:
            if self._obs is not None and self._obs.sink is not None:
                for event in job.tape():
                    self._obs.sink.emit(event)
            if self.journal is not None and job.journaled:
                # Result (if any) is in the cache; the journal pair may
                # close.  Crash before this line → restart replays the
                # job, which is either a cache hit or a byte-identical
                # re-run.
                self.journal.record_terminal(job.key, job.state)
        except Exception:  # noqa: BLE001 — say, an unwritable journal or trace
            # The job still ends.  Its submit record stays unpaired, so
            # the next process's recover() replays it.
            job.journaled = False
            warnings.warn(f"job {job.id} bookkeeping failed:\n{format_exc()}", RuntimeWarning)
        with self._lock:
            self._inflight.pop(self._slot(job), None)
            if (
                job.state == JOB_DONE
                and self.cache is not None
                and job.spec.deterministic
            ):
                self._bodies.put(job.key, job.body, len(job.body))
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
