"""Trace sinks: schema-versioned structured events, streamed or buffered.

Every instrumented engine emits flat JSON-serialisable dicts ("events")
into a :class:`TraceSink`.  The schema is versioned through the ``v``
field (currently :data:`SCHEMA_VERSION`); consumers should ignore keys
they do not know, and producers must keep the required keys of each kind
stable within a version.

Event kinds and their required keys (see docs/OBSERVABILITY.md for the
full schema):

``run-start``
    ``v, kind, run, dynamics, n, max_rounds, faulty``
``round``
    ``v, kind, run, dynamics, t, transmitters, collisions, received,
    wall_s`` — plus dynamics-specific extras (``new``/``informed`` for
    single-message processes, ``pairs_known``/``nodes_complete`` for
    knowledge processes) and a ``faults`` sub-dict on fault-path rounds
    (``alive``, ``forgot``, ``garbage``).
``run-end``
    ``v, kind, run, dynamics, rounds, completed, wall_s``
``batch-start`` / ``batch-round`` / ``batch-end``
    the lockstep engines' analogues; ``batch-round`` carries ``active``
    (trials still running), ``transmitters``/``collisions`` summed over
    active trials, and ``wall_s``.
``task-requeue``
    a sweep task put back on the queue by recovery, on either transport
    (the supervised pool or the fabric): ``task``, ``attempt`` (the
    number its next attempt will carry) and ``reason``.
``exec-task-timeout`` / ``exec-worker-crash`` /
``exec-pool-rebuild`` / ``exec-degraded``
    executor-health events from the supervised parallel executor
    (:mod:`repro.experiments.supervisor`): deadline expiries,
    broken-pool recoveries and degradation to serial execution.
``fabric-start`` / ``fabric-worker-join`` / ``fabric-worker-lost`` /
``fabric-task-steal`` /
``fabric-duplicate-result`` / ``fabric-task-timeout`` /
``fabric-degraded`` / ``fabric-halt`` / ``fabric-end``
    coordinator-side events from the multi-host sweep fabric
    (:mod:`repro.experiments.fabric`): worker membership, lease
    revocations, speculative steals, idempotent
    duplicate-result discards, and degradation to the local pool.
``serve-job-start`` / ``serve-job-cancelled`` / ``serve-job-end``
    job-server events from the simulation-as-a-service front door
    (:mod:`repro.serve`), bracketing each job's teed engine events in
    the ``GET /v1/jobs/{id}/events`` stream; ``serve-job-cancelled``
    precedes the ``serve-job-end`` of a job that ended ``cancelled``
    or ``timeout``.
``serve-drain-start`` / ``serve-drain-end``
    graceful-drain brackets (SIGTERM → admission stops → in-flight
    jobs get a bounded window; the rest stay journaled).

:func:`validate_event` checks an event against this schema and is what
the schema tests (and any external consumer) should use.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Protocol, runtime_checkable

__all__ = [
    "SCHEMA_VERSION",
    "TraceSink",
    "MemoryTraceSink",
    "JsonlTraceSink",
    "validate_event",
    "read_jsonl_events",
]

#: Current event-schema version, stamped into every event's ``v`` field.
SCHEMA_VERSION = 1

#: Required keys (beyond ``v``/``kind``) per event kind.
_REQUIRED_KEYS: dict[str, tuple[str, ...]] = {
    "run-start": ("run", "dynamics", "n", "max_rounds", "faulty"),
    "round": (
        "run",
        "dynamics",
        "t",
        "transmitters",
        "collisions",
        "received",
        "wall_s",
    ),
    "run-end": ("run", "dynamics", "rounds", "completed", "wall_s"),
    "batch-start": ("run", "engine", "backend", "n", "repetitions", "max_rounds"),
    "batch-round": ("run", "engine", "t", "active", "wall_s"),
    "batch-end": ("run", "engine", "rounds", "num_completed", "wall_s"),
    # A sweep task requeued by recovery, on the pool or the fabric
    # (repro.experiments.supervisor.TaskLedger); see docs/FAULTS.md.
    "task-requeue": ("task", "attempt", "reason"),
    # Executor-health events from the supervised parallel executor
    # (repro.experiments.supervisor); see docs/FAULTS.md.
    "exec-task-timeout": ("task", "elapsed_s"),
    "exec-worker-crash": ("victims",),
    "exec-pool-rebuild": ("rebuilds", "requeued"),
    "exec-degraded": ("remaining",),
    # Multi-host fabric events from the coordinator
    # (repro.experiments.fabric); see docs/FAULTS.md.
    "fabric-start": ("address", "tasks"),
    "fabric-worker-join": ("worker", "host"),
    "fabric-worker-lost": ("worker", "leases", "reason"),
    "fabric-task-steal": ("task", "worker"),
    "fabric-duplicate-result": ("task", "worker"),
    "fabric-task-timeout": ("task", "elapsed_s"),
    "fabric-degraded": ("remaining", "reason"),
    "fabric-halt": ("completed",),
    "fabric-end": ("tasks", "workers"),
    # Job-server events from the simulation-as-a-service front door
    # (repro.serve); bracket each job's teed engine events and are the
    # first/last lines of `GET /v1/jobs/{id}/events`.  See docs/SERVICE.md.
    "serve-job-start": ("job", "spec"),
    "serve-job-cancelled": ("job", "spec", "state"),
    "serve-job-end": ("job", "spec", "state", "wall_s"),
    "serve-drain-start": ("inflight",),
    "serve-drain-end": ("finished", "journaled", "wall_s"),
}

_INT_KEYS = frozenset(
    {
        "run",
        "n",
        "max_rounds",
        "t",
        "transmitters",
        "collisions",
        "received",
        "rounds",
        "repetitions",
        "active",
        "num_completed",
        "new",
        "informed",
        "pairs_known",
        "nodes_complete",
        "attempt",
        "victims",
        "rebuilds",
        "requeued",
        "remaining",
        "tasks",
        "leases",
        "completed",
        "workers",
        "inflight",
        "finished",
        "journaled",
    }
)


def validate_event(event: dict) -> None:
    """Raise :class:`ValueError` if ``event`` violates the v1 schema."""
    if not isinstance(event, dict):
        raise ValueError(f"event must be a dict, got {type(event).__name__}")
    version = event.get("v")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unknown event schema version {version!r}")
    kind = event.get("kind")
    if kind not in _REQUIRED_KEYS:
        raise ValueError(f"unknown event kind {kind!r}")
    missing = [key for key in _REQUIRED_KEYS[kind] if key not in event]
    if missing:
        raise ValueError(f"{kind} event missing required keys {missing}")
    for key, value in event.items():
        if key in _INT_KEYS and not isinstance(value, int):
            raise ValueError(f"{kind} event key {key!r} must be int, got {value!r}")
    for seconds_key in ("wall_s", "elapsed_s"):
        if seconds_key in event and not isinstance(
            event[seconds_key], (int, float)
        ):
            raise ValueError(f"{kind} event {seconds_key} must be a number")
    faults = event.get("faults")
    if faults is not None:
        if not isinstance(faults, dict) or not all(
            isinstance(v, int) for v in faults.values()
        ):
            raise ValueError("faults sub-dict must map str -> int")


@runtime_checkable
class TraceSink(Protocol):
    """Destination for structured events.

    Implementations must accept any schema-valid event dict; ``emit``
    must not mutate it.  ``close`` flushes and releases resources and is
    idempotent.
    """

    def emit(self, event: dict) -> None:
        """Record one event."""
        ...

    def close(self) -> None:
        """Flush and release resources (idempotent)."""
        ...


class MemoryTraceSink:
    """Buffer events in a list — tests, and cross-process replay."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def emit(self, event: dict) -> None:
        """Append the event to the in-memory buffer."""
        self.events.append(event)

    def close(self) -> None:
        """No resources to release; kept for the protocol."""

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"MemoryTraceSink(events={len(self.events)})"


class JsonlTraceSink:
    """Stream events to a JSON-lines file, one compact object per line.

    Parameters
    ----------
    path_or_file: a filesystem path (opened for writing, truncating) or
        an already-open text file object (not closed by :meth:`close` —
        the caller owns it).
    """

    def __init__(self, path_or_file: str | IO[str]):
        if hasattr(path_or_file, "write"):
            self._fh: IO[str] | None = path_or_file
            self._owns = False
            self.path = getattr(path_or_file, "name", None)
        else:
            self.path = str(path_or_file)
            self._fh = open(self.path, "w")
            self._owns = True
        self.num_emitted = 0

    def emit(self, event: dict) -> None:
        """Serialise the event as one JSONL line."""
        if self._fh is None:
            raise ValueError("sink is closed")
        json.dump(event, self._fh, separators=(",", ":"))
        self._fh.write("\n")
        self.num_emitted += 1

    def close(self) -> None:
        """Flush, and close the file when this sink opened it."""
        if self._fh is None:
            return
        self._fh.flush()
        if self._owns:
            self._fh.close()
        self._fh = None

    def __repr__(self) -> str:
        return f"JsonlTraceSink(path={self.path!r}, emitted={self.num_emitted})"


def read_jsonl_events(path: str) -> Iterable[dict]:
    """Parse a JSONL trace file back into event dicts (generator)."""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)
