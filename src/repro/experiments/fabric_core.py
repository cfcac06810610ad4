"""The sweep fabric's protocol, sans I/O: the coordinator core and the
worker's per-message step.

:class:`CoordinatorCore` makes every decision of the fabric
coordinator, in the order things go wrong:

* **membership by heartbeat** — a worker announces itself (``hello``)
  and beacons from a side thread; silence past the liveness window is a
  partition (a crash looks the same), and a connection that never says
  ``hello`` within it is dropped too;
* **leases** — a dispatched task is a lease (worker, attempt, deadline)
  charged one attempt up front; a lost worker's leases are requeued with
  ``lost_leases`` accounting, each retry on the task's original seed
  child, so ``jobs=1 ≡ fabric(N)`` survives any recovery;
* **idempotent completion** — the first terminal result wins; a late or
  duplicated one is discarded (``fabric-duplicate-result``);
* **acks and resends** — an unacked lease is requeued uncharged and
  redelivered to its worker (the ``task`` frame or its ``ack`` died: a
  worker that already ran the attempt answers from its result cache, so
  a lost ack buys no extra execution); a quiet acked lease is
  retransmitted, and the worker answers from its result cache (the
  ``result`` frame died);
* **work stealing** — once the queue is dry, an idle worker twins the
  oldest in-flight task; the loser is a duplicate;
* **degradation** — with no ready worker for the worker wait, the rest
  runs in-process on the same ledger and the same attempt budget;
* **restart** — ``ok`` results land in the ledger's store as they are
  recorded; a ``halt`` rule in the chaos schedule kills the coordinator.

It is a pure state machine.  Its inputs are ``(now, event)``: a
connection opened (:meth:`~CoordinatorCore.connect`), a decoded frame
(:meth:`~CoordinatorCore.receive`), a connection lost
(:meth:`~CoordinatorCore.disconnect`) or time passing
(:meth:`~CoordinatorCore.tick`).  Each returns an *outbox* of
``(worker_id, message)`` pairs to send in order; a ``None`` message
closes that connection.  It opens no socket, spawns no process and reads
no clock.  The TCP shell of :mod:`repro.experiments.fabric` drives it on
``time.monotonic()``; ``tests/experiments/virtual_fabric.py`` drives it
with in-memory workers on a fake clock.  :func:`serve_task` is the
worker's half, shared by the TCP worker and the in-memory one.

Every window is a fixed multiple of the workers' heartbeat interval:

=========================  ==========  ======================================
window                     heartbeats  when it passes
=========================  ==========  ======================================
``LIVENESS_HEARTBEATS``    6           a silent or hello-less peer is dropped
``ACK_HEARTBEATS``         4           an unacked lease is redelivered uncharged
``LEASE_HEARTBEATS``       8           a quiet acked lease is retransmitted
``STEAL_HEARTBEATS``       5           a lease may be twinned (queue dry)
``WORKER_WAIT_HEARTBEATS`` 15          no ready worker: run the rest locally
=========================  ==========  ======================================
"""

from __future__ import annotations

import itertools
import pickle
from collections import deque
from dataclasses import dataclass

from ..errors import CoordinatorHalted
from .supervisor import TASK_CRASHED, TASK_ERROR, TASK_OK, TaskLedger

__all__ = [
    "ACK_HEARTBEATS", "LEASE_HEARTBEATS", "LIVENESS_HEARTBEATS", "STEAL_HEARTBEATS",
    "WORKER_WAIT_HEARTBEATS", "CoordinatorCore", "serve_task",
]

# Message kinds.  Worker -> coordinator: ``hello`` (its host identity),
# ``heartbeat``, ``ack`` (an assignment arrived), ``result`` (one
# attempt's terminal report), ``goodbye`` (clean exit: release the
# lease).  Coordinator -> worker: ``task`` (key, attempt, payload, seed)
# and ``bye`` (the sweep is over).
MSG_HELLO, MSG_HEARTBEAT, MSG_ACK, MSG_RESULT, MSG_GOODBYE = (
    "hello", "heartbeat", "ack", "result", "goodbye",
)
MSG_TASK, MSG_BYE = "task", "bye"

LIVENESS_HEARTBEATS = 6.0
ACK_HEARTBEATS = 4.0
LEASE_HEARTBEATS = 8.0
STEAL_HEARTBEATS = 5.0
WORKER_WAIT_HEARTBEATS = 15.0

#: ``TaskOutcome.host`` of outcomes no single worker produced (a lost
#: lease's final crash, a deadline expiry).
FABRIC_HOST = "fabric"

#: What the core asks its driver to do: send each message to its worker,
#: in order; a ``None`` message closes that worker's connection.
Outbox = list[tuple[str, "dict | None"]]


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _reply(message: dict, **fields) -> dict:
    ident = {name: message[name] for name in ("index", "key", "attempt")}
    return {"kind": MSG_RESULT, **ident, **fields}


def _execute(message: dict) -> dict:
    task = message["task"]
    try:
        result = task.fn(seed=message["seed"], **task.kwargs)
    except Exception as exc:  # noqa: BLE001 - reported, never fatal
        try:  # ship the exception object when it pickles, for re-raise
            pickle.dumps(exc)
            exception = exc
        except Exception:  # noqa: BLE001 - unpicklable exceptions degrade to text
            exception = None
        error = f"{type(exc).__name__}: {exc}"
        return _reply(message, ok=False, error=error, exception=exception)
    return _reply(message, ok=True, result=result)


def serve_task(message: dict, completed: dict, send) -> None:
    """A worker's whole answer to one ``task`` frame, through ``send``.

    The ack goes out before the task runs, so a long task still shows
    its lease delivered.  ``completed`` caches each reply by ``(key,
    attempt)``: a duplicated, retransmitted or re-stolen assignment is
    answered from it instead of executing (and consuming task chaos)
    twice.  ``KeyboardInterrupt`` propagates, with the ack already sent.
    """
    send({"kind": MSG_ACK, "index": message["index"], "attempt": message["attempt"]})
    ident = (message["key"], message["attempt"])
    if ident not in completed:
        completed[ident] = _execute(message)
    send(completed[ident])


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------


@dataclass
class _Lease:
    """One outstanding assignment of a task to a worker."""

    attempt: int
    started: float
    deadline: float | None
    acked: bool = False


@dataclass
class _Member:
    """One connection, as the coordinator sees it."""

    connected: float
    last_seen: float
    host: str = ""
    ready: bool = False  # hello received
    busy: int | None = None  # task index it is believed to be running


class CoordinatorCore:
    """The fabric coordinator's state machine over one ledger (single-use).

    The ledger owns attempts, retries, outcomes and the store; the core
    owns which worker holds which lease.  ``chaos`` is the coordinator's
    :class:`~repro.chaos.FaultSchedule`: the core consults its ``halt``
    rules (kind ``"outcome"``) once per recorded outcome and raises
    :class:`~repro.errors.CoordinatorHalted` from :meth:`tick`; its wire
    rules belong to the driver's channels.

    After :meth:`tick` sets :attr:`degraded`, the ledger's queue holds
    every unfinished task and the driver runs it with
    :func:`~repro.experiments.supervisor.run_in_process`.
    """

    def __init__(
        self, ledger: TaskLedger, *, heartbeat_interval: float, chaos, now: float
    ):
        self.ledger = ledger
        self._emit = ledger.emit
        self._inc = ledger.inc
        self.chaos = chaos
        self.liveness_timeout = LIVENESS_HEARTBEATS * heartbeat_interval
        self.ack_timeout = ACK_HEARTBEATS * heartbeat_interval
        self.lease_timeout = LEASE_HEARTBEATS * heartbeat_interval
        self.steal_after = STEAL_HEARTBEATS * heartbeat_interval
        self.worker_wait = WORKER_WAIT_HEARTBEATS * heartbeat_interval
        self.leases: dict[int, dict[str, _Lease]] = {}
        self.workers: dict[str, _Member] = {}
        self.last_worker_seen = now  # last tick with a ready worker
        self.ever_joined = False
        self.degraded = False
        self.outcomes_seen = 0  # recorded outcomes shown to the chaos schedule
        self._ids = itertools.count(1)
        self._out: Outbox = []

    def _flush(self) -> Outbox:
        out, self._out = self._out, []
        return out

    # -- inputs --------------------------------------------------------

    def connect(self, now: float) -> str:
        """A connection opened; returns the id its frames arrive under."""
        worker_id = f"w{next(self._ids)}"
        self.workers[worker_id] = _Member(connected=now, last_seen=now)
        return worker_id

    def receive(self, now: float, worker_id: str, message: dict) -> Outbox:
        """One decoded frame from ``worker_id``."""
        worker = self.workers.get(worker_id)
        if worker is not None:
            worker.last_seen = now
            self._handle(now, worker_id, worker, message)
        return self._flush()

    def disconnect(self, now: float, worker_id: str, reason: str) -> Outbox:
        """``worker_id``'s connection is gone (EOF, corrupt stream, failed send)."""
        self._drop(now, worker_id, reason=reason)
        return self._flush()

    def tick(self, now: float) -> Outbox:
        """Time passes: detect failures, then hand out work."""
        self._check_acks(now)
        self._check_resends(now)
        self._check_liveness(now)
        self._check_deadlines(now)
        self._check_halt()
        if self._should_degrade(now):
            self._degrade()
        elif not self.degraded:
            self._dispatch(now)
            self._maybe_steal(now)
        return self._flush()

    def close(self, *, farewell: bool) -> Outbox:
        """Close every connection, after a ``bye`` when ``farewell``."""
        for worker_id in self.workers:
            if farewell:
                self._out.append((worker_id, {"kind": MSG_BYE}))
            self._out.append((worker_id, None))
        self.workers.clear()
        return self._flush()

    def finish(self) -> Outbox:
        """The sweep is done: report it and say ``bye`` to everyone."""
        self._emit(
            "fabric-end", tasks=len(self.ledger.outcomes), workers=len(self.workers)
        )
        return self.close(farewell=True)

    # -- frames --------------------------------------------------------

    def _handle(self, now: float, worker_id: str, worker: _Member, message: dict):
        kind = message.get("kind")
        if kind == MSG_HELLO:
            worker.host = str(message.get("host", ""))
            worker.ready = True
            self.ever_joined = True
            self._inc("fabric.workers_joined")
            self._emit("fabric-worker-join", worker=worker_id, host=worker.host)
        elif kind == MSG_ACK:
            lease = self.leases.get(message.get("index"), {}).get(worker_id)
            if lease is not None and lease.attempt == message.get("attempt"):
                lease.acked = True
        elif kind == MSG_RESULT:
            self._handle_result(now, worker_id, worker, message)
        elif kind == MSG_GOODBYE:
            self._drop(now, worker_id, reason="goodbye", charge=False)
        # Heartbeats need no handling beyond the last_seen bump.

    def _handle_result(self, now: float, worker_id: str, worker: _Member, message):
        ledger = self.ledger
        index = message.get("index")
        if not isinstance(index, int) or not 0 <= index < len(ledger.tasks):
            return
        if ledger.tasks[index].key != message.get("key"):
            return
        if index in ledger.outcomes:
            # The idempotency point: a late result from a revoked lease,
            # a speculative twin, or a chaos-duplicated frame — the
            # first terminal result won, this one is discarded.
            self._inc("fabric.duplicate_results")
            self._emit(
                "fabric-duplicate-result", task=ledger.tasks[index].key, worker=worker_id
            )
            return
        host = worker.host or worker_id
        if message.get("ok"):
            # A success completes the task no matter which attempt or
            # lease produced it: every attempt ran the same child seed,
            # so all successes are byte-identical by construction.
            for holder in list(self.leases.get(index, {})):
                self._revoke(index, holder)
            if index in ledger.queue:
                ledger.queue.remove(index)
            ledger.record(
                index, TASK_OK, now=now, result=message.get("result"), host=host
            )
            return
        # A failure counts only from a holder of the current attempt's
        # lease.  Anything else is stale (a superseded attempt, or a
        # duplicate frame answered from cache) and must leave the lease
        # alone: the holder may still owe the current attempt.
        if message.get("attempt") != ledger.attempts[index]:
            return
        if worker_id in self.leases.get(index, {}) and self._revoke(index, worker_id):
            ledger.retry_or_fail(
                index,
                TASK_ERROR,
                str(message.get("error", "task raised")),
                now=now,
                host=host,
                exception=message.get("exception"),
            )

    # -- dispatch ------------------------------------------------------

    def _idle_workers(self) -> list[str]:
        return [i for i, w in self.workers.items() if w.ready and w.busy is None]

    def _task_message(self, index: int, attempt: int) -> dict:
        return {
            "kind": MSG_TASK,
            "index": index,
            "key": self.ledger.tasks[index].key,
            "attempt": attempt,
            "task": self.ledger.tasks[index],
            "seed": self.ledger.children[index],
        }

    def _send_task(self, now: float, worker_id: str, index: int) -> None:
        """Lease the task's current attempt to ``worker_id``."""
        attempt = self.ledger.attempts[index]
        timeout = self.ledger.task_timeout
        self._out.append((worker_id, self._task_message(index, attempt)))
        deadline = now + timeout if timeout is not None else None
        self.leases.setdefault(index, {})[worker_id] = _Lease(attempt, now, deadline)
        self.workers[worker_id].busy = index

    def _dispatch(self, now: float) -> None:
        ledger = self.ledger
        for worker_id in self._idle_workers():
            if not ledger.queue:
                return
            index = ledger.queue.popleft()
            if index in ledger.outcomes:
                continue
            ledger.charge(index, now)
            self._send_task(now, worker_id, index)

    def _maybe_steal(self, now: float) -> None:
        """Twin the oldest straggler onto an idle worker, once the queue
        is dry.  The twin reuses the lease's attempt (no charge) and seed."""
        if self.ledger.queue:
            return
        candidates = sorted(
            (lease.started, index, owner_id)
            for index, leases in self.leases.items()
            if index not in self.ledger.outcomes and len(leases) == 1
            for owner_id, lease in leases.items()
            if lease.acked and now - lease.started >= self.steal_after
        )
        for worker_id in self._idle_workers():
            while candidates:
                _, index, owner_id = candidates.pop(0)
                if owner_id == worker_id:
                    continue
                self._send_task(now, worker_id, index)
                self._inc("fabric.steals")
                self._emit(
                    "fabric-task-steal",
                    task=self.ledger.tasks[index].key,
                    worker=worker_id,
                )
                break
            else:
                return

    # -- failure detection ---------------------------------------------

    def _revoke(self, index: int, worker_id: str) -> bool:
        """Take ``worker_id``'s lease on ``index`` away; True when that
        leaves the unfinished task with no lease (it must be requeued)."""
        leases = self.leases[index]
        del leases[worker_id]
        worker = self.workers.get(worker_id)
        if worker is not None and worker.busy == index:
            worker.busy = None
        if leases:
            return False  # a speculative twin still carries the task
        del self.leases[index]
        return index not in self.ledger.outcomes

    def _drop(
        self, now: float, worker_id: str, *, reason: str, charge: bool = True
    ) -> None:
        """Revoke a worker's leases, forget it and close its connection.

        A lost worker's leases keep their attempt charge (the dead worker
        cannot say whose fault it was); a goodbye (``charge=False``)
        refunds it: the task never got a fair run.
        """
        worker = self.workers.pop(worker_id, None)
        if worker is None:
            return
        self._out.append((worker_id, None))
        ledger = self.ledger
        held = sorted(i for i, leases in self.leases.items() if worker_id in leases)
        revoked = [i for i in reversed(held) if self._revoke(i, worker_id)]
        for index in revoked:
            if charge:
                ledger.lost_leases[index] += 1
                self._inc("fabric.lost_leases")
                reason_text = f"worker lost ({reason})"
                ledger.retry_or_fail(
                    index, TASK_CRASHED, reason_text, now=now, host=FABRIC_HOST
                )
            else:
                ledger.refund(index, reason)
        if worker.ready:
            self._inc("fabric.workers_lost", label=reason)
            self._emit(
                "fabric-worker-lost", worker=worker_id, leases=len(revoked), reason=reason
            )

    def _check_liveness(self, now: float) -> None:
        """Drop workers silent past the liveness window, and connections
        that never said ``hello`` within it (a worker whose hello was
        lost, a port probe): neither will ever take work."""
        for worker_id, worker in list(self.workers.items()):
            silent = now - (worker.last_seen if worker.ready else worker.connected)
            if silent > self.liveness_timeout:
                self._drop(
                    now, worker_id, reason="partition" if worker.ready else "no-hello"
                )

    def _check_acks(self, now: float) -> None:
        """Requeue unacked assignments uncharged, back to the same worker.

        Either the ``task`` frame died and nothing ran, or only its
        ``ack`` died and the attempt ran.  The coordinator cannot tell,
        so the same attempt goes to the same worker again: a worker that
        ran it answers from its result cache, one that never saw it runs
        it now.  If the worker is lost instead, its lease is charged like
        any lost lease.
        """
        unacked = [
            (index, worker_id)
            for index, leases in self.leases.items()
            for worker_id, lease in leases.items()
            if not lease.acked and now - lease.started > self.ack_timeout
        ]
        ledger = self.ledger
        for index, worker_id in unacked:
            if self._revoke(index, worker_id):
                ledger.refund(index, "undelivered")
                ledger.queue.remove(index)
                ledger.charge(index, now)
                self._send_task(now, worker_id, index)

    def _check_resends(self, now: float) -> None:
        """Retransmit acked leases quiet past the lease window.

        The task is slow or its ``result`` frame died; either way the
        worker answers the copy from its result cache, now or when it
        finishes.  The lease clock resets, so one resend per window.
        """
        for index, leases in self.leases.items():
            if index in self.ledger.outcomes:
                continue
            for worker_id, lease in leases.items():
                if not lease.acked or now - lease.started <= self.lease_timeout:
                    continue
                if worker_id not in self.workers:
                    continue
                lease.started = now
                self._out.append((worker_id, self._task_message(index, lease.attempt)))
                self._inc("fabric.lease_resends")

    def _check_deadlines(self, now: float) -> None:
        """Expire tasks past ``task_timeout`` (terminal, like the pool)
        and disconnect their workers: a hung worker's heartbeat thread
        then ends its process, and a respawn restores capacity."""
        for index, leases in list(self.leases.items()):
            if index in self.ledger.outcomes:
                continue
            expired = [
                worker_id
                for worker_id, lease in leases.items()
                if lease.deadline is not None and now >= lease.deadline
            ]
            if not expired:
                continue
            for worker_id in list(leases):
                self._revoke(index, worker_id)
            self.ledger.expire(index, now=now, host=FABRIC_HOST)
            for worker_id in expired:
                self._drop(now, worker_id, reason="deadline")

    def _check_halt(self) -> None:
        """Show each newly recorded outcome to the chaos schedule; on a
        ``halt`` rule, die abruptly, as a killed coordinator would."""
        if self.chaos is None:
            return
        while self.outcomes_seen < self.ledger.recorded:
            self.outcomes_seen += 1
            if self.chaos.fire("outcome", "halt") is not None:
                completed = self.ledger.recorded
                self._emit("fabric-halt", completed=completed)
                raise CoordinatorHalted(
                    f"coordinator halted after {completed} outcomes "
                    "(chaos halt rule)",
                    completed=completed,
                )

    # -- endgame -------------------------------------------------------

    def _should_degrade(self, now: float) -> bool:
        """No ready worker for the whole wait: connections that never
        said ``hello`` do not count, since they will never take work."""
        if any(w.ready for w in self.workers.values()):
            self.last_worker_seen = now
            return False
        if self.degraded or self.ledger.done():
            return False
        return now - self.last_worker_seen > self.worker_wait

    def _degrade(self) -> None:
        """Hand the remaining tasks to in-process execution, same ledger.

        Each task keeps the attempts the fabric already charged, so the
        local run spends what is left of its one budget, and every
        terminal outcome counts once, under ``fabric.*``.
        """
        ledger = self.ledger
        pending = [i for i in range(len(ledger.tasks)) if i not in ledger.outcomes]
        self._inc("fabric.degradations")
        self._emit(
            "fabric-degraded",
            remaining=len(pending),
            reason="all-workers-lost" if self.ever_joined else "no-workers",
        )
        self.leases.clear()
        ledger.queue = deque(pending)
        self.degraded = True
