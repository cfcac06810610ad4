"""Multi-host sweep fabric: a fault-tolerant coordinator/worker executor.

The supervised executor (:mod:`repro.experiments.supervisor`) recovers
from crashed, hung and lying workers — but all of them live on one
machine, behind one ``ProcessPoolExecutor``.  This module generalises
the same recovery invariants to a sharded executor whose failure
domains include the *network*: a TCP coordinator distributes seed-pure
sweep tasks to remote worker processes, and everything the supervisor
promised still holds when workers sit behind flaky links.

The coordinator's stance, in the order things go wrong:

* **membership by heartbeat** — workers announce themselves (``hello``)
  and beacon (``heartbeat``) from a side thread, so a worker busy with
  a long task still counts as alive.  A worker silent past
  ``liveness_timeout`` is declared partitioned and dropped; there is no
  way (and no need) to distinguish a crashed worker from an
  unreachable one;
* **lease-based ownership** — a dispatched task is a *lease* (worker,
  attempt, deadline), charged one attempt up front exactly like the
  supervisor's submissions.  Losing the worker revokes its leases: the
  tasks are requeued with ``lost_leases`` accounting and bounded
  retries, each retry reusing the task's **original** spawned
  ``SeedSequence`` child — so ``jobs=1 ≡ fabric(N hosts)`` stays
  byte-identical through any amount of recovery;
* **idempotent completion** — results are deduplicated by task key:
  the first terminal result wins, and a partitioned worker's late
  result (or a speculative twin's second copy) is discarded with a
  ``fabric-duplicate-result`` event instead of double-counting;
* **delivery acks** — assignments are acknowledged; an unacked lease
  past ``ack_timeout`` means the ``task`` message died on the wire, so
  it is requeued *uncharged* (the attempt never started);
* **work stealing** — once the queue drains, an idle worker may run a
  speculative twin of the oldest in-flight task (the classic straggler
  mitigation); first result wins, the loser is deduplicated;
* **graceful degradation** — when no workers ever join (or every one is
  lost and none return within ``worker_wait``), the remaining tasks run
  in-process on the same :class:`~repro.experiments.supervisor.TaskLedger`,
  so the sweep completes byte-identically with zero fabric and each
  task keeps the attempt budget the fabric already charged;
* **coordinator restart** — terminal outcomes flush incrementally to a
  :class:`~repro.experiments.supervisor.SweepTaskCheckpoint` (atomic
  writes, corrupt files quarantined), so a killed coordinator resumes
  past completed tasks without re-executing them.  ``halt_after`` is
  the chaos hook that simulates the kill.

The coordinator is a transport: attempt charging, retry-or-fail,
terminal outcomes and the checkpoint flush all live in the
:class:`~repro.experiments.supervisor.TaskLedger` it shares with the
local supervised pool.  The wire protocol lives in
:mod:`repro.experiments.wire` (pickle frames — a trusted-cluster
transport, loopback or lab network only), and the
deterministic network faults that verify all of the above live in
:mod:`repro.experiments.chaos` (:class:`~repro.experiments.chaos.NetChaos`).
``tests/experiments/test_fabric.py`` pins a chaos-ridden distributed
sweep — worker crashes, a partition, one coordinator restart —
byte-for-byte against the serial run.

CLI: ``repro worker --connect HOST:PORT`` starts a worker;
``repro run-all --fabric :PORT --workers N`` drives a loopback fabric.
"""

from __future__ import annotations

import os
import pickle
import selectors
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from ..errors import CoordinatorHalted, InvalidParameterError
from .supervisor import (
    TASK_CRASHED,
    TASK_ERROR,
    TASK_OK,
    SweepTask,
    SweepTaskCheckpoint,
    TaskLedger,
    TaskOutcome,
    open_ledger,
    run_in_process,
)
from .wire import (
    MSG_ACK,
    MSG_BYE,
    MSG_GOODBYE,
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_RESULT,
    MSG_TASK,
    FramedChannel,
    FrameDecoder,
    format_address,
    parse_address,
)

__all__ = [
    "WORKER_DISCONNECT_EXIT_CODE",
    "run_fabric_sweep",
    "run_worker",
]

#: Exit status of a worker that terminated itself on a lost coordinator
#: connection (mirrors the supervisor's pool teardown, which also kills
#: workers it can no longer talk to).
WORKER_DISCONNECT_EXIT_CODE = 75

#: ``TaskOutcome.host`` of outcomes no single worker produced (a lost
#: lease's final crash, a deadline expiry).
FABRIC_HOST = "fabric"


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _worker_name() -> str:
    return f"{socket.gethostname()}/{os.getpid()}"


def _connect_with_retry(
    host: str, port: int, *, attempts: int = 40, delay: float = 0.25
) -> socket.socket:
    """Dial the coordinator, tolerating a racing startup."""
    last: OSError | None = None
    for i in range(attempts):
        try:
            return socket.create_connection((host, port), timeout=10)
        except OSError as exc:
            last = exc
            if i < attempts - 1:
                time.sleep(delay)
    raise last  # type: ignore[misc]


def _heartbeat_loop(
    channel: FramedChannel,
    interval: float,
    stop: threading.Event,
    *,
    exit_on_disconnect: bool,
) -> None:
    """Beacon until stopped; a dead connection ends the whole process.

    The beacon runs in a side thread so a worker deep in a long task
    still proves liveness.  When the send fails the coordinator is gone
    — and if the main thread is wedged in a hung task, nothing else can
    stop it, so the worker terminates itself (the remote analogue of
    the supervisor terminating a hung pool).
    """
    while not stop.wait(interval):
        try:
            channel.send({"kind": MSG_HEARTBEAT})
        except OSError:
            if exit_on_disconnect and not stop.is_set():
                os._exit(WORKER_DISCONNECT_EXIT_CODE)
            return


def _result_message(index: int, key: str, attempt: int, result) -> dict:
    return {
        "kind": MSG_RESULT,
        "index": index,
        "key": key,
        "attempt": attempt,
        "ok": True,
        "result": result,
    }


def _error_message(index: int, key: str, attempt: int, exc: Exception) -> dict:
    try:  # ship the exception object when it pickles, for legacy re-raise
        pickle.dumps(exc)
        exception = exc
    except Exception:  # noqa: BLE001 - unpicklable exceptions degrade to text
        exception = None
    return {
        "kind": MSG_RESULT,
        "index": index,
        "key": key,
        "attempt": attempt,
        "ok": False,
        "error": f"{type(exc).__name__}: {exc}",
        "exception": exception,
    }


def run_worker(
    address: str,
    *,
    name: str | None = None,
    heartbeat_interval: float = 1.0,
    chaos=None,
    exit_on_disconnect: bool = True,
) -> int:
    """Serve fabric tasks until the coordinator says ``bye``.

    The worker is deliberately simple: connect, announce, then loop
    executing one task at a time while a side thread heartbeats.  All
    recovery intelligence lives in the coordinator; the worker's only
    duties are to ack assignments, cache completed ``(key, attempt)``
    results so duplicated or re-stolen assignments are answered from
    cache instead of re-executed, and — on ``KeyboardInterrupt`` — send
    a ``goodbye`` naming its abandoned lease so the coordinator can
    requeue it uncharged before the process exits.

    ``chaos`` is a :class:`~repro.experiments.chaos.NetChaos` schedule
    applied to this worker's outgoing messages (``repro worker
    --chaos-net SPEC`` loads one); ``exit_on_disconnect`` controls the
    self-termination described in ``WORKER_DISCONNECT_EXIT_CODE``.

    Returns a process exit code: 0 after ``bye`` or coordinator EOF,
    130 on interrupt.
    """
    host, port = parse_address(address)
    sock = _connect_with_retry(host, port)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    channel = FramedChannel(sock, chaos=chaos)
    stop = threading.Event()
    worker = name or _worker_name()
    current_key: str | None = None
    completed: dict[tuple[str, int], dict] = {}
    try:
        channel.send({"kind": MSG_HELLO, "host": worker})
        beat = threading.Thread(
            target=_heartbeat_loop,
            args=(channel, heartbeat_interval, stop),
            kwargs={"exit_on_disconnect": exit_on_disconnect},
            daemon=True,
        )
        beat.start()
        while True:
            try:
                message = channel.recv()
            except OSError:
                return 0
            except ValueError:
                # Corrupt or unauthenticated stream (HMAC mismatch /
                # missing tag): drop the connection rather than keep
                # decoding garbage.
                return 0
            if message is None or message.get("kind") == MSG_BYE:
                return 0
            if message.get("kind") != MSG_TASK:
                continue
            index = message["index"]
            key = message["key"]
            attempt = message["attempt"]
            channel.send({"kind": MSG_ACK, "index": index, "attempt": attempt})
            ident = (key, attempt)
            if ident in completed:
                # A duplicated or re-stolen assignment: answer from the
                # cache rather than executing (and mutating chaos
                # schedules) twice.
                channel.send(completed[ident])
                continue
            task: SweepTask = message["task"]
            child = message["seed"]
            current_key = key
            try:
                result = task.fn(seed=child, **task.kwargs)
            except KeyboardInterrupt:
                raise
            except Exception as exc:  # noqa: BLE001 - reported, never fatal
                reply = _error_message(index, key, attempt, exc)
            else:
                reply = _result_message(index, key, attempt, result)
            current_key = None
            completed[ident] = reply
            channel.send(reply)
    except KeyboardInterrupt:
        # Release the lease explicitly so the coordinator requeues the
        # abandoned task uncharged instead of waiting out its liveness.
        stop.set()
        try:
            channel.send({"kind": MSG_GOODBYE, "abandoned": current_key})
        except OSError:
            pass
        return 130
    finally:
        stop.set()
        channel.close()


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
class _WorkerConn:
    """Coordinator-side bookkeeping for one connected worker."""

    worker_id: str
    channel: FramedChannel
    decoder: FrameDecoder = field(default_factory=FrameDecoder)
    host: str = ""
    ready: bool = False  # hello received
    busy: int | None = None  # task index it is believed to be running
    last_seen: float = field(default_factory=time.monotonic)


def _spawn_local_worker(
    address: str,
    *,
    heartbeat_interval: float,
    chaos_spec: str | Path | None = None,
) -> subprocess.Popen:
    """Start one loopback ``repro worker`` subprocess."""
    cmd = [
        sys.executable,
        "-m",
        "repro",
        "worker",
        "--connect",
        address,
        "--heartbeat",
        str(heartbeat_interval),
    ]
    if chaos_spec is not None:
        cmd += ["--chaos-net", str(chaos_spec)]
    env = dict(os.environ)
    # Mirror multiprocessing's spawn behaviour: the worker inherits the
    # parent's import path so it can unpickle task functions from any
    # module the coordinator loaded (scripts, benchmarks, test files).
    package_root = str(Path(__file__).resolve().parents[2])
    inherited = [entry or os.getcwd() for entry in sys.path]
    existing = env.get("PYTHONPATH")
    parts = [package_root, *inherited] + ([existing] if existing else [])
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
    return subprocess.Popen(
        cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )


class _Coordinator:
    """One fabric sweep execution (single-use, single-threaded).

    Sockets stay blocking; a ``selectors`` loop only reads connections
    the kernel reports readable, so no read ever blocks, and sends are
    small control frames the kernel buffers.  All state mutation happens
    on this one thread — the concurrency lives in the workers.
    """

    def __init__(
        self,
        ledger: TaskLedger,
        *,
        listen: str,
        workers: int,
        heartbeat_interval: float,
        liveness_timeout: float,
        ack_timeout: float,
        worker_wait: float,
        steal_after: float,
        max_worker_respawns: int,
        lease_timeout: float,
        halt_after: int | None,
        worker_chaos: Sequence[str | Path | None] | None,
        net_chaos,
    ):
        self.ledger = ledger
        # Observability goes through the ledger's observer.
        self._emit = ledger.emit
        self._inc = ledger.inc
        self.leases: dict[int, dict[str, _Lease]] = {}
        self.workers: dict[str, _WorkerConn] = {}
        self.listen = listen
        self.num_workers = workers
        self.heartbeat_interval = heartbeat_interval
        self.liveness_timeout = liveness_timeout
        self.ack_timeout = ack_timeout
        self.worker_wait = worker_wait
        self.lease_timeout = lease_timeout
        self.net_chaos = net_chaos
        self.steal_after = steal_after
        self.max_worker_respawns = max_worker_respawns
        self.halt_after = halt_after
        self.worker_chaos = list(worker_chaos) if worker_chaos else []
        self.selector = selectors.DefaultSelector()
        self.listener: socket.socket | None = None
        self.address = ""
        self.spawned: list[tuple[subprocess.Popen, str | Path | None]] = []
        self.respawns = 0
        self.ever_joined = False
        self.last_worker_seen = time.monotonic()
        self._ids = iter(range(1, 1_000_000))

    # -- lifecycle -----------------------------------------------------

    def start(self) -> str:
        host, port = parse_address(self.listen)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(64)
        self.listener = listener
        self.address = format_address(host, listener.getsockname()[1])
        self.selector.register(listener, selectors.EVENT_READ, None)
        self._emit("fabric-start", address=self.address, tasks=len(self.ledger.queue))
        for slot in range(self.num_workers):
            chaos_spec = (
                self.worker_chaos[slot] if slot < len(self.worker_chaos) else None
            )
            self.spawned.append(
                (
                    _spawn_local_worker(
                        self.address,
                        heartbeat_interval=self.heartbeat_interval,
                        chaos_spec=chaos_spec,
                    ),
                    chaos_spec,
                )
            )
        return self.address

    def run(self) -> None:
        """Drive the sweep to completion (or degradation, or halt)."""
        start = time.monotonic()
        try:
            while not self.ledger.done():
                self._reap_spawned()
                self._dispatch()
                self._maybe_steal()
                for key, _ in self.selector.select(timeout=0.05):
                    if key.data is None:
                        self._accept()
                    else:
                        self._service(key.data)
                self._check_acks()
                self._check_resends()
                self._check_liveness()
                self._check_deadlines()
                if self.halt_after is not None and (
                    self.ledger.recorded >= self.halt_after
                ):
                    self._halt()
                if self._should_degrade(start):
                    self._degrade()
            self._finish()
        except KeyboardInterrupt:
            # Release every lease the clean way before propagating: BYE
            # tells workers to stop waiting, teardown reaps the locals.
            self._teardown(farewell=True)
            raise

    # -- connection servicing ------------------------------------------

    def _accept(self) -> None:
        assert self.listener is not None
        conn, _addr = self.listener.accept()
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        worker = _WorkerConn(
            worker_id=f"w{next(self._ids)}",
            channel=FramedChannel(conn, chaos=self.net_chaos),
        )
        self.workers[worker.worker_id] = worker
        self.selector.register(conn, selectors.EVENT_READ, worker)

    def _service(self, worker: _WorkerConn) -> None:
        """Read one readable chunk and handle every message in it."""
        try:
            data = worker.channel.sock.recv(65536)
        except OSError:
            data = b""
        if not data:
            self._drop_worker(worker, reason="disconnect")
            return
        worker.last_seen = time.monotonic()
        try:
            messages = worker.decoder.feed(data)
        except Exception:  # noqa: BLE001 - corrupt stream drops the peer
            self._drop_worker(worker, reason="corrupt-stream")
            return
        for message in messages:
            self._handle(worker, message)

    def _handle(self, worker: _WorkerConn, message: dict) -> None:
        kind = message.get("kind")
        if kind == MSG_HELLO:
            worker.host = str(message.get("host", ""))
            worker.ready = True
            self.ever_joined = True
            self._inc("fabric.workers_joined")
            self._emit(
                "fabric-worker-join", worker=worker.worker_id, host=worker.host
            )
        elif kind == MSG_ACK:
            lease = self.leases.get(message.get("index"), {}).get(worker.worker_id)
            if lease is not None and lease.attempt == message.get("attempt"):
                lease.acked = True
        elif kind == MSG_RESULT:
            self._handle_result(worker, message)
        elif kind == MSG_GOODBYE:
            self._drop_worker(worker, reason="goodbye", charge=False)
        # Heartbeats need no handling beyond the last_seen bump above.

    # -- results -------------------------------------------------------

    def _handle_result(self, worker: _WorkerConn, message: dict) -> None:
        ledger = self.ledger
        index = message.get("index")
        if not isinstance(index, int) or not 0 <= index < len(ledger.tasks):
            return
        if ledger.tasks[index].key != message.get("key"):
            return
        if worker.busy == index:
            worker.busy = None
        if index in ledger.outcomes:
            # The idempotency point: a late result from a revoked lease,
            # a speculative twin, or a chaos-duplicated frame — the
            # first terminal result won, this one is discarded.
            self._inc("fabric.duplicate_results")
            self._emit(
                "fabric-duplicate-result",
                task=ledger.tasks[index].key,
                worker=worker.worker_id,
            )
            return
        self.leases.get(index, {}).pop(worker.worker_id, None)
        if message.get("ok"):
            # A success completes the task no matter which attempt
            # produced it: every attempt ran the same child seed, so all
            # successes are byte-identical by construction.
            for other_id in self.leases.pop(index, {}):
                other = self.workers.get(other_id)
                if other is not None and other.busy == index:
                    other.busy = None
            try:
                ledger.queue.remove(index)
            except ValueError:
                pass
            ledger.record(
                index,
                TASK_OK,
                result=message.get("result"),
                host=worker.host or worker.worker_id,
            )
            return
        if message.get("attempt") != ledger.attempts[index]:
            return  # stale failure from a superseded attempt
        if self.leases.get(index):
            return  # a speculative twin is still running; let it decide
        self.leases.pop(index, None)
        ledger.retry_or_fail(
            index,
            TASK_ERROR,
            str(message.get("error", "task raised")),
            host=worker.host or worker.worker_id,
            exception=message.get("exception"),
        )

    # -- dispatch ------------------------------------------------------

    def _idle_workers(self) -> list[_WorkerConn]:
        return [
            w
            for w in self.workers.values()
            if w.ready and w.busy is None
        ]

    def _task_message(self, index: int, attempt: int) -> dict:
        return {
            "kind": MSG_TASK,
            "index": index,
            "key": self.ledger.tasks[index].key,
            "attempt": attempt,
            "task": self.ledger.tasks[index],
            "seed": self.ledger.children[index],
        }

    def _send_task(self, worker: _WorkerConn, index: int) -> bool:
        """Lease the task's current attempt to ``worker``."""
        attempt = self.ledger.attempts[index]
        now = time.monotonic()
        task_timeout = self.ledger.task_timeout
        deadline = now + task_timeout if task_timeout is not None else None
        try:
            worker.channel.send(self._task_message(index, attempt))
        except OSError:
            self._drop_worker(worker, reason="send-failed")
            return False
        self.leases.setdefault(index, {})[worker.worker_id] = _Lease(
            attempt=attempt, started=now, deadline=deadline
        )
        worker.busy = index
        return True

    def _dispatch(self) -> None:
        ledger = self.ledger
        for worker in self._idle_workers():
            if not ledger.queue:
                return
            index = ledger.queue.popleft()
            if index in ledger.outcomes:
                continue
            ledger.charge(index)
            if not self._send_task(worker, index):
                ledger.refund(index)

    def _maybe_steal(self) -> None:
        """Duplicate the oldest straggler onto an idle worker.

        Only once the queue is dry: stealing is straggler mitigation,
        not scheduling.  The twin reuses the lease's attempt (no charge
        — the original may still succeed) and the same child seed, so
        whichever copy reports first is the result and the other is a
        dedup.
        """
        if self.ledger.queue:
            return
        idle = self._idle_workers()
        if not idle:
            return
        now = time.monotonic()
        candidates = sorted(
            (
                (lease.started, index, owner_id)
                for index, leases in self.leases.items()
                if index not in self.ledger.outcomes and len(leases) == 1
                for owner_id, lease in leases.items()
                if lease.acked and now - lease.started >= self.steal_after
            ),
        )
        for worker in idle:
            while candidates:
                started, index, owner_id = candidates.pop(0)
                if owner_id == worker.worker_id or worker.worker_id in self.leases.get(
                    index, {}
                ):
                    continue
                if self._send_task(worker, index):
                    self._inc("fabric.steals")
                    self._emit(
                        "fabric-task-steal",
                        task=self.ledger.tasks[index].key,
                        worker=worker.worker_id,
                    )
                break
            else:
                return

    # -- failure detection ---------------------------------------------

    def _drop_worker(
        self, worker: _WorkerConn, *, reason: str, charge: bool = True
    ) -> None:
        """Revoke a worker's leases and forget it.

        ``charge=True`` (crash, partition, corrupt stream) keeps the
        dispatch-time attempt charge — the MapReduce stance: the dead
        worker cannot say whose fault it was.  ``charge=False``
        (voluntary goodbye) refunds the attempt: the task never got a
        fair run.
        """
        if worker.worker_id not in self.workers:
            return
        del self.workers[worker.worker_id]
        try:
            self.selector.unregister(worker.channel.sock)
        except (KeyError, ValueError):
            pass
        worker.channel.close()
        victims = sorted(
            index
            for index, leases in self.leases.items()
            if worker.worker_id in leases
        )
        ledger = self.ledger
        revoked = 0
        for index in reversed(victims):
            del self.leases[index][worker.worker_id]
            if self.leases[index]:
                continue  # a speculative twin still carries the task
            del self.leases[index]
            if index in ledger.outcomes:
                continue
            revoked += 1
            if charge:
                ledger.lost_leases[index] += 1
                self._inc("fabric.lost_leases")
                ledger.retry_or_fail(
                    index, TASK_CRASHED, f"worker lost ({reason})", host=FABRIC_HOST
                )
            else:
                ledger.refund(index, reason)
        if worker.ready:
            self._inc("fabric.workers_lost")
            self._emit(
                "fabric-worker-lost",
                worker=worker.worker_id,
                leases=revoked,
                reason=reason,
            )

    def _check_liveness(self) -> None:
        now = time.monotonic()
        for worker in list(self.workers.values()):
            if worker.ready and now - worker.last_seen > self.liveness_timeout:
                self._drop_worker(worker, reason="partition")
        if self.workers:
            self.last_worker_seen = now

    def _check_acks(self) -> None:
        """Requeue assignments whose ``task`` message died on the wire.

        No ack within ``ack_timeout`` means the worker never saw the
        assignment (dropped frame, partition window): the lease is
        revoked and the attempt refunded, because nothing ever ran.
        """
        now = time.monotonic()
        for index, leases in list(self.leases.items()):
            for worker_id, lease in list(leases.items()):
                if lease.acked or now - lease.started <= self.ack_timeout:
                    continue
                del leases[worker_id]
                worker = self.workers.get(worker_id)
                if worker is not None and worker.busy == index:
                    worker.busy = None
                if leases:
                    continue
                del self.leases[index]
                if index not in self.ledger.outcomes:
                    self.ledger.refund(index, "undelivered")

    def _check_resends(self) -> None:
        """Retransmit acked leases that have gone quiet too long.

        An acked lease past ``lease_timeout`` with a still-live worker
        means either the task is genuinely slow or the *result* frame
        died on the wire.  Retransmitting the assignment resolves both
        at once: a worker that already finished answers from its
        ``(key, attempt)`` result cache (recovering the lost result
        without re-execution), and a worker still computing simply reads
        the duplicate after finishing and answers from cache then.  The
        lease clock resets so each lease retransmits at most once per
        window.
        """
        now = time.monotonic()
        for index, leases in self.leases.items():
            if index in self.ledger.outcomes:
                continue
            for worker_id, lease in leases.items():
                if not lease.acked or now - lease.started <= self.lease_timeout:
                    continue
                worker = self.workers.get(worker_id)
                if worker is None:
                    continue
                lease.started = now
                try:
                    worker.channel.send(self._task_message(index, lease.attempt))
                except OSError:
                    continue  # liveness will reap the worker shortly
                self._inc("fabric.lease_resends")

    def _check_deadlines(self) -> None:
        """Expire tasks past ``task_timeout`` (terminal, like the pool).

        The workers still chewing on an expired task are disconnected —
        the remote analogue of the supervisor's pool teardown: a hung
        worker cannot be pre-empted remotely, but its heartbeat thread
        notices the dead socket and terminates the process, and the
        respawn budget restores capacity.
        """
        if self.ledger.task_timeout is None:
            return
        now = time.monotonic()
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
            del self.leases[index]
            self.ledger.expire(index, host=FABRIC_HOST)
            for worker_id in expired:
                worker = self.workers.get(worker_id)
                if worker is not None:
                    self._drop_worker(worker, reason="deadline")

    def _reap_spawned(self) -> None:
        """Respawn locally-spawned workers that died mid-sweep."""
        for slot, (proc, chaos_spec) in enumerate(self.spawned):
            if proc.poll() is None or self.ledger.done():
                continue
            if self.respawns >= self.max_worker_respawns:
                continue
            self.respawns += 1
            self._inc("fabric.worker_respawns")
            self.spawned[slot] = (
                _spawn_local_worker(
                    self.address,
                    heartbeat_interval=self.heartbeat_interval,
                    chaos_spec=chaos_spec,
                ),
                chaos_spec,
            )

    # -- endgame -------------------------------------------------------

    def _should_degrade(self, start: float) -> bool:
        if self.ledger.done() or (not self.ledger.queue and self.leases):
            return False
        if self.workers:
            return False
        now = time.monotonic()
        if not self.ever_joined:
            return now - start > self.worker_wait
        return now - self.last_worker_seen > self.worker_wait

    def _degrade(self) -> None:
        """Finish the remaining tasks in-process, on the same ledger.

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
            reason="no-workers" if not self.ever_joined else "all-workers-lost",
        )
        self.leases.clear()
        ledger.queue = deque(pending)
        run_in_process(ledger)

    def _halt(self) -> None:
        """The chaos hook: die abruptly, as a killed coordinator would."""
        completed = self.ledger.recorded
        self._emit("fabric-halt", completed=completed)
        self._teardown(farewell=False)
        raise CoordinatorHalted(
            f"coordinator halted after {completed} outcomes "
            "(halt_after chaos hook)",
            completed=completed,
        )

    def _finish(self) -> None:
        self._emit(
            "fabric-end",
            tasks=len(self.ledger.outcomes),
            workers=len(self.workers),
        )
        self._teardown(farewell=True)

    def _teardown(self, *, farewell: bool) -> None:
        for worker in list(self.workers.values()):
            if farewell:
                try:
                    worker.channel.send({"kind": MSG_BYE})
                except OSError:
                    pass
            try:
                self.selector.unregister(worker.channel.sock)
            except (KeyError, ValueError):
                pass
            worker.channel.close()
        self.workers.clear()
        if self.listener is not None:
            try:
                self.selector.unregister(self.listener)
            except (KeyError, ValueError):
                pass
            self.listener.close()
            self.listener = None
        self.selector.close()
        for proc, _spec in self.spawned:
            if proc.poll() is None:
                try:
                    proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    proc.terminate()
                    try:
                        proc.wait(timeout=2.0)
                    except subprocess.TimeoutExpired:  # pragma: no cover
                        proc.kill()
        self.spawned.clear()


def run_fabric_sweep(
    tasks: Sequence[SweepTask],
    *,
    seed=None,
    listen: str = "127.0.0.1:0",
    workers: int = 0,
    task_timeout: float | None = None,
    max_task_retries: int = 2,
    heartbeat_interval: float = 1.0,
    liveness_timeout: float | None = None,
    ack_timeout: float | None = None,
    worker_wait: float = 15.0,
    steal_after: float = 5.0,
    max_worker_respawns: int = 6,
    lease_timeout: float | None = None,
    checkpoint: str | Path | SweepTaskCheckpoint | None = None,
    resume: bool = False,
    config_key: str = "",
    halt_after: int | None = None,
    worker_chaos: Sequence[str | Path | None] | None = None,
    net_chaos=None,
) -> list[TaskOutcome]:
    """Run sweep tasks on the coordinator/worker fabric.

    The multi-host generalisation of
    :func:`~repro.experiments.supervisor.run_supervised_sweep`: same
    task model, same structured :class:`TaskOutcome` records, same
    ``SweepTaskCheckpoint`` resume, same seed discipline — task ``i``
    receives the ``i``-th spawned child of ``seed`` on every attempt on
    every host, so a fabric sweep is byte-identical to the ``jobs=1``
    run regardless of worker count, scheduling, recovery or theft.

    Parameters beyond the supervised ones
    -------------------------------------
    listen: coordinator bind address (``"host:port"``; port 0 picks a
        free port — the actual address is what spawned workers dial).
    workers: loopback worker subprocesses to spawn (``repro worker``).
        ``0`` waits ``worker_wait`` seconds for external workers and
        degrades to in-process execution if none arrive.
    heartbeat_interval / liveness_timeout: worker beacon period and the
        silence after which a worker is declared partitioned (default
        ``6 *`` the interval).
    ack_timeout: unacked assignments are requeued uncharged after this
        long (default ``4 *`` the heartbeat interval).
    worker_wait: patience before degrading, at startup (no worker ever
        joined) or mid-sweep (every worker lost, none returned).  The
        remaining tasks then run in-process, each on what is left of its
        ``1 + max_task_retries`` attempt budget.
    steal_after: once the queue is dry, an in-flight task older than
        this is speculatively re-dispatched to an idle worker.
    max_worker_respawns: budget for respawning dead *spawned* workers
        (external workers are the operator's to restart).
    lease_timeout: an acked lease quiet past this long (default ``8 *``
        the heartbeat interval) has its assignment retransmitted to the
        same worker — a finished worker answers from its result cache,
        recovering a result frame the network ate.
    halt_after: chaos hook — after this many newly recorded terminal
        outcomes the coordinator tears down abruptly and raises
        :class:`~repro.errors.CoordinatorHalted`, simulating coordinator
        death; rerun with ``resume=True`` to prove restart recovery.
    worker_chaos: per-spawned-worker net-chaos spec paths
        (:func:`~repro.experiments.chaos.save_net_chaos`), for tests.
    net_chaos: a :class:`~repro.experiments.chaos.NetChaos` applied to
        the *coordinator's* outgoing sends (dropped / duplicated
        ``task`` frames), for tests.

    Returns outcomes in task order, with ``host``/``requeued``/
    ``lost_leases`` attribution filled in.
    """
    if workers < 0:
        raise InvalidParameterError(f"workers must be >= 0, got {workers}")
    if heartbeat_interval <= 0:
        raise InvalidParameterError(
            f"heartbeat_interval must be positive, got {heartbeat_interval}"
        )
    if halt_after is not None and halt_after < 1:
        raise InvalidParameterError(
            f"halt_after must be >= 1, got {halt_after}"
        )
    ledger = open_ledger(
        tasks,
        scope="fabric",
        seed=seed,
        task_timeout=task_timeout,
        max_task_retries=max_task_retries,
        checkpoint=checkpoint,
        resume=resume,
        config_key=config_key,
    )
    if not ledger.queue:
        return ledger.results()
    coordinator = _Coordinator(
        ledger,
        listen=listen,
        workers=workers,
        heartbeat_interval=heartbeat_interval,
        liveness_timeout=(
            liveness_timeout
            if liveness_timeout is not None
            else 6.0 * heartbeat_interval
        ),
        ack_timeout=(
            ack_timeout if ack_timeout is not None else 4.0 * heartbeat_interval
        ),
        worker_wait=worker_wait,
        steal_after=steal_after,
        max_worker_respawns=max_worker_respawns,
        lease_timeout=(
            lease_timeout if lease_timeout is not None else 8.0 * heartbeat_interval
        ),
        halt_after=halt_after,
        worker_chaos=worker_chaos,
        net_chaos=net_chaos,
    )
    coordinator.start()
    try:
        coordinator.run()
    except BaseException:
        coordinator._teardown(farewell=False)
        raise
    return ledger.results()
