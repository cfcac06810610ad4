"""Multi-host sweep fabric: a fault-tolerant coordinator/worker executor.

The fabric runs the supervised executor's task list
(:mod:`repro.experiments.supervisor`) on worker processes over TCP and
keeps its promise when workers crash, hang or sit behind flaky links:
every task ends as one structured outcome, and results are
byte-identical to the ``jobs=1`` run.  Every recovery decision
(heartbeat membership, leases, acks, resends, work stealing,
degradation, the chaos halt) is made by
:class:`~repro.experiments.fabric_core.CoordinatorCore`, a pure state
machine.  This module is its I/O shell (the listener, a ``selectors``
loop over one :class:`~repro.experiments.wire.FramedChannel` per
connection, the spawned local workers) plus the worker process.  The
wire is pickle frames: a trusted-cluster transport, loopback or lab
network only.  The fault model is ``docs/FAULTS.md``;
``tests/experiments/test_fabric.py`` runs its scenarios against the core
in virtual time and pins a chaos-ridden sweep over real worker
subprocesses byte-for-byte against the serial run.

CLI: ``repro worker --connect HOST:PORT`` starts a worker;
``repro run-all --fabric :PORT --workers N`` drives a loopback fabric.
"""

from __future__ import annotations

import os
import selectors
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Sequence

from ..chaos import FaultSchedule
from ..errors import InvalidParameterError
from .fabric_core import (
    MSG_BYE,
    MSG_GOODBYE,
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_TASK,
    CoordinatorCore,
    Outbox,
    serve_task,
)
from .supervisor import (
    SweepTask,
    TaskOutcome,
    TaskStore,
    open_ledger,
    run_in_process,
)
from .wire import FramedChannel, format_address, parse_address

__all__ = [
    "MAX_WORKER_RESPAWNS",
    "WORKER_DISCONNECT_EXIT_CODE",
    "run_fabric_sweep",
    "run_worker",
]

#: Exit status of a worker that terminated itself on a lost coordinator
#: connection (mirrors the supervisor's pool teardown, which also kills
#: workers it can no longer talk to).
WORKER_DISCONNECT_EXIT_CODE = 75

#: Respawns of dead locally spawned workers per sweep (external workers
#: are the operator's to restart).
MAX_WORKER_RESPAWNS = 6

#: Longest the coordinator's selector waits before the core's next tick.
POLL_SECONDS = 0.05

#: How long teardown lets spawned workers exit on their own before it
#: terminates them (one that never connected would retry for 10 s).
EXIT_GRACE_SECONDS = 0.5


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


def run_worker(
    address: str,
    *,
    name: str | None = None,
    heartbeat_interval: float = 1.0,
    chaos=None,
    exit_on_disconnect: bool = True,
) -> int:
    """Serve fabric tasks until the coordinator says ``bye``.

    The worker is deliberately simple: connect, announce, then answer
    one ``task`` frame at a time with
    :func:`~repro.experiments.fabric_core.serve_task` (ack, execute once
    per ``(key, attempt)``, reply) while a side thread heartbeats.  All
    recovery intelligence lives in the coordinator.  On
    ``KeyboardInterrupt`` the worker sends a ``goodbye`` naming its
    abandoned task so the coordinator can requeue it uncharged before
    the process exits.

    ``chaos`` is a :class:`~repro.chaos.FaultSchedule` applied to this
    worker's outgoing messages (``repro worker --chaos-net SPEC`` loads
    one); ``exit_on_disconnect`` controls the
    self-termination described in ``WORKER_DISCONNECT_EXIT_CODE``.

    Returns a process exit code: 0 after ``bye`` or coordinator EOF,
    130 on interrupt.
    """
    host, port = parse_address(address)
    sock = _connect_with_retry(host, port)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    channel = FramedChannel(sock, chaos=chaos)
    stop = threading.Event()
    current_key: str | None = None
    completed: dict[tuple[str, int], dict] = {}
    try:
        channel.send({"kind": MSG_HELLO, "host": name or _worker_name()})
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
            except (OSError, ValueError):
                # A lost coordinator, or a corrupt or unauthenticated
                # stream (HMAC mismatch / missing tag): drop the
                # connection rather than keep decoding garbage.
                return 0
            if message is None or message.get("kind") == MSG_BYE:
                return 0
            if message.get("kind") == MSG_TASK:
                current_key = message["key"]
                serve_task(message, completed, channel.send)
                current_key = None
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
# Coordinator side: the I/O shell around CoordinatorCore
# ----------------------------------------------------------------------


class _Shell:
    """The coordinator's I/O around one core (single-use, single-threaded).

    It owns the listener, a ``selectors`` loop over one
    :class:`FramedChannel` per connection, and the spawned local
    workers; it feeds the core every accept, frame and lost connection
    on the monotonic clock and carries out the core's outbox.  Sockets
    stay blocking: the selector only reports readable connections, so
    no read ever blocks, and sends are small frames the kernel buffers.
    """

    def __init__(
        self,
        core: CoordinatorCore,
        *,
        workers: int,
        heartbeat_interval: float,
        worker_chaos: Sequence[str | Path | None] | None,
        chaos: FaultSchedule | None,
    ):
        self.core = core
        self.heartbeat_interval = heartbeat_interval
        specs = list(worker_chaos or [])
        self.worker_chaos = [specs[i] if i < len(specs) else None for i in range(workers)]
        self.chaos = chaos
        self.selector = selectors.DefaultSelector()
        self.listener: socket.socket | None = None
        self.address = ""
        self.channels: dict[str, FramedChannel] = {}
        self.spawned: list[subprocess.Popen] = []
        self.respawns = 0

    def _spawn(self, slot: int) -> subprocess.Popen:
        """Start the loopback ``repro worker`` subprocess of ``slot``."""
        cmd = [sys.executable, "-m", "repro", "worker", "--connect", self.address]
        cmd += ["--heartbeat", str(self.heartbeat_interval)]
        if self.worker_chaos[slot] is not None:
            cmd += ["--chaos-net", str(self.worker_chaos[slot])]
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

    def start(self, listen: str) -> None:
        host, port = parse_address(listen)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(64)
        self.listener = listener
        self.address = format_address(host, listener.getsockname()[1])
        self.selector.register(listener, selectors.EVENT_READ, None)
        ledger = self.core.ledger
        ledger.emit("fabric-start", address=self.address, tasks=len(ledger.queue))
        self.spawned = [self._spawn(slot) for slot in range(len(self.worker_chaos))]

    def run(self) -> None:
        """Drive the sweep to completion (or degradation, or halt)."""
        ledger = self.core.ledger
        while not ledger.done():
            self._reap_spawned()
            for key, _ in self.selector.select(timeout=POLL_SECONDS):
                if key.data is None:
                    self._accept()
                else:
                    self._service(key.data)
            self._apply(self.core.tick(time.monotonic()))
            if self.core.degraded:
                run_in_process(ledger)
        self._apply(self.core.finish())

    def _apply(self, outbox: Outbox) -> None:
        """Carry out the core's outbox; a failed send is a lost worker."""
        pending = deque(outbox)
        while pending:
            worker_id, message = pending.popleft()
            channel = self.channels.get(worker_id)
            if channel is None:
                continue
            if message is None:
                del self.channels[worker_id]
                self.selector.unregister(channel.sock)
                channel.close()
                continue
            try:
                channel.send(message)
            except OSError:
                pending.extend(
                    self.core.disconnect(time.monotonic(), worker_id, "send-failed")
                )

    def _accept(self) -> None:
        assert self.listener is not None
        conn, _addr = self.listener.accept()
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        worker_id = self.core.connect(time.monotonic())
        self.channels[worker_id] = FramedChannel(conn, chaos=self.chaos)
        self.selector.register(conn, selectors.EVENT_READ, worker_id)

    def _service(self, worker_id: str) -> None:
        """Read one readable chunk and feed every message in it to the core."""
        channel = self.channels.get(worker_id)
        if channel is None:
            return  # closed earlier in this select round
        reason = "disconnect"
        try:
            messages = channel.read()
        except OSError:
            messages = None
        except ValueError:
            messages, reason = None, "corrupt-stream"
        now = time.monotonic()
        if messages is None:
            self._apply(self.core.disconnect(now, worker_id, reason))
        for message in messages or ():
            self._apply(self.core.receive(now, worker_id, message))

    def _reap_spawned(self) -> None:
        """Respawn locally-spawned workers that died mid-sweep."""
        for slot, proc in enumerate(self.spawned):
            if proc.poll() is None or self.respawns >= MAX_WORKER_RESPAWNS:
                continue
            self.respawns += 1
            self.core.ledger.inc("fabric.worker_respawns")
            self.spawned[slot] = self._spawn(slot)

    def teardown(self, *, farewell: bool) -> None:
        self._apply(self.core.close(farewell=farewell))
        if self.listener is not None:
            self.selector.unregister(self.listener)
            self.listener.close()
            self.listener = None
        self.selector.close()
        grace = time.monotonic() + EXIT_GRACE_SECONDS
        for proc in self.spawned:
            try:
                proc.wait(timeout=max(0.0, grace - time.monotonic()))
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
    store: TaskStore | None = None,
    worker_chaos: Sequence[str | Path | None] | None = None,
    chaos: FaultSchedule | None = None,
) -> list[TaskOutcome]:
    """Run sweep tasks on the coordinator/worker fabric.

    The multi-host generalisation of
    :func:`~repro.experiments.supervisor.run_supervised_sweep`: same
    task model, same structured :class:`TaskOutcome` records, same
    :class:`~repro.experiments.supervisor.TaskStore`, same seed
    discipline — task ``i``
    receives the ``i``-th spawned child of ``seed`` on every attempt on
    every host, so a fabric sweep is byte-identical to the ``jobs=1``
    run regardless of worker count, scheduling, recovery or theft.

    Parameters beyond the supervised ones
    -------------------------------------
    listen: coordinator bind address (``"host:port"``; port 0 picks a
        free port — the actual address is what spawned workers dial).
    workers: loopback worker subprocesses to spawn (``repro worker``),
        respawned up to ``MAX_WORKER_RESPAWNS`` times in all.  ``0``
        waits for external workers and degrades to in-process execution
        if none arrive.
    heartbeat_interval: the spawned workers' beacon period, and the unit
        of every coordinator window (liveness, ack, lease resend, steal,
        worker wait; the table is in :mod:`repro.experiments.fabric_core`).
        With no ready worker for the worker wait, the remaining tasks run
        in-process, each on what is left of its attempt budget.
    store: as for :func:`~repro.experiments.supervisor.run_supervised_sweep`;
        a sweep whose every task is a store hit returns without
        listening.
    worker_chaos: per-spawned-worker fault-schedule spec paths
        (:meth:`~repro.chaos.FaultSchedule.save`), for tests.
    chaos: the *coordinator's* :class:`~repro.chaos.FaultSchedule`, for
        tests: its wire rules act on outgoing sends (dropped /
        duplicated ``task`` frames), and a ``halt`` rule (kind
        ``"outcome"``) fires on a newly recorded terminal outcome — the
        coordinator tears down abruptly and raises
        :class:`~repro.errors.CoordinatorHalted`, simulating its death.
        Rerun with the same store (and schedule, whose spent halt rule
        stays spent) to prove restart recovery.

    Returns outcomes in task order, with ``host``/``requeued``/
    ``lost_leases`` attribution filled in.
    """
    if workers < 0:
        raise InvalidParameterError(f"workers must be >= 0, got {workers}")
    if heartbeat_interval <= 0:
        raise InvalidParameterError(
            f"heartbeat_interval must be positive, got {heartbeat_interval}"
        )
    ledger = open_ledger(
        tasks,
        scope="fabric",
        seed=seed,
        task_timeout=task_timeout,
        max_task_retries=max_task_retries,
        store=store,
    )
    if not ledger.queue:
        return ledger.results()
    core = CoordinatorCore(
        ledger,
        heartbeat_interval=heartbeat_interval,
        chaos=chaos,
        now=time.monotonic(),
    )
    shell = _Shell(
        core,
        workers=workers,
        heartbeat_interval=heartbeat_interval,
        worker_chaos=worker_chaos,
        chaos=chaos,
    )
    farewell = False
    try:
        shell.start(listen)
        shell.run()
        farewell = True
    except KeyboardInterrupt:
        # Release every lease the clean way before propagating: BYE
        # tells workers to stop waiting, teardown reaps the locals.
        farewell = True
        raise
    finally:
        shell.teardown(farewell=farewell)
    return ledger.results()
