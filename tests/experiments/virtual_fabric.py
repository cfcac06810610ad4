"""The sweep fabric in virtual time: the coordinator core, in-memory workers.

:class:`VirtualFabric` is a test driver for
:class:`~repro.experiments.fabric_core.CoordinatorCore`, standing in for
the TCP shell of :mod:`repro.experiments.fabric`.  It is a discrete-event
loop on a fake clock.  Frames travel on in-memory connections that
consult each sender's :class:`~repro.chaos.FaultSchedule` through the
same :class:`~repro.experiments.wire.SendFaults` a socket uses.  Every
worker answers tasks with the real
:func:`~repro.experiments.fabric_core.serve_task`.  So a scenario that
waits out a liveness window or a 20-second straggler takes milliseconds,
and it replays the same way every time.

The coordinator runs the shell's loop: a round reads everything that
has arrived, then ticks the core.  A round runs when something arrives
and at least every ``POLL_SECONDS``.

What a worker process does, and what the harness models:

* it starts ``SPAWN_SECONDS`` after being spawned, says ``hello`` and
  heartbeats every interval (a side thread: it beats while busy);
* it answers one ``task`` frame at a time; frames that arrive while it
  is busy wait their turn.  A task runs at once (its side effects, such
  as :func:`~repro.chaos.chaos_task`'s attempt counters, happen when
  the ack goes out), and its reply leaves ``task_seconds`` later, or
  after the next entry of ``slow[key]`` when one is left;
* a ``delay`` rule holds the frame and the thread that sent it (the
  heartbeat thread or the task loop), as a blocking send would; a
  ``partition`` rule mutes the worker for its window;
* :func:`~repro.chaos.chaos_task`'s ``os._exit`` crash ends the worker
  process (after its ack); the harness swaps the module's ``os`` for one
  whose ``_exit`` raises :class:`WorkerCrash`;
* a worker whose connection the coordinator closes exits, as the real
  one does on EOF, and spawned workers are respawned, up to
  :data:`~repro.experiments.fabric.MAX_WORKER_RESPAWNS` times in all.

``script`` adds faults at fixed virtual times: :class:`Crash` and
:class:`Interrupt` (``^C``: ``goodbye``, then exit) hit the worker
currently in a slot, and :class:`Stall` freezes the coordinator, so it
next looks at the clock after a jump.
"""

from __future__ import annotations

import heapq
import itertools
import types
from collections import deque
from dataclasses import dataclass
from unittest import mock

import repro.chaos
from repro.experiments.fabric import MAX_WORKER_RESPAWNS, POLL_SECONDS
from repro.experiments.fabric_core import (
    MSG_BYE,
    MSG_GOODBYE,
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_TASK,
    CoordinatorCore,
    serve_task,
)
from repro.experiments.supervisor import open_ledger, run_in_process
from repro.experiments.wire import SendFaults

#: One-way delivery time of a frame.
LATENCY = 0.001
#: From spawn to a worker's ``hello``.
SPAWN_SECONDS = 0.5
#: Virtual time after which a sweep that has not finished is a wedge.
HORIZON = 3600.0


class WorkerCrash(BaseException):
    """The worker process running a task called ``os._exit``."""


def _crash(code):
    raise WorkerCrash(code)


@dataclass(frozen=True)
class Crash:
    """The worker in ``slot`` dies at ``at`` without a word."""

    at: float
    slot: int


@dataclass(frozen=True)
class Interrupt:
    """The worker in ``slot`` gets ``^C`` at ``at``: goodbye, then exit."""

    at: float
    slot: int


@dataclass(frozen=True)
class Stall:
    """The coordinator is frozen from ``at`` for ``seconds``."""

    at: float
    seconds: float


class _Worker:
    """One in-memory ``repro worker`` process."""

    def __init__(self, fabric: "VirtualFabric", slot: int, chaos):
        self.fabric = fabric
        self.slot = slot
        self.up = SendFaults(chaos)
        self.worker_id: str | None = None  # set when the coordinator accepts
        self.completed: dict = {}
        self.inbox: deque = deque()
        self.busy = False
        self.alive = True

    def start(self, now: float) -> None:
        self.fabric.coordinator(now + LATENCY, self.fabric._accept, self)
        self.send(now, {"kind": MSG_HELLO, "host": f"virtual-{self.slot}"})
        self.fabric.at(now + self.fabric.heartbeat_interval, self._beat)

    def send(self, now: float, message: dict) -> float:
        """Send at ``now``; returns when the sending thread is free again."""
        copies, delay = self.up.plan(message["kind"], now)
        for _ in range(copies):
            self.fabric.coordinator(
                now + delay + LATENCY, self.fabric._receive, self, message
            )
        return now + delay

    def _beat(self, now: float) -> None:
        if self.alive:
            sent = self.send(now, {"kind": MSG_HEARTBEAT})
            self.fabric.at(sent + self.fabric.heartbeat_interval, self._beat)

    def deliver(self, now: float, message: dict | None) -> None:
        """A frame from the coordinator; ``None`` is its closing the connection."""
        if not self.alive:
            return
        if message is None or message.get("kind") == MSG_BYE:
            self.exit(now, notify=False)
        elif message.get("kind") == MSG_TASK:
            self.inbox.append(message)
            if not self.busy:
                self._next(now)

    def _next(self, now: float) -> None:
        self.busy = bool(self.inbox) and self.alive
        if not self.busy:
            return
        message = self.inbox.popleft()
        fresh = (message["key"], message["attempt"]) not in self.completed
        replies: list[dict] = []
        try:
            serve_task(message, self.completed, replies.append)
        except WorkerCrash:
            self.send(now, replies[0])
            self.exit(now)
            return
        ack, reply = replies
        done = self.send(now, ack)
        if fresh:
            done += self.fabric.duration(message["key"])
        self.fabric.at(done, self._finish, reply)

    def _finish(self, now: float, reply: dict) -> None:
        if self.alive:
            self._next(self.send(now, reply))

    def interrupt(self, now: float) -> None:
        if self.alive:
            self.send(now, {"kind": MSG_GOODBYE, "abandoned": None})
            self.exit(now)

    def exit(self, now: float, *, notify: bool = True) -> None:
        """The process ends; its connection closes (``notify``: the
        coordinator has not closed it already)."""
        if not self.alive:
            return
        self.alive = False
        if notify:
            self.fabric.coordinator(now + LATENCY, self.fabric._disconnect, self)
        self.fabric._exited(now, self)


class VirtualFabric:
    """A fabric sweep on a fake clock: one core, in-memory workers.

    ``workers`` are spawned and respawned like ``run_fabric_sweep``'s;
    ``external`` ones join the same way but nobody restarts them.
    ``worker_chaos[i]`` is slot ``i``'s wire schedule and ``chaos`` the
    coordinator's, as for ``run_fabric_sweep``.  After :meth:`run`,
    :attr:`now` is the virtual time the sweep took.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        external: int = 0,
        heartbeat_interval: float = 1.0,
        worker_chaos=(),
        chaos=None,
        task_seconds: float = 0.0,
        slow: dict | None = None,
        script=(),
        check=None,
    ):
        self.heartbeat_interval = heartbeat_interval
        self.spawned = workers
        self.slots = workers + external
        self.worker_chaos = list(worker_chaos) + [None] * self.slots
        self.chaos = chaos
        self.task_seconds = task_seconds
        self.slow = {key: list(times) for key, times in (slow or {}).items()}
        self.script = list(script)
        self.check = check  # called with the core after every coordinator round
        self.now = 0.0
        self.respawns = 0
        self.stalled_until = 0.0
        self._events: list = []
        self._seq = itertools.count()
        self.arrived: deque = deque()  # frames and connections the coordinator has not read
        self.current: dict[int, _Worker] = {}
        self.by_id: dict[str, _Worker] = {}
        self.down: dict[str, SendFaults] = {}  # coordinator -> worker faults
        self.core: CoordinatorCore | None = None

    # -- the event loop ------------------------------------------------

    def at(self, when: float, fn, *args) -> None:
        heapq.heappush(self._events, (when, next(self._seq), fn, args))

    def coordinator(self, when: float, fn, *args) -> None:
        """Something reaches the coordinator at ``when``: it wakes up and
        reads it, or reads it after a stall."""
        self.at(when, self._arrive, fn, args)

    def _arrive(self, now: float, fn, args) -> None:
        self.arrived.append((fn, args))
        self._round(now)

    def _round(self, now: float) -> None:
        """One turn of the shell's loop: read everything that arrived,
        then tick.  A stalled coordinator takes its turn when it resumes."""
        if now < self.stalled_until:
            self.at(self.stalled_until, self._round)
            return
        while self.arrived:
            fn, args = self.arrived.popleft()
            fn(now, *args)
        self._apply(now, self.core.tick(now))
        if self.core.degraded:
            run_in_process(self.core.ledger)
        if self.check is not None:
            self.check(self.core)

    def _poll(self, now: float) -> None:
        """The selector's timeout: a round at least every poll interval."""
        self._round(now)
        if not self.core.degraded:
            self.at(max(now, self.stalled_until) + POLL_SECONDS, self._poll)

    def duration(self, key: str) -> float:
        times = self.slow.get(key)
        return times.pop(0) if times else self.task_seconds

    def run(
        self,
        tasks,
        *,
        seed=None,
        task_timeout=None,
        max_task_retries=2,
        store=None,
    ):
        """Run ``tasks`` to completion; outcomes as ``run_fabric_sweep``'s."""
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
        self.core = CoordinatorCore(
            ledger,
            heartbeat_interval=self.heartbeat_interval,
            chaos=self.chaos,
            now=0.0,
        )
        for slot in range(self.slots):
            self.at(SPAWN_SECONDS, self._spawn, slot)
        for event in self.script:
            if isinstance(event, Stall):
                self.at(event.at, self._stall, event.seconds)
            else:
                self.at(event.at, self._hit, event)
        self.at(0.0, self._poll)
        crashing_os = types.SimpleNamespace(_exit=_crash)
        with mock.patch.object(repro.chaos, "os", crashing_os):
            while not ledger.done():
                when, _, fn, args = heapq.heappop(self._events)
                if when > HORIZON:
                    raise AssertionError(f"sweep wedged: unfinished at t={when}")
                self.now = when
                fn(when, *args)
        self._apply(self.now, self.core.finish())
        return ledger.results()

    # -- coordinator side ----------------------------------------------

    def _apply(self, now: float, outbox) -> None:
        """Send the core's outbox through each connection's coordinator
        faults.  A ``delay`` rule blocks the coordinator's one thread, so
        it stalls the coordinator too."""
        for worker_id, message in outbox:
            worker = self.by_id.get(worker_id)
            if worker is None:
                continue
            if message is None:
                del self.by_id[worker_id]
                self.at(now + LATENCY, worker.deliver, None)
                continue
            copies, delay = self.down[worker_id].plan(message["kind"], now)
            now += delay
            for _ in range(copies):
                self.at(now + LATENCY, worker.deliver, message)
        self.stalled_until = max(self.stalled_until, now)

    def _accept(self, now: float, worker: _Worker) -> None:
        worker.worker_id = self.core.connect(now)
        self.by_id[worker.worker_id] = worker
        self.down[worker.worker_id] = SendFaults(self.chaos)

    def _receive(self, now: float, worker: _Worker, message: dict) -> None:
        if self.by_id.get(worker.worker_id) is worker:
            self._apply(now, self.core.receive(now, worker.worker_id, message))

    def _disconnect(self, now: float, worker: _Worker) -> None:
        if self.by_id.pop(worker.worker_id, None) is worker:
            self._apply(now, self.core.disconnect(now, worker.worker_id, "disconnect"))

    def _stall(self, now: float, seconds: float) -> None:
        self.stalled_until = max(self.stalled_until, now + seconds)

    # -- worker processes ----------------------------------------------

    def _spawn(self, now: float, slot: int) -> None:
        worker = _Worker(self, slot, self.worker_chaos[slot])
        self.current[slot] = worker
        worker.start(now)

    def _exited(self, now: float, worker: _Worker) -> None:
        if (
            worker.slot < self.spawned
            and self.respawns < MAX_WORKER_RESPAWNS
            and not self.core.ledger.done()
        ):
            self.respawns += 1
            self.at(now + SPAWN_SECONDS, self._spawn, worker.slot)

    def _hit(self, now: float, event) -> None:
        worker = self.current.get(event.slot)
        if worker is None:
            return
        if isinstance(event, Crash):
            worker.exit(now)
        else:
            worker.interrupt(now)

