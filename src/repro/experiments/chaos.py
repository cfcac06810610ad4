"""Deterministic chaos harness for the supervised executor.

The supervisor (:mod:`repro.experiments.supervisor`) promises recovery
from worker crashes, hung tasks and transient errors.  Promises about
fault handling are only worth what their tests inject, so this module
provides *deterministic* fault injection for sweep tasks: a task that
``os._exit``'s the worker on its first *k* attempts, raises on the next
*m*, sleeps past any deadline on the next *h* — and then succeeds with a
payload that depends only on its seed, so a chaos-ridden sweep can be
compared byte-for-byte against an unfaulted one.

Attempt counting must survive process death (each retry runs in a fresh
worker), so attempts are tracked in per-key counter files under a caller
-provided ``state_dir``.  The supervisor never runs two attempts of one
task concurrently, so plain read-increment-replace is race-free.

The sweep *fabric* (:mod:`repro.experiments.fabric`) adds the network
itself as a failure domain, so the harness grows network faults to
match: :class:`NetChaos` is a deterministic schedule of dropped,
delayed, duplicated messages and partition windows, consulted by the
wire layer on every send.  Its occurrence counters are file-based for
the same reason the attempt counters are — a respawned worker must
resume its schedule, not restart it — and a spec file
(:func:`save_net_chaos`) carries the schedule into ``repro worker``
subprocesses.

Everything here is module-level and picklable — tasks fan out over a
:class:`~concurrent.futures.ProcessPoolExecutor`.  The harness ships in
the package (not the test tree) so benchmarks and downstream users can
chaos-test their own sweeps; ``tests/experiments/test_supervisor.py``
covers both the harness and the recovery paths it drives, and
``tests/experiments/test_fabric.py`` the distributed ones.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .._atomic import atomic_write

__all__ = [
    "CRASH_EXIT_CODE",
    "NET_FAULT_ACTIONS",
    "ChaosError",
    "NetFault",
    "NetChaos",
    "attempt_count",
    "chaos_payload",
    "chaos_task",
    "healthy_task",
    "load_net_chaos",
    "save_net_chaos",
]

#: Exit status used by injected worker crashes (visible in worker logs).
CRASH_EXIT_CODE = 71


class ChaosError(RuntimeError):
    """The injected (deterministic) task failure."""


def _counter_path(state_dir: str | Path, key: str) -> Path:
    return Path(state_dir) / f"{key}.attempts"


def attempt_count(state_dir: str | Path, key: str) -> int:
    """Attempts recorded so far for ``key`` (0 before the first call)."""
    path = _counter_path(state_dir, key)
    if not path.exists():
        return 0
    return int(path.read_text())


def _next_attempt(state_dir: str | Path, key: str) -> int:
    """Increment and return the 1-based attempt number for ``key``.

    The write is atomic (tmp + replace) so a crash *after* the bump —
    which is exactly what ``crash_attempts`` injects — never corrupts
    the counter.
    """
    path = _counter_path(state_dir, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    attempt = attempt_count(state_dir, key) + 1
    atomic_write(path, str(attempt))
    return attempt


def chaos_payload(seed, draws: int = 4) -> list[float]:
    """The success payload: a pure function of ``seed``.

    Identical across attempts and processes, which is what lets the
    chaos tests pin byte-identity between faulted and unfaulted sweeps.
    """
    return [float(x) for x in np.random.default_rng(seed).random(draws)]


def healthy_task(seed, *, draws: int = 4) -> list[float]:
    """A fault-free sweep task — the unfaulted comparator."""
    return chaos_payload(seed, draws)


def chaos_task(
    seed,
    *,
    key: str,
    state_dir: str | Path,
    crash_attempts: int = 0,
    error_attempts: int = 0,
    hang_attempts: int = 0,
    hang_seconds: float = 3600.0,
    draws: int = 4,
) -> list[float]:
    """A sweep task with a deterministic per-attempt fault schedule.

    Attempt ``a`` (1-based, tracked in ``state_dir``) behaves as:

    * ``a <= crash_attempts`` — ``os._exit(CRASH_EXIT_CODE)``: the worker
      process dies without unwinding, breaking the pool;
    * next ``error_attempts`` attempts — raise :class:`ChaosError`;
    * next ``hang_attempts`` attempts — sleep ``hang_seconds`` (a
      straggler: past any reasonable deadline, but it *would* eventually
      return the payload if nothing killed it);
    * afterwards — return :func:`chaos_payload(seed, draws)
      <chaos_payload>`.

    With all injection counts zero this is exactly :func:`healthy_task`.
    """
    attempt = _next_attempt(state_dir, key)
    if attempt <= crash_attempts:
        os._exit(CRASH_EXIT_CODE)
    if attempt <= crash_attempts + error_attempts:
        raise ChaosError(f"injected failure: task {key!r} attempt {attempt}")
    if attempt <= crash_attempts + error_attempts + hang_attempts:
        time.sleep(hang_seconds)
    return chaos_payload(seed, draws)


# ----------------------------------------------------------------------
# Deterministic network faults (for the sweep fabric's wire layer)
# ----------------------------------------------------------------------

#: Actions a :class:`NetFault` may take on a matching message.
NET_FAULT_ACTIONS = ("drop", "delay", "duplicate", "partition")


@dataclass(frozen=True)
class NetFault:
    """One deterministic network-fault rule.

    Matches outgoing messages by ``kind`` (``"*"`` matches every kind)
    and fires by *occurrence count*, not wall clock: the first ``after``
    matching messages pass untouched, then the next ``count`` trigger
    ``action``.  Occurrences are tallied in files (see
    :class:`NetChaos`), so a schedule keeps its place across worker
    re-execution — the same stance the task-level attempt counters take
    toward process death.

    ``seconds`` is the sleep for ``delay`` and the outage window for
    ``partition`` (during which the channel discards *everything*,
    heartbeats included, so the peer's liveness detector sees a real
    partition).
    """

    kind: str
    action: str
    after: int = 0
    count: int = 1
    seconds: float = 0.0

    def __post_init__(self):
        if self.action not in NET_FAULT_ACTIONS:
            raise ValueError(
                f"unknown net-fault action {self.action!r}; "
                f"expected one of {NET_FAULT_ACTIONS}"
            )
        if self.after < 0 or self.count < 1 or self.seconds < 0:
            raise ValueError(f"invalid net-fault window: {self}")


class NetChaos:
    """A deterministic network-fault schedule for one wire channel.

    Consulted by :meth:`repro.experiments.wire.FramedChannel.send` on
    every outgoing message.  Each rule keeps its own occurrence counter
    in ``state_dir`` (atomic tmp-then-replace writes, exactly like the
    task attempt counters), so the *k*-th matching message triggers the
    fault no matter how many processes the sender has been: a worker
    that crashed and was respawned resumes its schedule where it died.

    A channel is used by one process at a time and sends are serialised
    by the channel's lock, so read-increment-replace is race-free.
    """

    def __init__(self, state_dir: str | Path, faults, *, name: str = "net"):
        self.state_dir = Path(state_dir)
        self.faults = [
            fault if isinstance(fault, NetFault) else NetFault(**fault)
            for fault in faults
        ]
        self.name = name

    def _count_path(self, index: int) -> Path:
        return self.state_dir / f"{self.name}-fault{index}.count"

    def _bump(self, index: int) -> int:
        path = self._count_path(index)
        path.parent.mkdir(parents=True, exist_ok=True)
        seen = int(path.read_text()) if path.exists() else 0
        seen += 1
        atomic_write(path, str(seen))
        return seen

    def on_send(self, kind: str) -> NetFault | None:
        """The rule triggered by this outgoing message, if any.

        Every rule matching ``kind`` advances its counter; the first one
        inside its firing window wins (rules are ordered).
        """
        triggered = None
        for index, fault in enumerate(self.faults):
            if fault.kind != "*" and fault.kind != kind:
                continue
            seen = self._bump(index)
            if triggered is None and fault.after < seen <= fault.after + fault.count:
                triggered = fault
        return triggered


def save_net_chaos(path: str | Path, state_dir: str | Path, faults) -> Path:
    """Write a net-chaos spec as JSON; workers load it via ``--chaos-net``.

    The spec file is how a chaos schedule crosses the process boundary
    into ``repro worker`` subprocesses; the file-based counters under
    ``state_dir`` are how it survives their deaths.
    """
    path = Path(path)
    spec = {
        "state_dir": str(Path(state_dir)),
        "faults": [
            asdict(fault) if isinstance(fault, NetFault) else dict(fault)
            for fault in faults
        ],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(spec, indent=2) + "\n")
    return path


def load_net_chaos(path: str | Path) -> NetChaos:
    """Load a :func:`save_net_chaos` spec back into a live schedule."""
    spec = json.loads(Path(path).read_text())
    return NetChaos(spec["state_dir"], spec["faults"])
