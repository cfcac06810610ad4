"""Deterministic fault injection: one schedule for every failure domain.

The supervised executor, the sweep fabric and the job server each
promise recovery from some class of faults — a worker crash, a hung
task, a lost frame, a partitioned host, a coordinator death, a server
SIGKILLed mid-job, a reset connection.  Promises about fault handling
are only worth what their tests inject, so this module provides one
*deterministic* injector for all of them: a :class:`FaultSchedule` of
ordered :class:`FaultRule` s, consulted at named sites.

A rule matches a consultation by ``kind`` (``"*"`` matches every kind)
and fires by *occurrence count*, not wall clock: the first ``after``
matching consultations pass untouched, the next ``count`` trigger
``action``.  Every rule that matches advances its own counter; the
first rule inside its firing window wins.  A rule with ``count=0``
never fires and only counts.

Counters live in one file per rule under the schedule's ``state_dir``
(``rule<index>.count``, written with
:func:`~repro._atomic.atomic_write`), so a schedule keeps its place
across process death: a respawned worker, a restarted coordinator or a
restarted server resumes the schedule where its predecessor died
instead of replaying it.  A schedule serialises its own consultations
(a worker's heartbeat thread and task loop share one channel; a job
server executes on several threads); across processes each state
directory has one consulting process at a time (the supervisor never
runs two attempts of one task at once, and each spawned worker or
server gets its own spec).  :meth:`FaultSchedule.save` writes
a schedule as one JSON spec (``{"state_dir": ..., "rules": [...]}``),
which is how it crosses into ``repro worker --chaos-net SPEC`` and
``repro serve --chaos SPEC`` subprocesses.

The sites, the ``kind`` each offers and the actions it acts on:

========================================  ===============  =======================================
site                                      kind             actions
========================================  ===============  =======================================
:func:`chaos_task`                        the task key     ``crash``, ``error``, ``hang``
``SendFaults.plan`` (fabric wire)         message kind     ``drop``, ``delay``, ``duplicate``,
                                                           ``partition``
fabric coordinator, per recorded outcome  ``"outcome"``    ``halt``
``JobManager``, per execution             ``"execute"``    ``hold``
HTTP server, per accepted connection      ``"connection"`` ``reset``
========================================  ===============  =======================================

``seconds`` is the sleep of ``hang``, ``delay`` and ``hold`` and the
outage window of ``partition``.  The module ships in the package (not
the test tree) so the CI chaos jobs and downstream users can chaos-test
their own sweeps and servers.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ._atomic import atomic_write

__all__ = [
    "CRASH_EXIT_CODE",
    "FAULT_ACTIONS",
    "NET_ACTIONS",
    "ChaosError",
    "FaultRule",
    "FaultSchedule",
    "attempt_count",
    "chaos_payload",
    "chaos_task",
    "healthy_task",
]

#: Exit status used by injected worker crashes (visible in worker logs).
CRASH_EXIT_CODE = 71

#: Actions the fabric wire layer acts on.
NET_ACTIONS = ("drop", "delay", "duplicate", "partition")

#: Every action a :class:`FaultRule` may take.
FAULT_ACTIONS = ("crash", "error", "hang", *NET_ACTIONS, "halt", "hold", "reset")


class ChaosError(RuntimeError):
    """The injected (deterministic) task failure."""


@dataclass(frozen=True)
class FaultRule:
    """One deterministic fault: on the matching consultations number
    ``after + 1`` through ``after + count``, take ``action``."""

    kind: str
    action: str
    after: int = 0
    count: int = 1
    seconds: float = 0.0

    def __post_init__(self):
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; "
                f"expected one of {FAULT_ACTIONS}"
            )
        if self.after < 0 or self.count < 0 or self.seconds < 0:
            raise ValueError(f"invalid fault window: {self}")


class FaultSchedule:
    """Ordered fault rules with file-backed occurrence counters."""

    def __init__(self, state_dir: str | Path, rules=()):
        self.state_dir = Path(state_dir)
        self.rules = [
            rule if isinstance(rule, FaultRule) else FaultRule(**rule)
            for rule in rules
        ]
        self._lock = threading.Lock()

    def _counter(self, index: int) -> Path:
        return self.state_dir / f"rule{index}.count"

    def seen(self, index: int) -> int:
        """Consultations rule ``index`` has matched so far."""
        path = self._counter(index)
        return int(path.read_text()) if path.exists() else 0

    def fire(self, kind: str, *actions: str) -> FaultRule | None:
        """The rule this consultation triggers, if any.

        Only rules whose action is one of ``actions`` (what the calling
        site can act on) and whose kind matches are consulted; each of
        them advances its counter, and the first one inside its firing
        window wins.
        """
        triggered = None
        with self._lock:
            for index, rule in enumerate(self.rules):
                if rule.action not in actions or rule.kind not in ("*", kind):
                    continue
                self.state_dir.mkdir(parents=True, exist_ok=True)
                seen = self.seen(index) + 1
                atomic_write(self._counter(index), str(seen))
                if triggered is None and rule.after < seen <= rule.after + rule.count:
                    triggered = rule
        return triggered

    def save(self, path: str | Path) -> Path:
        """Write this schedule as a JSON spec (crash-safe)."""
        path = Path(path)
        spec = {
            "state_dir": str(self.state_dir),
            "rules": [asdict(rule) for rule in self.rules],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        return atomic_write(path, json.dumps(spec, indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "FaultSchedule":
        """Read a :meth:`save` spec back into a live schedule."""
        spec = json.loads(Path(path).read_text())
        return cls(spec["state_dir"], spec["rules"])


# ----------------------------------------------------------------------
# Sweep tasks with a per-attempt fault schedule
# ----------------------------------------------------------------------


def _task_schedule(
    state_dir, key: str, crash: int = 0, error: int = 0, hang: int = 0,
    hang_seconds: float = 0.0,
) -> FaultSchedule:
    """Crash, error and hang windows back to back, counted per attempt.

    All three rules match every attempt of ``key``, so rule 0's counter
    is the attempt number (zero-count rules still count).
    """
    return FaultSchedule(
        Path(state_dir) / key,
        [
            FaultRule(key, "crash", 0, crash),
            FaultRule(key, "error", crash, error),
            FaultRule(key, "hang", crash + error, hang, hang_seconds),
        ],
    )


def attempt_count(state_dir: str | Path, key: str) -> int:
    """Attempts :func:`chaos_task` has recorded for ``key`` (0 before the first)."""
    return _task_schedule(state_dir, key).seen(0)


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

    Attempt ``a`` (1-based, counted under ``state_dir/key``) behaves as:

    * ``a <= crash_attempts`` — ``os._exit(CRASH_EXIT_CODE)``: the worker
      process dies without unwinding, breaking the pool;
    * next ``error_attempts`` attempts — raise :class:`ChaosError`;
    * next ``hang_attempts`` attempts — sleep ``hang_seconds`` (a
      straggler: past any reasonable deadline, but it *would* eventually
      return the payload if nothing killed it);
    * afterwards — return :func:`chaos_payload(seed, draws)
      <chaos_payload>`.

    The counters are written before the fault fires, so a crash never
    loses its attempt.  With all injection counts zero this is exactly
    :func:`healthy_task`, plus the attempt count.
    """
    schedule = _task_schedule(
        state_dir, key, crash_attempts, error_attempts, hang_attempts, hang_seconds
    )
    rule = schedule.fire(key, "crash", "error", "hang")
    if rule is not None:
        if rule.action == "crash":
            os._exit(CRASH_EXIT_CODE)
        if rule.action == "error":
            raise ChaosError(
                f"injected failure: task {key!r} attempt {schedule.seen(0)}"
            )
        time.sleep(rule.seconds)
    return chaos_payload(seed, draws)
