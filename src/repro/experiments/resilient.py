"""Resilient Monte-Carlo sweep engine: retries, timeouts, checkpoint/resume.

A long fault-injection sweep (E14 at full scale is thousands of trials)
used to die on its first exception and restart from zero.  This module
makes sweeps survive failures instead:

* **structured outcomes** — every trial ends as a :class:`TrialRecord`
  (``ok`` / ``incomplete`` / ``timeout`` / ``error``) carrying how far
  the broadcast got (informed fraction), never as an uncaught exception;
* **retry with fresh seeds** — a crashing trial is retried up to
  ``max_attempts`` times, each attempt on an independently spawned child
  stream, with exponential backoff between attempts;
* **budgets** — each trial carries a round budget (enforced by the
  simulator) and a wall-clock allowance (checked between attempts);
* **checkpoint/resume** — completed trial records are flushed to a JSON
  checkpoint; an interrupted sweep resumes where it left off, and because
  per-trial seeds are derived statelessly from ``(root, index, attempt)``
  the resumed sweep is bit-identical to an uninterrupted one;
* **partial aggregates** — :class:`SweepResult` degrades to completion
  fraction plus failure counts instead of aborting when trials fail.

The trial function receives ``(index, rng)`` and returns a
:class:`TrialOutcome` (or a :class:`~repro.radio.trace.BroadcastTrace`,
converted automatically).  ``repro run E14 --checkpoint DIR --resume``
wires this into the CLI.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .._typing import SeedLike
from ..errors import BroadcastIncompleteError, InvalidParameterError
from ..radio.trace import BroadcastTrace
from .supervisor import JsonCheckpoint

__all__ = [
    "TrialOutcome",
    "TrialRecord",
    "SweepCheckpoint",
    "SweepResult",
    "run_resilient_sweep",
]

#: Terminal statuses a trial can end in.
STATUS_OK = "ok"                  # broadcast completed
STATUS_INCOMPLETE = "incomplete"  # round budget exhausted (protocol stalled)
STATUS_TIMEOUT = "timeout"        # wall-clock allowance exhausted
STATUS_ERROR = "error"            # raised after all retry attempts


@dataclass(frozen=True)
class TrialOutcome:
    """What one simulation attempt produced (before retry bookkeeping)."""

    completed: bool
    rounds: float
    informed_fraction: float

    @classmethod
    def from_trace(cls, trace: BroadcastTrace) -> "TrialOutcome":
        frac = trace.num_informed / trace.n if trace.n else 0.0
        rounds = float(trace.completion_round) if trace.completed else float("inf")
        return cls(completed=trace.completed, rounds=rounds, informed_fraction=frac)


@dataclass
class TrialRecord:
    """Structured result of one sweep trial (after retries).

    ``rounds`` is ``inf`` unless ``status == "ok"``;
    ``informed_fraction`` records how far the failed trial got, so a
    degraded sweep still measures partial progress.
    """

    index: int
    status: str
    rounds: float = float("inf")
    informed_fraction: float = 0.0
    attempts: int = 1
    elapsed: float = 0.0
    error: str = ""

    def to_json(self) -> dict:
        payload = asdict(self)
        # Strict JSON has no Infinity literal; failed trials store null.
        if not np.isfinite(payload["rounds"]):
            payload["rounds"] = None
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "TrialRecord":
        if payload.get("rounds") is None:
            payload = dict(payload, rounds=float("inf"))
        return cls(**payload)


class SweepCheckpoint(JsonCheckpoint):
    """JSON checkpoint of a sweep's completed trial records.

    The file stores the sweep's ``config_key`` (anything identifying the
    sweep parameters — resuming against a checkpoint written under a
    different configuration raises instead of silently mixing samples)
    and one record per finished trial.  Loading, saving and quarantine
    of a corrupt file are :class:`~repro.experiments.supervisor.JsonCheckpoint`'s.
    """

    entries_field = "records"
    kind = "sweep checkpoint"

    def load(self) -> dict[int, TrialRecord]:
        """Records keyed by trial index; empty when absent or quarantined."""
        return {r.index: r for r in self._load_entries(TrialRecord.from_json)}

    def save(self, records: dict[int, TrialRecord]) -> None:
        self._save_entries([records[i].to_json() for i in sorted(records)])


@dataclass
class SweepResult:
    """Aggregate view over a sweep's trial records.

    Failed trials degrade the aggregates (completion fraction, failure
    counts, partial-progress mean) instead of poisoning them.
    """

    records: list[TrialRecord] = field(default_factory=list)

    @property
    def num_trials(self) -> int:
        return len(self.records)

    @property
    def completion_fraction(self) -> float:
        """Fraction of trials that completed the broadcast."""
        if not self.records:
            return 0.0
        ok = sum(1 for r in self.records if r.status == STATUS_OK)
        return ok / len(self.records)

    def failure_counts(self) -> dict[str, int]:
        """Failed-trial counts by status (empty when everything passed)."""
        counts: dict[str, int] = {}
        for r in self.records:
            if r.status != STATUS_OK:
                counts[r.status] = counts.get(r.status, 0) + 1
        return counts

    def rounds(self) -> np.ndarray:
        """Per-trial completion rounds (``inf`` for failed trials)."""
        return np.array([r.rounds for r in self.records], dtype=float)

    def informed_fractions(self) -> np.ndarray:
        """Per-trial final informed fraction (1.0 for completed trials)."""
        return np.array([r.informed_fraction for r in self.records], dtype=float)

    def mean_rounds(self) -> float:
        """Mean completion round over successful trials (``inf`` if none)."""
        finite = self.rounds()[np.isfinite(self.rounds())]
        return float(finite.mean()) if finite.size else float("inf")

    def summary(self) -> dict:
        """Headline aggregates for tables and reports."""
        return {
            "trials": self.num_trials,
            "completion_fraction": self.completion_fraction,
            "mean_rounds": self.mean_rounds(),
            "mean_informed_fraction": (
                float(self.informed_fractions().mean()) if self.records else 0.0
            ),
            "failures": self.failure_counts(),
            "total_attempts": sum(r.attempts for r in self.records),
        }


def _attempt_rng(root: np.random.SeedSequence, index: int, attempt: int):
    """Stateless per-(trial, attempt) stream — resume-stable by design.

    The root's own ``spawn_key`` is part of the derivation: when the root
    is itself a spawned child (one sweep config of a parallel fan-out, see
    :mod:`repro.experiments.parallel`), siblings share ``entropy`` and
    differ *only* in their spawn key, so dropping it would collapse every
    config onto the same trial streams.
    """
    return np.random.default_rng(
        np.random.SeedSequence(
            entropy=root.entropy, spawn_key=(*root.spawn_key, index, attempt)
        )
    )


def run_resilient_sweep(
    trial_fn: Callable[[int, np.random.Generator], TrialOutcome | BroadcastTrace],
    num_trials: int,
    *,
    seed: SeedLike = None,
    max_attempts: int = 3,
    backoff_base: float = 0.0,
    trial_timeout: float | None = None,
    checkpoint: str | Path | SweepCheckpoint | None = None,
    resume: bool = False,
    config_key: str = "",
    checkpoint_every: int = 1,
    max_trials_this_run: int | None = None,
) -> SweepResult:
    """Run ``num_trials`` independent trials, surviving per-trial failures.

    Parameters
    ----------
    trial_fn: callable ``(index, rng) -> TrialOutcome | BroadcastTrace``.
        Raising :class:`BroadcastIncompleteError` is recorded as an
        ``incomplete`` trial (with the partial trace's informed fraction);
        any other exception triggers a retry on a fresh child stream.
    num_trials: total trials in the sweep.
    seed: root seed.  Trial ``i``, attempt ``a`` runs on the stream
        derived from ``(seed, i, a)`` — stateless, so a resumed sweep
        reproduces an uninterrupted one exactly.
    max_attempts: attempts per trial before recording an ``error``.
    backoff_base: seconds slept before retry ``a`` is
        ``backoff_base * 2**(a-1)`` (``0`` disables sleeping).
    trial_timeout: per-trial wall-clock allowance in seconds.  Python
        cannot pre-empt a running simulation, so the allowance is checked
        after each attempt: an over-budget trial is recorded as
        ``timeout`` and not retried.  Bound the *round* budget inside
        ``trial_fn`` to keep individual attempts short.
    checkpoint: path (or :class:`SweepCheckpoint`) to flush completed
        records to; ``None`` disables checkpointing.
    resume: load the checkpoint and skip already-completed trials.
    config_key: identifies the sweep configuration inside the checkpoint;
        resuming under a different key raises.
    checkpoint_every: flush after this many newly completed trials.
    max_trials_this_run: stop after completing this many *new* trials
        (the remainder stays pending in the checkpoint) — useful for
        budgeted runs and for testing resume.

    Returns
    -------
    SweepResult over every record available so far (including resumed
    ones).  ``KeyboardInterrupt`` flushes the checkpoint before
    propagating, so an interrupted sweep loses at most the in-flight
    trial.
    """
    if num_trials < 1:
        raise InvalidParameterError(f"num_trials must be >= 1, got {num_trials}")
    if max_attempts < 1:
        raise InvalidParameterError(f"max_attempts must be >= 1, got {max_attempts}")
    if checkpoint is not None and not isinstance(checkpoint, SweepCheckpoint):
        checkpoint = SweepCheckpoint(checkpoint, config_key)
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    elif isinstance(seed, np.random.Generator):
        # Consume one draw for a root entropy, mirroring rng.spawn_seeds.
        root = np.random.SeedSequence(int(seed.integers(0, 2**63)))
    else:
        root = np.random.SeedSequence(seed)

    records: dict[int, TrialRecord] = {}
    if checkpoint is not None and resume and checkpoint.exists():
        records = {
            i: r for i, r in checkpoint.load().items() if 0 <= i < num_trials
        }

    pending = [i for i in range(num_trials) if i not in records]
    if max_trials_this_run is not None:
        pending = pending[:max_trials_this_run]

    unflushed = 0
    try:
        for index in pending:
            records[index] = _run_trial(
                trial_fn, index, root, max_attempts, backoff_base, trial_timeout
            )
            unflushed += 1
            if checkpoint is not None and unflushed >= checkpoint_every:
                checkpoint.save(records)
                unflushed = 0
    except KeyboardInterrupt:
        if checkpoint is not None:
            checkpoint.save(records)
        raise
    if checkpoint is not None and unflushed:
        checkpoint.save(records)
    return SweepResult(records=[records[i] for i in sorted(records)])


def _run_trial(
    trial_fn,
    index: int,
    root: np.random.SeedSequence,
    max_attempts: int,
    backoff_base: float,
    trial_timeout: float | None,
) -> TrialRecord:
    """One trial with retry/backoff/timeout bookkeeping."""
    start = time.monotonic()
    last_error = ""
    for attempt in range(1, max_attempts + 1):
        if attempt > 1 and backoff_base > 0:
            time.sleep(backoff_base * 2 ** (attempt - 2))
        try:
            outcome = trial_fn(index, _attempt_rng(root, index, attempt - 1))
        except BroadcastIncompleteError as exc:
            # A budget miss is a *measured* outcome, not a crash: record
            # how far the run got and stop retrying.
            frac = (
                exc.trace.num_informed / exc.trace.n
                if exc.trace is not None and exc.trace.n
                else 0.0
            )
            return TrialRecord(
                index=index,
                status=STATUS_INCOMPLETE,
                informed_fraction=frac,
                attempts=attempt,
                elapsed=time.monotonic() - start,
            )
        except KeyboardInterrupt:
            raise
        except Exception as exc:  # noqa: BLE001 — resilience is the point
            last_error = f"{type(exc).__name__}: {exc}"
            elapsed = time.monotonic() - start
            if trial_timeout is not None and elapsed > trial_timeout:
                return TrialRecord(
                    index=index,
                    status=STATUS_TIMEOUT,
                    attempts=attempt,
                    elapsed=elapsed,
                    error=last_error,
                )
            continue
        if isinstance(outcome, BroadcastTrace):
            outcome = TrialOutcome.from_trace(outcome)
        elapsed = time.monotonic() - start
        if trial_timeout is not None and elapsed > trial_timeout:
            return TrialRecord(
                index=index,
                status=STATUS_TIMEOUT,
                informed_fraction=outcome.informed_fraction,
                attempts=attempt,
                elapsed=elapsed,
            )
        return TrialRecord(
            index=index,
            status=STATUS_OK if outcome.completed else STATUS_INCOMPLETE,
            rounds=outcome.rounds if outcome.completed else float("inf"),
            informed_fraction=outcome.informed_fraction,
            attempts=attempt,
            elapsed=elapsed,
        )
    return TrialRecord(
        index=index,
        status=STATUS_ERROR,
        attempts=max_attempts,
        elapsed=time.monotonic() - start,
        error=last_error,
    )
