"""Crash-safe job journal: an append-only WAL next to the result cache.

The :class:`~repro.serve.runner.JobManager` admits work it has not yet
finished; a crash between admission and the cache write would silently
drop those jobs.  The journal closes that window with two record types
on one append-only JSONL file:

* ``{"op": "submit", "key": ..., "spec": {...}}`` — written (and
  fsync'd) the moment an execution is admitted, *before* it runs;
* ``{"op": "terminal", "key": ..., "state": ...}`` — written once the
  job reaches a terminal state and its result (if any) is safely in the
  result cache.

On restart, :meth:`JobJournal.recover` replays the file: a ``submit``
with no matching ``terminal`` is an **incomplete job** and is handed
back for re-admission.  Re-admission is idempotent because jobs are
content-addressed — a job whose result landed in the cache before the
crash (but whose terminal record did not) replays as a cache hit, and a
job that never finished simply executes again, producing the identical
document (the repo's determinism discipline).

Crash-safety of the journal itself mirrors the result cache's stance:
a torn tail — a partial last line from a crash mid-append, or any
undecodable region — is **quarantined** to ``journal.jsonl.corrupt``
(with a :class:`RuntimeWarning`, like ``*.corrupt`` cache entries) and
the journal is truncated back to its last good prefix.  Recovery also
**compacts**: completed pairs are dropped, so the file holds only the
incomplete jobs and never grows without bound across restarts.

Only actual executions are journaled.  Cache hits are born terminal and
coalesced submits piggyback on an already-journaled execution, so the
journal records each piece of real work exactly once.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from pathlib import Path

from .._atomic import atomic_write
from ..schema import canonical_json

__all__ = ["JOURNAL_SCHEMA_VERSION", "JournalEntry", "JobJournal"]

#: Version stamped into every journal record (bump on incompatible change).
JOURNAL_SCHEMA_VERSION = 1


class JournalEntry:
    """One incomplete job recovered from the journal."""

    __slots__ = ("key", "spec")

    def __init__(self, key: str, spec: dict):
        self.key = key
        self.spec = spec

    def __repr__(self) -> str:
        return f"JournalEntry(key={self.key!r})"


class JobJournal:
    """Append-only write-ahead log of admitted job executions.

    Parameters
    ----------
    root: directory holding ``journal.jsonl`` (created if missing) —
        conventionally a sibling of the result cache so the two durable
        stores travel together.
    fsync: flush appends to stable storage (default).  Tests that churn
        thousands of records may disable it; the server never should.
    """

    FILENAME = "journal.jsonl"

    def __init__(self, root: str | Path, *, fsync: bool = True):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / self.FILENAME
        self.fsync = fsync
        self._lock = threading.Lock()
        #: Records quarantined by the last :meth:`recover` call.
        self.quarantined = 0

    # -- appends (the WAL half) ----------------------------------------

    def record_submit(self, key: str, spec: dict) -> None:
        """Journal one admitted execution, durably, before it runs."""
        self._append(
            {
                "v": JOURNAL_SCHEMA_VERSION,
                "op": "submit",
                "key": key,
                "spec": spec,
            }
        )

    def record_terminal(self, key: str, state: str) -> None:
        """Journal a job's terminal state (its work needs no replay)."""
        self._append(
            {
                "v": JOURNAL_SCHEMA_VERSION,
                "op": "terminal",
                "key": key,
                "state": state,
            }
        )

    def _append(self, record: dict) -> None:
        line = canonical_json(record) + "\n"
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line)
                fh.flush()
                if self.fsync:
                    os.fsync(fh.fileno())

    # -- recovery (the replay half) ------------------------------------

    def recover(self) -> list[JournalEntry]:
        """Replay the journal: quarantine the torn tail, compact, return
        the incomplete jobs in admission order.

        After this call the on-disk journal contains exactly one
        ``submit`` record per returned entry (so a subsequent terminal
        append completes it) and nothing else.
        """
        with self._lock:
            records, bad_tail = self._read_records()
            if bad_tail:
                self._quarantine_tail(bad_tail)
            incomplete: dict[str, dict] = {}
            for record in records:
                key = record.get("key")
                if not isinstance(key, str) or not key:
                    continue
                if record.get("op") == "submit" and isinstance(
                    record.get("spec"), dict
                ):
                    incomplete.setdefault(key, record["spec"])
                elif record.get("op") == "terminal":
                    incomplete.pop(key, None)
            self._rewrite(incomplete)
            return [JournalEntry(key, spec) for key, spec in incomplete.items()]

    def _read_records(self) -> tuple[list[dict], bytes]:
        """All well-formed leading records, plus the torn-tail bytes."""
        if not self.path.exists():
            return [], b""
        data = self.path.read_bytes()
        records: list[dict] = []
        offset = 0
        while offset < len(data):
            newline = data.find(b"\n", offset)
            if newline < 0:
                # Crash mid-append: a final line with no terminator.
                return records, data[offset:]
            line = data[offset:newline]
            try:
                record = json.loads(line)
                if not isinstance(record, dict) or "op" not in record:
                    raise ValueError("not a journal record")
            except (ValueError, UnicodeDecodeError):
                # Corruption is contiguous from here as far as we are
                # concerned: trust nothing after the first bad line.
                return records, data[offset:]
            records.append(record)
            offset = newline + 1
        return records, b""

    def _quarantine_tail(self, tail: bytes) -> None:
        corrupt = self.path.with_suffix(".jsonl.corrupt")
        with open(corrupt, "ab") as fh:
            fh.write(tail)
        self.quarantined += 1
        warnings.warn(
            f"corrupt job-journal tail ({len(tail)} bytes) quarantined to "
            f"{corrupt}",
            RuntimeWarning,
            stacklevel=3,
        )

    def _rewrite(self, incomplete: dict[str, dict]) -> None:
        """Atomically compact the journal down to the incomplete submits."""
        atomic_write(
            self.path,
            "".join(
                canonical_json(
                    {"v": JOURNAL_SCHEMA_VERSION, "op": "submit", "key": key, "spec": spec}
                )
                + "\n"
                for key, spec in incomplete.items()
            ),
        )

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        """Well-formed records currently on disk (diagnostics only)."""
        records, _tail = self._read_records()
        return len(records)

    def __repr__(self) -> str:
        return f"JobJournal(root={str(self.root)!r})"
