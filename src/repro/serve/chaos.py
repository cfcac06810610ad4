"""Deterministic chaos harness for the simulation job server.

The service tier promises to survive the faults a long-lived server
actually meets: the process SIGKILLed mid-job, client connections reset
under it, jobs that outrun their deadline.  As with the executor chaos
harness (:mod:`repro.experiments.chaos`), those promises are only worth
what their tests inject, so this module provides *deterministic*
server-side fault injection:

* **hold** — the first ``hold_jobs`` executions sleep ``hold_s`` seconds
  before running, pinning a job "in flight" long enough for a test to
  SIGKILL the server mid-job.  The hold counter is consumed *before*
  the sleep, so after a kill-and-restart the journal-replayed execution
  runs clean — which is exactly what makes the kill window
  deterministic rather than a timing race.
* **connection reset** — the first ``reset_connections`` HTTP
  connections are aborted before any response bytes, proving the
  client's retry loop (safe because identical resubmits coalesce or hit
  cache).

Occurrence counters live in per-fault files under ``state_dir`` with
atomic tmp-then-replace writes — the same idiom as the executor
harness's attempt counters, and for the same reason: the schedule must
keep its place across server death.  A spec file
(:func:`save_serve_chaos`) carries a schedule into ``repro serve
--chaos`` subprocesses.

Ships in the package (not the test tree) so the CI serve-chaos job and
downstream users can chaos-test real server processes;
``tests/serve/test_chaos.py`` covers the harness and the recovery paths
it drives.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from .._atomic import atomic_write

__all__ = ["ServeChaos", "load_serve_chaos", "save_serve_chaos"]


class ServeChaos:
    """A deterministic fault schedule for one job server.

    Parameters
    ----------
    state_dir: directory for the occurrence-counter files (created on
        first bump).  Counters survive the server process, so a
        restarted server resumes the schedule where its predecessor
        died instead of replaying it.
    hold_jobs: how many executions (cache misses reaching the worker
        pool) sleep before running.
    hold_s: the sleep, in seconds, for each held execution.
    reset_connections: how many incoming HTTP connections are aborted
        before any response bytes are written.
    name: counter-file prefix, for sharing one ``state_dir`` between
        schedules.
    """

    def __init__(
        self,
        state_dir: str | Path,
        *,
        hold_jobs: int = 0,
        hold_s: float = 0.0,
        reset_connections: int = 0,
        name: str = "serve",
    ):
        if hold_jobs < 0 or hold_s < 0 or reset_connections < 0:
            raise ValueError(
                f"chaos counts/durations must be >= 0, got "
                f"hold_jobs={hold_jobs} hold_s={hold_s} "
                f"reset_connections={reset_connections}"
            )
        self.state_dir = Path(state_dir)
        self.hold_jobs = int(hold_jobs)
        self.hold_s = float(hold_s)
        self.reset_connections = int(reset_connections)
        self.name = name

    def _bump(self, counter: str) -> int:
        """Advance a file-backed occurrence counter (atomic replace)."""
        path = self.state_dir / f"{self.name}-{counter}.count"
        path.parent.mkdir(parents=True, exist_ok=True)
        seen = int(path.read_text()) if path.exists() else 0
        seen += 1
        atomic_write(path, str(seen))
        return seen

    def on_execute(self) -> None:
        """Consulted by the job manager right before an execution runs.

        The counter is bumped *before* any sleeping, so killing the
        server during the hold leaves the schedule already advanced:
        the post-restart replay of the same job runs unheld.
        """
        if self.hold_jobs <= 0:
            return
        if self._bump("hold") <= self.hold_jobs:
            time.sleep(self.hold_s)

    def on_connection(self) -> bool:
        """Consulted per HTTP connection; ``True`` means abort it now."""
        if self.reset_connections <= 0:
            return False
        return self._bump("reset") <= self.reset_connections

    def __repr__(self) -> str:
        return (
            f"ServeChaos(state_dir={str(self.state_dir)!r}, "
            f"hold_jobs={self.hold_jobs}, hold_s={self.hold_s}, "
            f"reset_connections={self.reset_connections})"
        )


def save_serve_chaos(
    path: str | Path,
    state_dir: str | Path,
    *,
    hold_jobs: int = 0,
    hold_s: float = 0.0,
    reset_connections: int = 0,
) -> Path:
    """Write a serve-chaos spec as JSON for ``repro serve --chaos``.

    The spec file is how a schedule crosses the process boundary into a
    server subprocess; the counters under ``state_dir`` are how it
    survives that process's death.
    """
    path = Path(path)
    spec = {
        "state_dir": str(Path(state_dir)),
        "hold_jobs": int(hold_jobs),
        "hold_s": float(hold_s),
        "reset_connections": int(reset_connections),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(spec, indent=2) + "\n")
    return path


def load_serve_chaos(path: str | Path) -> ServeChaos:
    """Load a :func:`save_serve_chaos` spec back into a live schedule."""
    spec = json.loads(Path(path).read_text())
    return ServeChaos(
        spec["state_dir"],
        hold_jobs=spec.get("hold_jobs", 0),
        hold_s=spec.get("hold_s", 0.0),
        reset_connections=spec.get("reset_connections", 0),
    )
