"""Simulation-as-a-service: job server, result cache, client surface.

The front door over the dissemination core (:func:`repro.simulate`) and
the supervised sweep executor (:mod:`repro.experiments.parallel`),
layered strictly:

* :mod:`repro.serve.types` — schema-versioned request/response
  dataclasses and their canonical (hashable) forms;
* :mod:`repro.serve.cache` — the content-addressed on-disk result
  cache, keyed by sha256 of the canonical spec;
* :mod:`repro.serve.journal` — the crash-safe job journal (append-only
  WAL) behind restart replay of incomplete jobs;
* :mod:`repro.serve.runner` — spec execution plus the
  :class:`JobManager`: bounded admission, in-flight request
  coalescing, cache fill, deadlines and cooperative cancellation,
  graceful drain, per-job event tapes and ``serve.*`` metrics;
* :mod:`repro.serve.http` — the stdlib-only asyncio HTTP server
  (``repro serve``) with SIGTERM drain and journal recovery;
* :mod:`repro.serve.client` — one :class:`Client` API over both the
  HTTP (retrying, reconnecting) and in-process transports
  (``repro submit``).

Deterministic server-side fault injection for the serve-chaos suite is a
:class:`repro.chaos.FaultSchedule` (``hold`` and ``reset`` rules).

See docs/SERVICE.md for the wire contract, resilience semantics and
operational notes.
"""

from .cache import ResultCache
from .client import Client, load_result
from .http import Server, serve_forever
from .journal import JobJournal
from .runner import Job, JobManager, build_protocol, execute_spec, iter_job_events
from .types import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    JOB_SCHEMA_VERSION,
    JOB_TIMEOUT,
    TERMINAL_STATES,
    JobSpec,
    JobStatus,
    SweepSpec,
    spec_from_dict,
)

__all__ = [
    "Client",
    "load_result",
    "Server",
    "serve_forever",
    "Job",
    "JobManager",
    "build_protocol",
    "execute_spec",
    "iter_job_events",
    "ResultCache",
    "JobJournal",
    "JobSpec",
    "SweepSpec",
    "JobStatus",
    "spec_from_dict",
    "JOB_SCHEMA_VERSION",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_CANCELLED",
    "JOB_TIMEOUT",
    "TERMINAL_STATES",
]
