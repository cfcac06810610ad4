"""The client surface: one API over HTTP and in-process transports.

The top layer of the client/runner/types split.  A :class:`Client`
wraps either a server address (``Client("http://127.0.0.1:8642")``) or
a live :class:`~repro.serve.runner.JobManager` (``Client(manager)`` /
``Client.local()``), and exposes the same three verbs either way:

* :meth:`Client.simulate` — one dissemination run;
* :meth:`Client.sweep` — a catalogued experiment sweep;
* :meth:`Client.job` — look a submitted job up again;

plus :meth:`Client.cancel` (cooperative cancellation),
:meth:`Client.events` (the job's trace-event stream) and
:meth:`Client.health`.  Every verb returns the same
:class:`~repro.serve.types.JobStatus` a raw HTTP caller would parse, so
switching a script between "embedded" and "remote" is a one-line
constructor change.  :func:`load_result` lifts a finished simulate
job's result document back into the rich trace object.

The HTTP transport **retries**: dropped/reset connections and the
transient statuses (429 overload, 503 draining) are retried with
exponential backoff plus jitter, honouring ``Retry-After``, up to a
bounded attempt budget.  This is safe precisely because jobs are
content-addressed — a resubmitted spec coalesces onto the in-flight
execution or hits the result cache, so "at least once" submission
costs at most one execution (docs/SERVICE.md → *Resilience
semantics*).  Retries surface on the ambient observer as the
``serve.retries`` counter.
"""

from __future__ import annotations

import json
import random
import time
from http.client import HTTPConnection
from typing import Iterator
from urllib.parse import urlencode, urlsplit

from ..errors import InvalidParameterError, JobQueueFullError, ServeError
from ..obs import current_observer
from .runner import JobManager, iter_job_events
from .types import JobSpec, JobStatus, SweepSpec

__all__ = ["Client", "load_result"]

#: JobSpec fields that are not process params and so may appear as
#: keyword arguments to :meth:`Client.simulate` alongside ``**params``.
_SIMULATE_RESERVED = ("seed", "max_rounds", "backend", "deadline_s")

#: Statuses worth retrying: overload sheds load (429) and drains move
#: traffic (503); both say "try again shortly", not "you are wrong".
_RETRY_STATUSES = (429, 503)


def load_result(status: JobStatus):
    """Decode a finished job's result document into its rich object.

    Simulate jobs come back as the trace/batch-result types
    (:func:`repro.schema.result_from_dict`); sweep jobs come back as the
    wire payload unchanged (outcome dicts embedding experiment results).
    Raises :class:`~repro.errors.ServeError` on unfinished/failed jobs.
    """
    if not status.ok or status.result is None:
        raise ServeError(
            f"job {status.id} has no result (state={status.state!r}, "
            f"error={status.error!r})"
        )
    if status.kind == "sweep":
        return status.result
    from ..schema import result_from_dict

    return result_from_dict(status.result)


class _HttpTransport:
    """Blocking HTTP/1.1 calls against a job server (stdlib only).

    Each call opens a fresh connection, so "reconnect" after a dropped
    connection is simply the next attempt of the retry loop: up to
    ``retries`` re-attempts with exponential backoff
    (``backoff_s * 2^k``, capped at ``backoff_max_s``) and full jitter,
    honouring a server ``Retry-After`` hint as a floor.  Connection
    failures (reset/refused/torn responses) and the transient statuses
    429/503 retry; every other 4xx/5xx raises immediately.
    """

    def __init__(
        self,
        address: str,
        *,
        timeout: float = 600.0,
        retries: int = 4,
        backoff_s: float = 0.25,
        backoff_max_s: float = 4.0,
    ):
        split = urlsplit(address)
        if split.scheme not in ("http", ""):
            raise InvalidParameterError(
                f"only http:// addresses are supported, got {address!r}"
            )
        netloc = split.netloc or split.path  # allow bare "host:port"
        if not netloc:
            raise InvalidParameterError(f"bad server address {address!r}")
        self.netloc = netloc
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff_s = backoff_s
        self.backoff_max_s = backoff_max_s
        #: Retries performed over this transport's lifetime (tests and
        #: diagnostics; the observer counter is the durable record).
        self.retried = 0

    def _once(
        self, method: str, path: str, body: bytes | None
    ) -> tuple[int, str | None, dict]:
        """One attempt: status, Retry-After hint, decoded payload."""
        conn = HTTPConnection(self.netloc, timeout=self.timeout)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            payload = json.loads(response.read() or b"null")
            return response.status, response.getheader("Retry-After"), payload
        finally:
            conn.close()

    def _note_retry(self, method: str) -> None:
        self.retried += 1
        obs = current_observer()
        if obs is not None:
            obs.inc("serve.retries", label=method)

    def _backoff(self, attempt: int, hint: str | None) -> float:
        """Sleep budget before re-attempt ``attempt`` (1-based)."""
        delay = min(self.backoff_max_s, self.backoff_s * (2 ** (attempt - 1)))
        delay *= 0.5 + random.random() / 2  # jitter: de-sync retry herds
        if hint is not None:
            try:
                delay = max(delay, float(hint))
            except ValueError:
                pass
        return min(delay, self.backoff_max_s)

    def _request(
        self, method: str, path: str, body: bytes | None = None
    ) -> dict:
        attempts = self.retries + 1
        for attempt in range(1, attempts + 1):
            hint = None
            try:
                status, hint, payload = self._once(method, path, body)
            except (OSError, ValueError) as exc:
                # Dropped/reset/refused connection or a torn response.
                failure = ServeError(
                    f"request to {self.netloc}{path} failed after "
                    f"{attempt} attempt(s): {exc}"
                )
            else:
                if status == 429:
                    failure = JobQueueFullError(self._error_of(payload, path))
                elif status in _RETRY_STATUSES:
                    failure = ServeError(
                        f"server returned {status} for {path}: "
                        f"{self._error_of(payload, path)}"
                    )
                elif status >= 400:
                    raise ServeError(
                        f"server returned {status} for {path}: "
                        f"{self._error_of(payload, path)}"
                    )
                else:
                    return payload
            if attempt >= attempts:
                raise failure
            self._note_retry(method)
            time.sleep(self._backoff(attempt, hint))
        raise failure  # unreachable; loop always returns or raises

    @staticmethod
    def _error_of(payload, path: str) -> str:
        if isinstance(payload, dict) and "error" in payload:
            return str(payload["error"])
        return f"unexpected response body for {path}"

    @staticmethod
    def _wait_query(wait: float | None | bool) -> str:
        if wait is False:
            return ""
        if wait is None or wait is True:
            return "?" + urlencode({"wait": "true"})
        return "?" + urlencode({"wait": wait})

    def submit(self, spec, wait) -> JobStatus:
        path = "/v1/sweeps" if isinstance(spec, SweepSpec) else "/v1/simulate"
        body = json.dumps(spec.to_dict()).encode()
        payload = self._request("POST", path + self._wait_query(wait), body)
        return JobStatus.from_dict(payload)

    def job(self, job_id: str, wait) -> JobStatus:
        payload = self._request(
            "GET", f"/v1/jobs/{job_id}" + self._wait_query(wait)
        )
        return JobStatus.from_dict(payload)

    def cancel(self, job_id: str, wait) -> JobStatus:
        payload = self._request("DELETE", f"/v1/jobs/{job_id}")
        if wait is not False:
            return self.job(job_id, wait)
        return JobStatus.from_dict(payload)

    def events(self, job_id: str) -> Iterator[dict]:
        conn = HTTPConnection(self.netloc, timeout=self.timeout)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            response = conn.getresponse()
            if response.status >= 400:
                body = response.read().decode() or "null"
                raise ServeError(
                    f"server returned {response.status} for events of "
                    f"{job_id}: {self._error_of(json.loads(body), job_id)}"
                )
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line)
        finally:
            conn.close()

    def health(self) -> dict:
        return self._request("GET", "/v1/healthz")

    def close(self) -> None:
        """Connections are per-call; nothing is held open."""


class _InProcessTransport:
    """The same verbs routed straight into a :class:`JobManager`."""

    def __init__(self, manager: JobManager, *, owns: bool):
        self.manager = manager
        self._owns = owns

    def submit(self, spec, wait) -> JobStatus:
        job = self.manager.submit(spec)
        if wait is not False:
            job.done.wait(None if wait is True else wait)
        return job.status()

    def _find(self, job_id: str):
        job = self.manager.job(job_id)
        if job is None:
            raise ServeError(f"no such job: {job_id}")
        return job

    def job(self, job_id: str, wait) -> JobStatus:
        job = self._find(job_id)
        if wait is not False:
            job.done.wait(None if wait is True else wait)
        return job.status()

    def cancel(self, job_id: str, wait) -> JobStatus:
        job = self._find(job_id)
        self.manager.cancel(job_id)
        if wait is not False:
            job.done.wait(None if wait is True else wait)
        return job.status()

    def events(self, job_id: str) -> Iterator[dict]:
        return iter_job_events(self._find(job_id))

    def health(self) -> dict:
        return {"ok": True, **self.manager.stats()}

    def close(self) -> None:
        if self._owns:
            self.manager.shutdown()


class Client:
    """Submit simulations and sweeps, over HTTP or in process.

    Parameters
    ----------
    target: a server address (``"http://host:port"`` or ``"host:port"``)
        for the HTTP transport, an existing
        :class:`~repro.serve.runner.JobManager` to drive in process, or
        ``None`` for a private in-process manager (no cache) owned — and
        shut down — by this client.  :meth:`Client.local` builds an
        owned in-process client with a cache directory and worker count.

    All submission verbs take ``wait``: ``True`` (default) blocks until
    the job is terminal, ``False`` returns the queued/running status
    immediately (poll with :meth:`job`), a float bounds the wait in
    seconds.

    ``retries``/``backoff_s``/``backoff_max_s`` tune the HTTP
    transport's retry loop (ignored for in-process targets, where
    there is no connection to lose).
    """

    def __init__(
        self,
        target: str | JobManager | None = None,
        *,
        retries: int = 4,
        backoff_s: float = 0.25,
        backoff_max_s: float = 4.0,
    ):
        if target is None:
            self._transport = _InProcessTransport(JobManager(), owns=True)
        elif isinstance(target, JobManager):
            self._transport = _InProcessTransport(target, owns=False)
        elif isinstance(target, str):
            self._transport = _HttpTransport(
                target,
                retries=retries,
                backoff_s=backoff_s,
                backoff_max_s=backoff_max_s,
            )
        else:
            raise InvalidParameterError(
                f"target must be an address, a JobManager or None, "
                f"got {type(target).__name__}"
            )

    @classmethod
    def local(
        cls,
        *,
        cache=None,
        workers: int = 2,
        max_pending: int = 256,
        obs=None,
    ) -> "Client":
        """An in-process client owning its manager (and cache)."""
        client = cls.__new__(cls)
        client._transport = _InProcessTransport(
            JobManager(
                cache=cache, workers=workers, max_pending=max_pending, obs=obs
            ),
            owns=True,
        )
        return client

    # -- verbs ---------------------------------------------------------

    def simulate(
        self,
        process: str,
        graph: dict,
        *,
        wait: float | bool = True,
        **params,
    ) -> JobStatus:
        """Submit one simulation.

        ``seed``, ``max_rounds``, ``backend`` and ``deadline_s`` are
        lifted into the spec's top level; every other keyword
        (``protocol``, ``source``, ``num_agents``, ...) becomes a
        process param.  The declarative ``protocol`` spec is a
        ``{"kind": ...}`` mapping — see
        :data:`repro.serve.runner.PROTOCOL_BUILDERS`.
        """
        reserved = {
            name: params.pop(name, None) for name in _SIMULATE_RESERVED
        }
        spec = JobSpec(
            process=process,
            graph=dict(graph),
            params=params,
            seed=reserved["seed"],
            max_rounds=reserved["max_rounds"],
            backend=reserved["backend"],
            deadline_s=reserved["deadline_s"],
        )
        return self.submit(spec, wait=wait)

    def sweep(
        self,
        experiments,
        *,
        quick: bool = True,
        seed: int = 0,
        jobs: int = 1,
        deadline_s: float | None = None,
        wait: float | bool = True,
    ) -> JobStatus:
        """Submit a catalogued experiment sweep."""
        spec = SweepSpec(
            experiments=tuple(experiments),
            quick=quick,
            seed=seed,
            jobs=jobs,
            deadline_s=deadline_s,
        )
        return self.submit(spec, wait=wait)

    def submit(self, spec, *, wait: float | bool = True) -> JobStatus:
        """Submit an already-built :class:`JobSpec` / :class:`SweepSpec`."""
        if not isinstance(spec, (JobSpec, SweepSpec)):
            raise InvalidParameterError(
                f"spec must be a JobSpec or SweepSpec, "
                f"got {type(spec).__name__}"
            )
        return self._transport.submit(spec, wait)

    def job(self, job_id: str, *, wait: float | bool = False) -> JobStatus:
        """A submitted job's current status (optionally waiting)."""
        return self._transport.job(job_id, wait)

    def cancel(self, job_id: str, *, wait: float | bool = False) -> JobStatus:
        """Request cooperative cancellation of a job.

        Cancellation lands at the job's next round/task boundary, so
        the returned status may not be terminal yet — pass ``wait`` to
        block for the ``cancelled`` (or racing ``done``) state.
        """
        return self._transport.cancel(job_id, wait)

    def events(self, job_id: str) -> Iterator[dict]:
        """The job's trace-event stream, followed to completion."""
        return self._transport.events(job_id)

    def health(self) -> dict:
        """Server liveness plus headline counters."""
        return self._transport.health()

    def result(self, job_id: str, *, wait: float | bool = True):
        """Wait for a job and decode its result (:func:`load_result`)."""
        return load_result(self.job(job_id, wait=wait))

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Release the transport (shuts down an owned in-process manager)."""
        self._transport.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
