"""The HTTP front door: a stdlib-only asyncio job server.

Routes (all JSON; see docs/SERVICE.md for the wire contract):

========================   ====================================================
``POST /v1/simulate``      submit a :class:`~repro.serve.types.JobSpec`;
                           returns its :class:`~repro.serve.types.JobStatus`
``POST /v1/sweeps``        submit a :class:`~repro.serve.types.SweepSpec`
``GET /v1/jobs/{id}``      a job's current status (result inlined when done)
``DELETE /v1/jobs/{id}``   request cooperative cancellation; returns the
                           job's (possibly not-yet-terminal) status
``GET /v1/jobs/{id}/events``  NDJSON stream of the job's trace events,
                           following a running job to completion
``GET /v1/healthz``        liveness plus the manager's headline counters
``GET /v1/readyz``         readiness: 200 while admitting, 503 once
                           draining (load balancers stop routing here)
========================   ====================================================

POST endpoints accept ``?wait=SECONDS`` (or ``wait=1`` to wait
indefinitely via ``wait=true``) to block until the job is terminal —
the smoke-test and CLI path.  Blocking waits run in the default
executor, so the event loop keeps serving while a handler sleeps on a
job's ``done`` event; a job that is already terminal (every cache hit)
answers without that thread hop.

A finished job's result goes out as the canonical JSON bytes the job
holds (see :mod:`repro.serve.cache`): the handler encodes only the
status head and splices ``"result":<bytes>`` onto it, so a cache hit is
never parsed or re-encoded on the event loop.

The server is deliberately minimal: HTTP/1.1, one request per
connection (``Connection: close``), no TLS, no auth — a front door for
trusted lab networks and CI, not the public internet.  Everything
interesting lives in the :class:`~repro.serve.runner.JobManager`; this
module only parses requests, maps errors to status codes
(:class:`~repro.errors.JobQueueFullError` → 429,
:class:`~repro.errors.ServerDrainingError` → 503 + ``Retry-After``,
bad specs → 400, unknown jobs → 404) and frames responses.

:func:`serve_forever` additionally wires the resilience machinery:
journal recovery before the listener binds, and a SIGTERM handler that
drains gracefully — readiness flips to 503, in-flight jobs get a
bounded finish window, the rest stay journaled for restart pickup (see
docs/SERVICE.md → *Resilience semantics*).
"""

from __future__ import annotations

import asyncio
import json
import signal
from urllib.parse import parse_qs, urlsplit

from ..chaos import FaultSchedule
from ..errors import (
    InvalidParameterError,
    JobQueueFullError,
    ReproError,
    ServerDrainingError,
)
from ..obs import Observer
from .runner import Job, JobManager
from .types import JOB_DONE, JobSpec, SweepSpec, spec_from_dict

__all__ = ["Server", "serve_forever"]

#: Reject request bodies beyond this size (1 MiB is generous for specs).
MAX_BODY_BYTES = 1 << 20

#: ``Retry-After`` hint on 503s: drains are short — a replacement
#: process (or the restarted one) should be admitting within seconds.
RETRY_AFTER_S = 1

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode()


def _status_bytes(job: Job) -> bytes:
    """A job's status document with its result bytes spliced in.

    ``result`` is the last key of :meth:`JobStatus.to_dict`, so encoding
    the head without it and appending ``,"result":<bytes>}`` gives the
    same document as encoding the parsed result in place.
    """
    payload = job.head().to_dict()
    body = job.body if payload["state"] == JOB_DONE else None
    if body is None:
        return _json_bytes(payload)
    del payload["result"]
    head = json.dumps(payload, separators=(",", ":")).encode()
    return b"".join((head[:-1], b',"result":', body, b"}\n"))


class _HttpError(Exception):
    """A request failure with a definite status code."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class Server:
    """One job server: a :class:`JobManager` behind an asyncio listener.

    Usage (tests and embedding)::

        async with Server(cache=tmp_path / "cache") as server:
            ...  # server.port is bound; submit over HTTP

    or synchronously via :func:`serve_forever`.  The manager may be
    shared (pass ``manager=``) or owned (constructed from ``cache=``,
    ``workers=``, ``max_pending=``, ``obs=`` and shut down with the
    server).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        manager: JobManager | None = None,
        cache=None,
        workers: int = 2,
        max_pending: int = 256,
        journal=None,
        chaos: FaultSchedule | None = None,
        obs: Observer | None = None,
    ):
        self.host = host
        self.port = port
        if manager is not None:
            self.manager = manager
            self._owns_manager = False
        else:
            self.manager = JobManager(
                cache=cache,
                workers=workers,
                max_pending=max_pending,
                journal=journal,
                chaos=chaos,
                obs=obs,
            )
            self._owns_manager = True
        # Connection-level chaos (reset injection) rides the same
        # schedule the manager holds, however the manager was supplied.
        self.chaos = chaos if chaos is not None else self.manager.chaos
        self._server: asyncio.base_events.Server | None = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "Server":
        """Bind the listener; ``self.port`` holds the real port after."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def close(self) -> None:
        """Stop accepting, then shut the manager down (when owned)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._owns_manager:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self.manager.shutdown)

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def __aenter__(self) -> "Server":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- request plumbing ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self.chaos is not None and self.chaos.fire("connection", "reset"):
            # Injected connection reset: abort (RST) before any response
            # bytes, which is what the retrying client must survive.
            writer.transport.abort()
            return
        try:
            await self._handle_request(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            method, target, body = await self._read_request(reader)
        except _HttpError as exc:
            await self._send_json(
                writer, exc.status, {"error": str(exc)}
            )
            return
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = {
            key: values[-1] for key, values in parse_qs(split.query).items()
        }
        try:
            await self._dispatch(writer, method, path, query, body)
        except _HttpError as exc:
            await self._send_json(writer, exc.status, {"error": str(exc)})
        except JobQueueFullError as exc:
            await self._send_json(writer, 429, {"error": str(exc)})
        except ServerDrainingError as exc:
            await self._send_json(
                writer,
                503,
                {"error": str(exc)},
                headers={"Retry-After": str(RETRY_AFTER_S)},
            )
        except (InvalidParameterError, ReproError) as exc:
            await self._send_json(writer, 400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 — never kill the listener
            await self._send_json(
                writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
            )

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes]:
        try:
            request_line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            raise _HttpError(400, "request line too long") from None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line")
        method, target, _version = parts
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _HttpError(400, "bad Content-Length") from None
        if content_length > MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        body = (
            await reader.readexactly(content_length) if content_length else b""
        )
        return method, target, body

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        *,
        headers: dict | None = None,
    ) -> None:
        await self._send(writer, status, _json_bytes(payload), headers=headers)

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        *,
        headers: dict | None = None,
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head)
        writer.write(body)
        await writer.drain()

    # -- routing -------------------------------------------------------

    async def _dispatch(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        query: dict,
        body: bytes,
    ) -> None:
        if path == "/v1/healthz":
            if method != "GET":
                raise _HttpError(405, f"{method} not allowed on {path}")
            await self._send_json(
                writer, 200, {"ok": True, **self.manager.stats()}
            )
            return
        if path == "/v1/readyz":
            if method != "GET":
                raise _HttpError(405, f"{method} not allowed on {path}")
            if self.manager.draining:
                await self._send_json(
                    writer,
                    503,
                    {"ready": False, "draining": True},
                    headers={"Retry-After": str(RETRY_AFTER_S)},
                )
            else:
                await self._send_json(
                    writer, 200, {"ready": True, "draining": False}
                )
            return
        if path in ("/v1/simulate", "/v1/sweeps"):
            if method != "POST":
                raise _HttpError(405, f"{method} not allowed on {path}")
            await self._submit(writer, path, query, body)
            return
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/") :]
            if method == "DELETE" and not rest.endswith("/events"):
                await self._cancel_job(writer, rest)
                return
            if method != "GET":
                raise _HttpError(405, f"{method} not allowed on {path}")
            if rest.endswith("/events"):
                await self._stream_events(writer, rest[: -len("/events")])
            else:
                await self._job_status(writer, rest, query)
            return
        raise _HttpError(404, f"no route for {path}")

    def _parse_spec(self, path: str, body: bytes):
        try:
            payload = json.loads(body.decode() or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"request body is not JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise _HttpError(400, "request body must be a JSON object")
        spec = spec_from_dict(payload)
        # Each endpoint admits exactly one request shape; a sweep posted
        # to /v1/simulate is a client bug worth a loud 400.
        if path == "/v1/simulate" and not isinstance(spec, JobSpec):
            raise _HttpError(400, "/v1/simulate takes a simulate spec")
        if path == "/v1/sweeps" and not isinstance(spec, SweepSpec):
            raise _HttpError(400, "/v1/sweeps takes a sweep spec")
        return spec

    @staticmethod
    def _wait_timeout(query: dict) -> float | None | bool:
        """``False`` = no wait; ``None`` = wait forever; float = bounded."""
        raw = query.get("wait")
        if raw is None:
            return False
        if raw.lower() in ("", "1", "true", "yes"):
            return None
        try:
            return float(raw)
        except ValueError:
            raise _HttpError(400, f"bad wait value {raw!r}") from None

    async def _submit(
        self, writer: asyncio.StreamWriter, path: str, query: dict, body: bytes
    ) -> None:
        spec = self._parse_spec(path, body)
        job = self.manager.submit(spec)
        await self._wait_for(job, query)
        await self._send(writer, 200, _status_bytes(job))

    async def _wait_for(self, job: Job, query: dict) -> None:
        """Honour ``?wait=``; a terminal job returns without a thread hop."""
        wait = self._wait_timeout(query)
        if wait is not False and not job.done.is_set():
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, job.done.wait, wait)

    def _find_job(self, job_id: str) -> Job:
        job = self.manager.job(job_id)
        if job is None:
            raise _HttpError(404, f"no such job: {job_id}")
        return job

    async def _cancel_job(
        self, writer: asyncio.StreamWriter, job_id: str
    ) -> None:
        """``DELETE /v1/jobs/{id}``: request cooperative cancellation.

        Returns the job's current status immediately — cancellation
        lands at the next round/task boundary, so callers poll (or
        ``?wait=``) for the ``cancelled`` terminal state.
        """
        job = self._find_job(job_id)
        self.manager.cancel(job.id)
        await self._send(writer, 200, _status_bytes(job))

    async def _job_status(
        self, writer: asyncio.StreamWriter, job_id: str, query: dict
    ) -> None:
        job = self._find_job(job_id)
        await self._wait_for(job, query)
        await self._send(writer, 200, _status_bytes(job))

    async def _stream_events(
        self, writer: asyncio.StreamWriter, job_id: str
    ) -> None:
        """NDJSON event stream, following a running job to completion.

        No Content-Length — the stream ends when the connection closes,
        which happens once the job is terminal and its tape is drained.
        """
        job = self._find_job(job_id)
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head)
        await writer.drain()
        loop = asyncio.get_running_loop()
        cursor = 0
        while True:
            window, cursor = job.events_since(cursor)
            for event in window:
                writer.write(_json_bytes(event))
            if window:
                await writer.drain()
            if job.done.is_set() and cursor == job.num_events():
                return
            await loop.run_in_executor(None, job.done.wait, 0.02)


def serve_forever(
    host: str = "127.0.0.1",
    port: int = 8642,
    *,
    cache=None,
    workers: int = 2,
    max_pending: int = 256,
    journal=None,
    drain_s: float = 30.0,
    chaos: FaultSchedule | None = None,
    obs: Observer | None = None,
    ready=None,
) -> None:
    """Run a job server until interrupted (the ``repro serve`` path).

    With a ``journal``, incomplete jobs from a previous process are
    replayed *before* the listener binds, so a restarted server is
    already working through its backlog when traffic returns.  SIGTERM
    triggers a graceful drain: readiness flips to 503, new submits are
    refused with ``Retry-After``, in-flight jobs get ``drain_s``
    seconds to finish, and whatever remains stays journaled for the
    next process.  SIGINT/ctrl-C stays an immediate stop.

    ``ready``, when given, is called with the bound :class:`Server` once
    the listener is up — how the CLI prints the actual address and how
    tests learn an ephemeral port.
    """

    async def _main() -> None:
        server = Server(
            host,
            port,
            cache=cache,
            workers=workers,
            max_pending=max_pending,
            journal=journal,
            chaos=chaos,
            obs=obs,
        )
        server.manager.recover()
        await server.start()
        loop = asyncio.get_running_loop()
        sigterm = asyncio.Event()
        try:
            loop.add_signal_handler(signal.SIGTERM, sigterm.set)
        except (NotImplementedError, RuntimeError):
            pass  # platforms without loop signal handlers keep hard stop
        try:
            if ready is not None:
                ready(server)
            assert server._server is not None
            serving = asyncio.ensure_future(server._server.serve_forever())
            stopping = asyncio.ensure_future(sigterm.wait())
            try:
                await asyncio.wait(
                    {serving, stopping},
                    return_when=asyncio.FIRST_COMPLETED,
                )
            finally:
                serving.cancel()
                stopping.cancel()
            if sigterm.is_set():
                # Stragglers past the budget are cooperatively
                # cancelled with their journal records left unpaired,
                # so close() below does not hang on them and a restart
                # picks them back up.
                await loop.run_in_executor(
                    None, server.manager.drain, drain_s
                )
        except asyncio.CancelledError:
            pass
        finally:
            await server.close()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
