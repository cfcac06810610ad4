"""Framed wire protocol for the multi-host sweep fabric.

The fabric (:mod:`repro.experiments.fabric`) moves small control
messages and pickled task payloads between one coordinator and many
workers over TCP.  This module owns the byte-level concerns so the
fabric can think entirely in messages:

* **framing** — every message is one pickle blob behind a 4-byte
  big-endian length prefix.  Pickle is the transport because task
  payloads carry module-level callables and ``SeedSequence`` children;
  the fabric is therefore a *trusted-cluster* protocol (loopback, lab
  network), never an internet-facing one — exactly the stance
  distributed PDES engines take toward their MPI ranks;
* **channels** — :class:`FramedChannel` wraps a connected socket with a
  thread-safe :meth:`~FramedChannel.send` (workers heartbeat from a
  background thread while the main thread executes tasks), a blocking
  :meth:`~FramedChannel.recv` for the worker's
  single-message-at-a-time loop, and :meth:`~FramedChannel.read` for
  the coordinator's ``selectors`` loop, which decodes whatever one
  readable chunk completes;
* **fault injection** — a channel accepts an optional
  :class:`~repro.chaos.FaultSchedule` and consults it on
  every send, so dropped / delayed / duplicated messages and partition
  windows are injected below the fabric's own logic.  The decision is
  :class:`SendFaults`, on the caller's clock, so the in-memory channels
  of the virtual-time tests replay a schedule exactly as a socket does.
  The healthy channel is the zero-fault special case, like every other
  fault model in this codebase;
* **authentication** — with ``REPRO_FABRIC_SECRET`` set (both ends),
  every frame carries an HMAC-SHA256 tag over its payload; a missing or
  mismatched tag raises :class:`ValueError`, which both the coordinator
  and the worker treat as a corrupt stream and answer by dropping the
  connection.  This hardens the trusted-cluster stance: pickle still
  makes the fabric unsuitable for hostile networks, but a shared secret
  stops accidental cross-talk and casual frame injection on a shared
  lab segment.  Authenticity, not secrecy — frames stay plaintext.

Messages are flat dicts whose ``kind`` field names them; the kinds and
what they mean belong to the protocol, :mod:`repro.experiments.fabric_core`.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_mod
import os
import pickle
import socket
import struct
import threading
import time

from ..chaos import NET_ACTIONS

__all__ = [
    "MAX_FRAME_BYTES",
    "FABRIC_SECRET_ENV",
    "fabric_secret",
    "encode_frame",
    "FrameDecoder",
    "FramedChannel",
    "SendFaults",
    "parse_address",
    "format_address",
]

#: Upper bound on one frame; a longer length prefix means a corrupt or
#: hostile stream and the connection is dropped instead of allocated for.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Environment variable holding the shared fabric secret.  When set on
#: both ends, every frame is tagged and verified with HMAC-SHA256.
FABRIC_SECRET_ENV = "REPRO_FABRIC_SECRET"

#: HMAC-SHA256 digest size — the tag prepended to authenticated frames.
_TAG_BYTES = hashlib.sha256().digest_size

_LENGTH = struct.Struct(">I")

#: Sentinel for "use the environment's secret" (distinct from ``None``,
#: which explicitly disables authentication).
_ENV_SECRET = object()


def fabric_secret() -> bytes | None:
    """The ambient shared secret, or ``None`` when unset/empty."""
    value = os.environ.get(FABRIC_SECRET_ENV)
    if not value:
        return None
    return value.encode()


def _resolve_secret(secret) -> bytes | None:
    if secret is _ENV_SECRET:
        return fabric_secret()
    if secret is None:
        return None
    return secret.encode() if isinstance(secret, str) else bytes(secret)


def encode_frame(message: dict, *, secret=_ENV_SECRET) -> bytes:
    """One message as its on-wire bytes (length prefix [+ tag] + pickle).

    With a secret, the frame body is ``HMAC-SHA256(secret, blob) ||
    blob`` — the length prefix covers tag and payload together, so the
    frame layout stays a single length-delimited unit either way.
    """
    key = _resolve_secret(secret)
    blob = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if key is not None:
        blob = hmac_mod.new(key, blob, hashlib.sha256).digest() + blob
    if len(blob) > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {len(blob)} bytes exceeds MAX_FRAME_BYTES")
    return _LENGTH.pack(len(blob)) + blob


class FrameDecoder:
    """Incremental frame reassembly for non-blocking reads.

    Feed it whatever ``recv`` returned; it yields every complete message
    and buffers the tail.  One decoder per connection — frames from
    different sockets must never interleave.

    With a secret (defaulting to the ``REPRO_FABRIC_SECRET``
    environment), every frame must verify: a missing or mismatched tag
    raises :class:`ValueError`, as does an undecodable payload — the
    callers' existing corrupt-stream handling drops the connection for
    both.
    """

    def __init__(self, *, secret=_ENV_SECRET) -> None:
        self._buffer = bytearray()
        self.secret = _resolve_secret(secret)

    def feed(self, data: bytes) -> list[dict]:
        """Absorb ``data``; return all messages completed by it."""
        self._buffer.extend(data)
        messages = []
        while True:
            if len(self._buffer) < _LENGTH.size:
                return messages
            (length,) = _LENGTH.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise ValueError(
                    f"incoming frame of {length} bytes exceeds MAX_FRAME_BYTES"
                )
            end = _LENGTH.size + length
            if len(self._buffer) < end:
                return messages
            blob = bytes(self._buffer[_LENGTH.size:end])
            del self._buffer[:end]
            if self.secret is not None:
                if len(blob) < _TAG_BYTES:
                    raise ValueError(
                        "authenticated frame too short for its tag; "
                        "peer is missing REPRO_FABRIC_SECRET?"
                    )
                tag, blob = blob[:_TAG_BYTES], blob[_TAG_BYTES:]
                expected = hmac_mod.new(
                    self.secret, blob, hashlib.sha256
                ).digest()
                if not hmac_mod.compare_digest(tag, expected):
                    raise ValueError(
                        "frame auth tag mismatch; dropping connection"
                    )
            try:
                message = pickle.loads(blob)
            except Exception as exc:  # noqa: BLE001 — any decode failure
                # is a corrupt (or differently-secured) stream; normalise
                # so callers have one exception type to drop on.
                raise ValueError(f"undecodable frame: {exc}") from exc
            messages.append(message)


class SendFaults:
    """One sender's wire faults: a :class:`~repro.chaos.FaultSchedule`
    consulted per outgoing message, with the message kind as the rule
    kind, on the caller's clock.

    :meth:`plan` answers how many copies of a message go out and after
    what delay:

    * ``drop`` — none, the message is silently discarded;
    * ``delay`` — one, after the sender waits ``seconds`` (delaying
      everything that sender sends behind it, as a congested uplink
      would);
    * ``duplicate`` — two, back-to-back;
    * ``partition`` — none, and *every* send in the next ``seconds`` is
      discarded too, heartbeats included, so the peer's liveness
      detector sees a genuine partition.

    Injection happens on the sending side only: a drop on ``A``'s send
    is indistinguishable from a drop on ``B``'s receive.
    """

    def __init__(self, chaos=None):
        self.chaos = chaos
        self.mute_until = float("-inf")

    def plan(self, kind: str, now: float) -> tuple[int, float]:
        """``(copies, delay)`` of one ``kind`` message sent at ``now``."""
        if self.chaos is None:
            return 1, 0.0
        if now < self.mute_until:
            return 0, 0.0
        rule = self.chaos.fire(kind, *NET_ACTIONS)
        if rule is None:
            return 1, 0.0
        if rule.action == "partition":
            self.mute_until = now + rule.seconds
        if rule.action in ("drop", "partition"):
            return 0, 0.0
        if rule.action == "delay":
            return 1, rule.seconds
        return 2, 0.0


class FramedChannel:
    """A connected socket speaking length-prefixed pickled messages.

    ``send`` is serialised by a lock so the worker's heartbeat thread
    and its task loop can share the channel; ``chaos`` (a
    :class:`~repro.chaos.FaultSchedule`) acts on every send as
    :class:`SendFaults` describes, on the monotonic clock.
    """

    def __init__(self, sock: socket.socket, *, chaos=None, secret=_ENV_SECRET):
        self.sock = sock
        self.faults = SendFaults(chaos)
        self.secret = _resolve_secret(secret)
        self._decoder = FrameDecoder(secret=self.secret)
        self._send_lock = threading.Lock()
        # One recv() chunk can decode several messages; the surplus
        # queues here and drains before the socket is read again.
        self._pending: list[dict] = []

    def send(self, message: dict) -> bool:
        """Write one message; False when chaos swallowed it."""
        copies, delay = self.faults.plan(message.get("kind", ""), time.monotonic())
        if not copies:
            return False
        if delay:
            time.sleep(delay)
        frame = encode_frame(message, secret=self.secret)
        with self._send_lock:
            self.sock.sendall(frame * copies)
        return True

    def read(self) -> list[dict] | None:
        """Read one chunk; every message it completes, ``None`` on EOF.

        Raises :class:`ValueError` on a corrupt or unauthenticated
        stream.
        """
        data = self.sock.recv(65536)
        return self._decoder.feed(data) if data else None

    def recv(self, timeout: float | None = None) -> dict | None:
        """Block for the next whole message; ``None`` on clean EOF.

        Raises :class:`socket.timeout` when ``timeout`` elapses between
        reads (the worker's way of noticing a silent coordinator).
        """
        if not self._pending:
            self.sock.settimeout(timeout)
        while not self._pending:
            messages = self.read()
            if messages is None:
                return None
            self._pending.extend(messages)
        return self._pending.pop(0)

    def close(self) -> None:
        """Close the underlying socket (idempotent, best-effort)."""
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - already torn down
            pass


def parse_address(address: str, *, default_host: str = "127.0.0.1") -> tuple[str, int]:
    """``"host:port"`` / ``":port"`` / ``"port"`` -> ``(host, port)``."""
    text = str(address).strip()
    if ":" in text:
        host, _, port_text = text.rpartition(":")
        host = host or default_host
    else:
        host, port_text = default_host, text
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"invalid fabric address {address!r}: bad port") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"invalid fabric address {address!r}: port out of range")
    return host, port


def format_address(host: str, port: int) -> str:
    """The canonical ``host:port`` rendering of a fabric endpoint."""
    return f"{host}:{port}"
