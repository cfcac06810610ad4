"""Content-addressed on-disk result cache.

Every job's result document is stored under the sha256 of its canonical
spec (:meth:`~repro.serve.types.JobSpec.cache_key`); a sweep with a
store (:class:`~repro.experiments.supervisor.TaskStore`, ``run-all
--checkpoint DIR``) keeps each task's result under the sha256 of its
function, kwargs and seed child the same way.  Determinism makes
entries immortal: the same spec always produces the same bytes, so a hit
is an exact replay of the original execution and entries never need
invalidation — the cache only grows, and growing it is the point.

The cache stores and returns a result as its canonical JSON bytes
(:func:`~repro.schema.canonical_json`), never as a parsed document: the
server splices those bytes straight into its response, so a hit is at
most a file read plus a socket write (the job manager keeps recent
result bytes in memory, so most hits skip the read).

Layout (git-style two-character fan-out to keep directories small)::

    <root>/ab/abcdef....json

Each entry is one canonical JSON document followed by a newline::

    {"key":"<key>","result":<result bytes>,"schema_version":1,"sha256":"<digest>"}

``sha256`` is the hex digest of the result bytes.  Sorted keys put
``key`` and ``result`` first and ``schema_version`` and ``sha256`` last,
so the key, the version and the digest sit at fixed offsets from the
ends of the file and :meth:`ResultCache.get` checks all three without
parsing the document.

Writes are atomic (write-tmp-then-replace), so a crashed server never
leaves a half-written entry.  A corrupt or tampered entry — truncated or
unparsable bytes, wrong embedded key, unknown schema version, a result
whose bytes no longer match their digest — is **quarantined** to
``*.corrupt`` (with a warning) and treated as a
miss: the job re-executes and rewrites the entry instead of failing the
request.

An entry written before the digest existed (``{"key", "result",
"schema_version"}`` with the current version and no ``sha256``) is a
plain miss and is *not* quarantined: the job re-executes, and since the
result is a pure function of the spec, the rewritten entry carries the
identical ``result`` bytes plus their digest.
"""

from __future__ import annotations

import hashlib
import threading
import warnings
from pathlib import Path

from .._atomic import atomic_write
from ..schema import RESULT_SCHEMA_VERSION

__all__ = ["ResultCache"]

#: Bytes between the result and the digest: the schema version field.
_VERSION = b',"schema_version":%d' % RESULT_SCHEMA_VERSION
#: The whole tail of an entry written before the digest existed.
_LEGACY_TAIL = _VERSION + b"}\n"


def _head(key: str) -> bytes:
    return b'{"key":"%s","result":' % key.encode("ascii")


def _tail(digest: str) -> bytes:
    return _VERSION + b',"sha256":"%s"}\n' % digest.encode("ascii")


#: Everything after the result: the version, then a hex sha256 digest.
_TAIL_LEN = len(_tail("0" * 64))


def _quarantine(path: Path) -> Path:
    """Move a corrupt entry aside (``*.corrupt``) and warn.

    The original bytes are kept for forensics instead of being
    overwritten by the re-execution's fresh entry.  Returns where the
    bytes are now: ``path`` itself when the move failed.
    """
    quarantined = path.with_name(path.name + ".corrupt")
    try:
        path.replace(quarantined)
    except OSError:  # pragma: no cover - renaming across mounts etc.
        quarantined = path
    warnings.warn(
        f"corrupt result cache entry {path} quarantined to {quarantined}; "
        "recomputing",
        RuntimeWarning,
        stacklevel=4,
    )
    return quarantined


class ResultCache:
    """Immutable-by-key result store on the local filesystem.

    ``len()`` is a running count of the entries this object has seen:
    one directory walk at construction, then +1 for each :meth:`put`
    that creates an entry and -1 for each quarantine, so a health
    check never walks the directory.  Entries other processes write
    into the same directory after construction are not counted.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._entries = sum(1 for _ in self.root.glob("*/*.json"))

    def path_for(self, key: str) -> Path:
        """Entry path for a cache key (two-character fan-out)."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> bytes | None:
        """The stored result's canonical JSON bytes, or ``None`` on miss.

        The bytes are verified against the entry's key, schema version
        and digest but never parsed.  A corrupt entry is quarantined to
        ``*.corrupt`` and reported as a miss — the caller re-executes
        and overwrites.  A pre-digest entry is a miss left in place.
        """
        path = self.path_for(key)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            self._quarantine(path)
            return None
        head = _head(key)
        if data.startswith(head):
            if data.endswith(_LEGACY_TAIL):
                return None
            if len(data) >= len(head) + _TAIL_LEN:
                body = data[len(head) : -_TAIL_LEN]
                if data.endswith(_tail(hashlib.sha256(body).hexdigest())):
                    return body
        self._quarantine(path)
        return None

    def _quarantine(self, path: Path) -> None:
        if _quarantine(path) != path:
            with self._lock:
                self._entries -= 1

    def put(self, key: str, body: bytes) -> Path:
        """Store a result's canonical JSON bytes under ``key``.

        Atomic, last write wins.  Concurrent writers of the same key are
        harmless: determinism means they are writing identical bytes.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        digest = hashlib.sha256(body).hexdigest()
        new = not path.exists()
        written = atomic_write(path, _head(key) + body + _tail(digest))
        if new:
            with self._lock:
                self._entries += 1
        return written

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        """Number of (non-quarantined) entries, from the running count."""
        return self._entries

    def __repr__(self) -> str:
        return f"ResultCache(root={str(self.root)!r}, entries={len(self)})"
