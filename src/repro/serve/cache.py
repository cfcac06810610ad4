"""Content-addressed on-disk result cache.

Every job's result document is stored under the sha256 of its canonical
spec (:meth:`~repro.serve.types.JobSpec.cache_key`).  Determinism makes
entries immortal: the same spec always produces the same bytes, so a hit
is an exact replay of the original execution and entries never need
invalidation — the cache only grows, and growing it is the point.

Layout (git-style two-character fan-out to keep directories small)::

    <root>/ab/abcdef....json    # {"schema_version", "key", "result"}

Writes are atomic (write-tmp-then-replace), so a crashed server never
leaves a half-written entry.  A corrupt or tampered entry — unparsable
JSON, wrong embedded key, unknown schema version — is **quarantined** to
``*.corrupt`` (the checkpoint convention of
:func:`repro.experiments.supervisor.quarantine_checkpoint`) and treated
as a miss: the job re-executes and rewrites the entry instead of failing
the request.
"""

from __future__ import annotations

import json
from pathlib import Path

from .._atomic import atomic_write
from ..experiments.supervisor import quarantine_checkpoint
from ..schema import RESULT_SCHEMA_VERSION, canonical_json

__all__ = ["ResultCache"]


class ResultCache:
    """Immutable-by-key result store on the local filesystem."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        """Entry path for a cache key (two-character fan-out)."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The stored result document, or ``None`` on miss.

        A corrupt entry is quarantined to ``*.corrupt`` and reported as
        a miss — the caller re-executes and overwrites.
        """
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            envelope = json.loads(path.read_text())
            stored_key = envelope["key"]
            result = envelope["result"]
            version = envelope["schema_version"]
        except (KeyError, TypeError, ValueError, OSError):
            quarantine_checkpoint(path, kind="result cache entry")
            return None
        if version != RESULT_SCHEMA_VERSION or stored_key != key:
            quarantine_checkpoint(path, kind="result cache entry")
            return None
        return result

    def put(self, key: str, result: dict) -> Path:
        """Store a result document under ``key`` (atomic, last write wins).

        Concurrent writers of the same key are harmless: determinism
        means they are writing identical bytes.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {
            "schema_version": RESULT_SCHEMA_VERSION,
            "key": key,
            "result": result,
        }
        return atomic_write(path, canonical_json(envelope) + "\n")

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        """Number of (non-quarantined) entries on disk."""
        return sum(1 for _ in self.root.glob("*/*.json"))

    def __repr__(self) -> str:
        return f"ResultCache(root={str(self.root)!r}, entries={len(self)})"
