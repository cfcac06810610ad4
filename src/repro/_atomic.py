"""Crash-safe file replacement shared by everything that persists.

Checkpoints, the result cache, the job journal's compaction, chaos
counters and the calibration cache all rewrite whole files.  They do it
through :func:`atomic_write`, so a reader sees either the old document or
the new one — never a torn write — even when the process is killed
mid-write or two writers race on the same path.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

__all__ = ["atomic_write"]


def atomic_write(path: str | Path, data: str | bytes) -> Path:
    """Replace ``path``'s contents with ``data`` (UTF-8 for ``str``).

    The bytes go to a uniquely named temporary file in the same
    directory, are flushed and fsynced, and the file is then renamed
    over ``path`` with :func:`os.replace` (atomic on POSIX and Windows).
    Unique names mean concurrent writers of one path never share a
    temporary file: the last rename wins and the result is always one
    complete document.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
    return path
