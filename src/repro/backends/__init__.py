"""Pluggable kernel backends for the hot radio-round kernels.

One :class:`KernelBackend` implements the serial and batched
"count transmitting neighbours" kernels every simulation runs on;
:class:`~repro.graphs.adjacency.Adjacency` dispatches both through the
process-wide registry here.  Two implementations ship:

* ``numpy`` (default, always available) — the scatter/matmul hybrid,
  bit-for-bit the historical in-``Adjacency`` code;
* ``numba`` — a compiled CSR gather-scatter loop, ``prange``-parallel
  over trials, lazily JIT'd; available when numba is installed.

Select with :func:`set_backend` / :func:`use_backend`,
``repro.simulate(..., backend=...)``, CLI ``--backend``, or the
``REPRO_BACKEND`` environment variable.  All backends return identical
integer counts (the determinism contract — see :mod:`.base`), so the
choice affects throughput only, never results.  ``repro backends``
lists the registry with availability probes; docs/PERFORMANCE.md has
the selection/calibration/crossover story.
"""

from .base import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    BackendProbe,
    KernelBackend,
    available_backend_names,
    backend_names,
    current_backend_name,
    get_backend,
    probe_backends,
    register_backend,
    set_backend,
    use_backend,
)

# Importing the implementation modules registers them.
from . import numba_backend, numpy_backend  # noqa: E402,F401
from .numba_backend import NumbaBackend
from .numpy_backend import NumpyBackend

__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "BackendProbe",
    "KernelBackend",
    "NumpyBackend",
    "NumbaBackend",
    "available_backend_names",
    "backend_names",
    "current_backend_name",
    "get_backend",
    "probe_backends",
    "register_backend",
    "set_backend",
    "use_backend",
]
