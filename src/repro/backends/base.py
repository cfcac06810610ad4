"""Kernel-backend protocol and the process-wide backend registry.

The hot kernels of the simulator — the serial and batched
"count transmitting neighbours" operations under every radio round —
are pluggable.  A :class:`KernelBackend` supplies both kernels over a
CSR :class:`~repro.graphs.adjacency.Adjacency`; the registry owns one
lazily-constructed instance per implementation and a process-wide
*active* backend the dispatch sites (``Adjacency.neighbor_counts`` /
``neighbor_counts_batch``) consult on every call.

Selection, in precedence order:

1. an explicit :func:`set_backend` / :func:`use_backend` (what
   ``repro.simulate(..., backend=...)`` and the CLI ``--backend`` flag
   call);
2. the ``REPRO_BACKEND`` environment variable — inherited by spawned
   sweep workers, so ``--jobs``/``--fabric`` runs keep one backend
   fleet-wide;
3. the default ``numpy`` backend.

An explicit selection of an unavailable backend raises
:class:`~repro.errors.BackendUnavailableError`; the environment path
degrades to numpy with a :class:`RuntimeWarning` so a mis-set variable
cannot take down an import or a test run.

**The determinism contract.**  Every backend must return *identical
integer counts* for identical inputs — the count of transmitting
neighbours is a sum of 0/1 terms, exact in any arithmetic order — so
switching backends never changes a trajectory: the RNG draws are a
function of the counts, and the counts are backend-invariant.  The
cross-backend parity tests (``tests/backends/test_parity.py``) and the
golden-digest suites pin this.

Observability: when an observer is ambient
(:func:`~repro.obs.current_observer`), every batched kernel call
records a ``kernel.batch_calls`` counter labelled
``<backend>:<path>`` (the dispatch decision) and a
``kernel.batch_wall_s`` histogram labelled ``<backend>``.  With no
observer the cost is one context-variable read per batched call.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..errors import BackendUnavailableError, InvalidParameterError
from ..obs import current_observer

__all__ = [
    "BackendProbe",
    "KernelBackend",
    "register_backend",
    "backend_names",
    "probe_backends",
    "available_backend_names",
    "get_backend",
    "set_backend",
    "use_backend",
    "current_backend_name",
    "DEFAULT_BACKEND",
    "BACKEND_ENV_VAR",
]

#: Name of the always-available default backend.
DEFAULT_BACKEND = "numpy"

#: Environment variable consulted when no backend was set explicitly.
BACKEND_ENV_VAR = "REPRO_BACKEND"


@dataclass(frozen=True)
class BackendProbe:
    """Result of one backend's availability probe.

    Attributes
    ----------
    name: registry name of the backend.
    available: whether the backend can run in this environment.
    version: version string of the accelerator package (``None`` when
        unavailable or not applicable).
    detail: one-line human-readable status ("numba 0.59.0, 8 threads",
        "numba not installed", ...).
    """

    name: str
    available: bool
    version: str | None
    detail: str


class KernelBackend:
    """One implementation of the serial and batched round kernels.

    Subclasses set :attr:`name`, implement :meth:`_neighbor_counts` /
    :meth:`_neighbor_counts_batch` (shape validation is done by the
    dispatch site, :class:`~repro.graphs.adjacency.Adjacency`), and
    override :meth:`probe` when availability is conditional.  The public
    wrappers add the ``kernel.*`` metric emission; ``_last_path`` names
    the execution strategy the previous batched call chose (for the
    dispatch-decision label).
    """

    #: Registry name; subclasses must override.
    name: str = "abstract"

    def __init__(self) -> None:
        self._last_path: str = self.name

    # -- availability ---------------------------------------------------

    @classmethod
    def probe(cls) -> BackendProbe:
        """Availability/version probe; default: always available."""
        return BackendProbe(cls.name, True, None, "always available")

    # -- calibration ----------------------------------------------------

    def calibrate(self, *, force: bool = False) -> float | None:
        """One-shot runtime calibration of backend-specific constants.

        Returns the calibrated scatter/matmul crossover cost for
        backends that have one (the numpy backend), ``None`` otherwise.
        Idempotent unless ``force=True``.
        """
        return None

    # -- kernels --------------------------------------------------------

    def neighbor_counts(self, adj, mask: np.ndarray) -> np.ndarray:
        """Serial round kernel: neighbour counts for one ``(n,)`` mask."""
        return self._neighbor_counts(adj, mask)

    def neighbor_counts_batch(self, adj, masks: np.ndarray) -> np.ndarray:
        """Batched round kernel: counts for ``(n, R)`` masks at once.

        Emits ``kernel.batch_calls`` / ``kernel.batch_wall_s`` metrics
        when an observer is ambient; otherwise delegates directly.
        """
        obs = current_observer()
        if obs is None or not obs.active:
            return self._neighbor_counts_batch(adj, masks)
        t0 = perf_counter()
        counts = self._neighbor_counts_batch(adj, masks)
        obs.observe("kernel.batch_wall_s", perf_counter() - t0, label=self.name)
        obs.inc("kernel.batch_calls", 1, label=f"{self.name}:{self._last_path}")
        return counts

    def _neighbor_counts(self, adj, mask: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _neighbor_counts_batch(self, adj, masks: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


# ----------------------------------------------------------------------
# Registry and process-wide selection
# ----------------------------------------------------------------------

_REGISTRY: dict[str, type[KernelBackend]] = {}
_INSTANCES: dict[str, KernelBackend] = {}


class _State:
    """Process-wide selection: explicit choice, plus env-resolution cache."""

    __slots__ = ("active", "env_seen", "env_resolved")

    def __init__(self) -> None:
        self.active: KernelBackend | None = None
        self.env_seen: str | None = None
        self.env_resolved: KernelBackend | None = None


_STATE = _State()


def register_backend(cls: type[KernelBackend]) -> type[KernelBackend]:
    """Register a :class:`KernelBackend` subclass under its ``name``.

    Usable as a class decorator.  Re-registering a name replaces the
    previous implementation (and drops its cached instance), which is
    what tests use to inject doubles.
    """
    if not cls.name or cls.name == "abstract":
        raise InvalidParameterError("backend class must set a concrete name")
    _REGISTRY[cls.name] = cls
    _INSTANCES.pop(cls.name, None)
    return cls


def backend_names() -> list[str]:
    """All registered backend names, default first, rest alphabetical."""
    rest = sorted(name for name in _REGISTRY if name != DEFAULT_BACKEND)
    return ([DEFAULT_BACKEND] if DEFAULT_BACKEND in _REGISTRY else []) + rest


def probe_backends() -> list[BackendProbe]:
    """Availability/version probe of every registered backend."""
    return [_REGISTRY[name].probe() for name in backend_names()]


def available_backend_names() -> list[str]:
    """Names of the registered backends whose probe succeeds."""
    return [probe.name for probe in probe_backends() if probe.available]


def _instance(name: str) -> KernelBackend:
    try:
        cls = _REGISTRY[name]
    except KeyError:
        known = ", ".join(backend_names())
        raise InvalidParameterError(
            f"unknown kernel backend {name!r}; registered backends: {known}"
        ) from None
    if name not in _INSTANCES:
        _INSTANCES[name] = cls()
    return _INSTANCES[name]


def _checked_instance(name: str) -> KernelBackend:
    """Instance for an *explicitly* selected backend; probe must pass."""
    probe = _REGISTRY[name].probe() if name in _REGISTRY else None
    if probe is None:
        return _instance(name)  # raises InvalidParameterError with the list
    if not probe.available:
        raise BackendUnavailableError(
            f"kernel backend {name!r} is not available here: {probe.detail}"
        )
    return _instance(name)


def set_backend(backend: str | KernelBackend | None) -> KernelBackend | None:
    """Select the process-wide kernel backend.

    ``backend`` is a registry name, an already-constructed
    :class:`KernelBackend`, or ``None`` to clear the explicit selection
    and fall back to ``REPRO_BACKEND`` / the numpy default.  Selecting
    an unavailable backend raises
    :class:`~repro.errors.BackendUnavailableError`; an unknown name
    raises :class:`~repro.errors.InvalidParameterError`.  Returns the
    newly active backend (``None`` when clearing).
    """
    if backend is None:
        _STATE.active = None
        return None
    if isinstance(backend, KernelBackend):
        _STATE.active = backend
        return backend
    _STATE.active = _checked_instance(backend)
    return _STATE.active


def get_backend() -> KernelBackend:
    """The active kernel backend the dispatch sites should use.

    Explicit selection wins; otherwise ``REPRO_BACKEND`` is resolved
    (cached until the variable changes), degrading to numpy with a
    :class:`RuntimeWarning` when it names an unknown or unavailable
    backend; otherwise the numpy default.
    """
    if _STATE.active is not None:
        return _STATE.active
    env = os.environ.get(BACKEND_ENV_VAR)
    if not env:
        return _instance(DEFAULT_BACKEND)
    if env == _STATE.env_seen and _STATE.env_resolved is not None:
        return _STATE.env_resolved
    try:
        resolved = _checked_instance(env)
    except (InvalidParameterError, BackendUnavailableError) as exc:
        warnings.warn(
            f"{BACKEND_ENV_VAR}={env!r} cannot be used ({exc}); "
            f"falling back to the {DEFAULT_BACKEND!r} backend",
            RuntimeWarning,
            stacklevel=2,
        )
        resolved = _instance(DEFAULT_BACKEND)
    _STATE.env_seen = env
    _STATE.env_resolved = resolved
    return resolved


def current_backend_name() -> str:
    """Name of the backend :func:`get_backend` would return."""
    return get_backend().name


@contextmanager
def use_backend(backend: str | KernelBackend | None):
    """Install ``backend`` as the process-wide backend for a scope.

    Restores the previous explicit selection on exit.  ``None`` clears
    the explicit selection inside the scope (env/default resolution
    applies).  Yields the active :class:`KernelBackend` (or ``None``).
    """
    previous = _STATE.active
    selected = set_backend(backend)
    try:
        yield selected
    finally:
        _STATE.active = previous
