"""The default pure-NumPy kernel backend: the scatter/matmul hybrid.

This is the code that historically lived inside
:class:`~repro.graphs.adjacency.Adjacency`, extracted verbatim so other
backends can slot in underneath the same dispatch sites.  It must stay
bit-for-bit: the golden-digest suites and the ``jobs=1 ≡ jobs=N ≡
fabric(N)`` byte-identity guarantees all run on this backend by default.

Two execution paths for the batched kernel, chosen by transmission
volume:

* **scatter** — when few nodes transmit (the common case for
  ``1/d``-selective protocol rounds), gather the transmitters' CSR rows
  and accumulate one :func:`numpy.bincount` over a flattened ``(R, n)``
  index space.  Work scales with the number of transmitting-node edge
  endpoints, not with ``nnz × R``.
* **matmul** — when transmitters are dense (flood rounds), one
  CSR×dense product traverses the structure once for all columns.  The
  bool→int64 cast goes through a cached scratch buffer on the adjacency
  (``_dense_buf``), so the hot path allocates only the output; an
  already-int64, already-C-contiguous input skips the cast entirely.

The crossover is governed by :attr:`NumpyBackend.scatter_cost` — the
estimated cost of one gathered scatter endpoint in units of one matmul
``nnz × R`` cell.  Historically a hard-coded 4; now calibrated once by
:meth:`NumpyBackend.calibrate` (a ~10 ms timing of both paths on a
synthetic circulant graph), overridable with the
``REPRO_SCATTER_COST`` environment variable.  The measured value is
**persisted** to ``~/.cache/repro/scatter_cost.json`` (override the
directory with ``REPRO_CACHE_DIR``) so fresh processes — every serve
worker, every fabric worker — skip the probe; the entry is keyed by
numpy version and re-measured when numpy changes.  Calibration affects
only *which* path runs — both paths return identical integer counts —
so it never perturbs trajectories or digests.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from time import perf_counter

import numpy as np

from .._atomic import atomic_write
from .base import KernelBackend, register_backend

__all__ = ["NumpyBackend"]

#: Fallback crossover constant (the historical hard-coded value), used
#: when calibration is disabled or fails to produce a sane measurement.
_DEFAULT_SCATTER_COST = 4.0

#: Calibration results are clamped into this range: a pathological
#: timing environment must not be able to force one path forever.
_SCATTER_COST_BOUNDS = (1.0, 32.0)

#: Environment override for the on-disk calibration cache directory.
_CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_CALIBRATION_FILENAME = "scatter_cost.json"


def _calibration_cache_path() -> Path:
    root = os.environ.get(_CACHE_DIR_ENV)
    base = Path(root) if root else Path.home() / ".cache" / "repro"
    return base / _CALIBRATION_FILENAME


def _load_calibration() -> float | None:
    """The persisted crossover, or ``None`` when absent/stale/corrupt.

    An entry written under a different numpy version is stale — the
    relative cost of bincount vs CSR matmat shifts across releases —
    and is ignored, forcing a fresh measurement.
    """
    try:
        payload = json.loads(_calibration_cache_path().read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or payload.get("numpy") != np.__version__:
        return None
    cost = payload.get("scatter_cost")
    if isinstance(cost, bool) or not isinstance(cost, (int, float)):
        return None
    lo, hi = _SCATTER_COST_BOUNDS
    return min(max(float(cost), lo), hi)


def _store_calibration(cost: float) -> None:
    """Best-effort persist (atomic replace); the cache is an
    optimisation, so an unwritable directory never fails calibration."""
    path = _calibration_cache_path()
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(path, json.dumps({"numpy": np.__version__, "scatter_cost": cost}) + "\n")
    except OSError:
        pass


def _calibration_graph():
    """A deterministic circulant CSR graph for path timing.

    Built directly in CSR form (no library RNG streams touched): every
    node connects to its 8 nearest neighbours on each side of a ring,
    so degree 16 ≈ the ``2 ln n`` of the G(n, p) workloads the kernels
    actually run on.  n = 4096 keeps both paths long enough to time but
    the whole calibration ~10 ms.
    """
    from ..graphs.adjacency import Adjacency

    n, half = 4096, 8
    offsets = np.concatenate([np.arange(-half, 0), np.arange(1, half + 1)])
    neigh = np.sort((np.arange(n)[:, None] + offsets) % n, axis=1)
    indptr = np.arange(0, n * 2 * half + 1, 2 * half, dtype=np.int64)
    return Adjacency(indptr, neigh.ravel().astype(np.int64), validate=False)


class NumpyBackend(KernelBackend):
    """Scatter/matmul hybrid over scipy CSR — always available."""

    name = "numpy"

    @classmethod
    def probe(cls):
        from .base import BackendProbe

        detail = f"numpy {np.__version__}, scipy CSR matmul (always available)"
        return BackendProbe(cls.name, True, np.__version__, detail)

    def __init__(self) -> None:
        super().__init__()
        self._scatter_cost: float | None = None

    @property
    def scatter_cost(self) -> float:
        """The scatter/matmul crossover constant (calibrating lazily)."""
        if self._scatter_cost is None:
            self.calibrate()
        return self._scatter_cost

    def calibrate(self, *, force: bool = False) -> float:
        """One-shot calibration of :attr:`scatter_cost`.

        ``REPRO_SCATTER_COST`` (a float) skips the measurement; else a
        persisted measurement from a previous process is reused when
        its numpy version still matches; else both paths are timed on a
        synthetic graph at a sparse transmitter density, the per-unit
        cost ratio is taken, clamped into ``[1, 32]``, and persisted
        for the next process.  ``force=True`` re-measures (and
        refreshes the persisted entry).
        """
        if self._scatter_cost is not None and not force:
            return self._scatter_cost
        env = os.environ.get("REPRO_SCATTER_COST")
        if env:
            try:
                cost = float(env)
            except ValueError:
                cost = _DEFAULT_SCATTER_COST
            lo, hi = _SCATTER_COST_BOUNDS
            self._scatter_cost = min(max(cost, lo), hi)
            return self._scatter_cost
        if not force:
            cached = _load_calibration()
            if cached is not None:
                self._scatter_cost = cached
                return cached
        self._scatter_cost = self._measure_scatter_cost()
        _store_calibration(self._scatter_cost)
        return self._scatter_cost

    def _measure_scatter_cost(self) -> float:
        adj = _calibration_graph()
        n, reps = adj.n, 32
        adj.matrix()  # exclude one-off CSR construction from the timing
        # Measure near the expected crossover (~6% transmitter density,
        # which is also the ~1/d transmit rate of the protocols): the
        # scatter path's fixed per-call overhead (flatnonzero, divmod,
        # cumsum scale with n·R, not with work) would be misattributed
        # to per-endpoint cost at sparse densities, underestimating the
        # constant exactly where the decision is made.
        rng = np.random.default_rng(0)
        masks = rng.random((n, reps)) < 0.06
        work = int(adj.degrees[np.flatnonzero(masks) // reps].sum())
        cells = adj.indices.size * reps
        if work == 0:  # degenerate draw; keep the historical constant
            return _DEFAULT_SCATTER_COST
        t_scatter = min(
            self._time(lambda: self._scatter_from_masks(adj, masks)) for _ in range(3)
        )
        t_matmul = min(
            self._time(lambda: self._matmul(adj, masks)) for _ in range(3)
        )
        per_endpoint = t_scatter / work
        per_cell = t_matmul / cells
        if per_cell <= 0.0 or per_endpoint <= 0.0:
            return _DEFAULT_SCATTER_COST
        lo, hi = _SCATTER_COST_BOUNDS
        return min(max(per_endpoint / per_cell, lo), hi)

    @staticmethod
    def _time(fn) -> float:
        t0 = perf_counter()
        fn()
        return perf_counter() - t0

    # -- kernels --------------------------------------------------------

    def _neighbor_counts(self, adj, mask: np.ndarray) -> np.ndarray:
        # The bool→int cast goes through the adjacency's cached scratch
        # buffer, so the hot matvec allocates only its output.
        if adj._mask_buf is None:
            adj._mask_buf = np.empty(adj.n, dtype=np.int64)
        np.copyto(adj._mask_buf, mask, casting="unsafe")
        return adj.matrix().dot(adj._mask_buf)

    def _neighbor_counts_batch(self, adj, masks: np.ndarray) -> np.ndarray:
        n, reps = masks.shape
        # Work in whichever orientation is contiguous: the batch engine
        # keeps trial-major (R, n) state and hands us its transpose, and a
        # single flatnonzero over the contiguous base beats a strided 2-D
        # nonzero by ~3x.  The returned counts inherit the input's layout,
        # so downstream elementwise ops stay contiguous either way.
        trial_major = masks.T.flags.c_contiguous and not masks.flags.c_contiguous
        base = masks.T if trial_major else np.ascontiguousarray(masks)
        flat_in = np.flatnonzero(base)
        if trial_major:
            col, node = np.divmod(flat_in, n)
        else:
            node, col = np.divmod(flat_in, reps)
        lengths = adj.degrees[node]
        cumlen = np.cumsum(lengths)
        work = int(cumlen[-1]) if lengths.size else 0
        if work * self.scatter_cost >= adj.indices.size * reps:
            self._last_path = "matmul"
            return self._matmul(adj, masks)
        self._last_path = "scatter"
        if work == 0:
            return np.zeros((n, reps), dtype=np.int64)
        if adj._gather_arange is None or adj._gather_arange.size < work:
            adj._gather_arange = np.arange(work, dtype=np.int64)
        starts = adj.indptr[node]
        offsets = np.repeat(starts - (cumlen - lengths), lengths)
        neighbours = adj.indices[offsets + adj._gather_arange[:work]]
        if trial_major:
            flat_out = np.repeat(col * np.int64(n), lengths) + neighbours
            counts = np.bincount(flat_out, minlength=n * reps)
            return counts.reshape(reps, n).T
        flat_out = neighbours * np.int64(reps) + np.repeat(col, lengths)
        counts = np.bincount(flat_out, minlength=n * reps)
        return counts.reshape(n, reps)

    def _matmul(self, adj, masks: np.ndarray) -> np.ndarray:
        """Dense-transmitter path: one CSR×dense product for all columns.

        scipy's CSR matmat wants a C-contiguous ``(n, R)`` operand; the
        cast (and re-layout, for the batch engine's trial-major
        transposes) lands in one cached scratch buffer instead of a
        fresh per-round allocation.  Already-conforming int64 input is
        used as-is.
        """
        if masks.dtype == np.int64 and masks.flags.c_contiguous:
            return adj.matrix().dot(masks)
        need = masks.size
        buf = adj._dense_buf
        if buf is None or buf.size < need:
            buf = adj._dense_buf = np.empty(need, dtype=np.int64)
        dense = buf[:need].reshape(masks.shape)
        np.copyto(dense, masks, casting="unsafe")
        return adj.matrix().dot(dense)

    def _scatter_from_masks(self, adj, masks: np.ndarray) -> np.ndarray:
        """Scatter path from raw masks (calibration/tests entry point)."""
        n, reps = masks.shape
        base = np.ascontiguousarray(masks)
        flat_in = np.flatnonzero(base)
        node, col = np.divmod(flat_in, reps)
        lengths = adj.degrees[node]
        cumlen = np.cumsum(lengths)
        work = int(cumlen[-1]) if lengths.size else 0
        if work == 0:
            return np.zeros((n, reps), dtype=np.int64)
        if adj._gather_arange is None or adj._gather_arange.size < work:
            adj._gather_arange = np.arange(work, dtype=np.int64)
        starts = adj.indptr[node]
        offsets = np.repeat(starts - (cumlen - lengths), lengths)
        neighbours = adj.indices[offsets + adj._gather_arange[:work]]
        flat_out = neighbours * np.int64(reps) + np.repeat(col, lengths)
        return np.bincount(flat_out, minlength=n * reps).reshape(n, reps)


register_backend(NumpyBackend)
