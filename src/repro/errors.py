"""Exception hierarchy for :mod:`repro`.

All library-specific failures derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause while
letting genuine programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "DisconnectedGraphError",
    "InvalidParameterError",
    "ScheduleError",
    "SimulationError",
    "BroadcastIncompleteError",
    "ExecutorError",
    "SweepTaskError",
    "FabricError",
    "CoordinatorHalted",
    "BackendError",
    "BackendUnavailableError",
    "ServeError",
    "JobQueueFullError",
    "JobCancelledError",
    "JobDeadlineError",
    "ServerDrainingError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class GraphError(ReproError):
    """A graph is structurally invalid for the requested operation."""


class DisconnectedGraphError(GraphError):
    """Raised when an operation requires a connected graph.

    Broadcasting can never complete on a disconnected graph, so the
    simulator refuses to run rather than looping to the round cap.
    """


class InvalidParameterError(ReproError, ValueError):
    """A numeric parameter is outside its valid domain (e.g. ``p > 1``)."""


class ScheduleError(ReproError):
    """A transmission schedule is malformed or violates model constraints."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent state."""


class BroadcastIncompleteError(SimulationError):
    """A broadcast did not complete within the allotted round budget.

    Carries the partial trace so callers can inspect how far the message
    got before the budget ran out.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class BackendError(ReproError):
    """A kernel backend failed to initialise or execute."""


class BackendUnavailableError(BackendError):
    """A registered kernel backend cannot run in this environment.

    Raised when a backend is selected *explicitly* (``set_backend``,
    ``simulate(backend=...)``, CLI ``--backend``) but its availability
    probe fails — numba not installed, say.  The
    implicit ``REPRO_BACKEND`` environment selection degrades to the
    numpy backend with a :class:`RuntimeWarning` instead of raising.
    """


class ServeError(ReproError):
    """The simulation job server could not accept or serve a request."""


class JobQueueFullError(ServeError):
    """The job manager's admission bound is exhausted.

    The worker bridge is deliberately bounded (``max_pending``): beyond
    it, new work is refused (HTTP 429) instead of queued without limit,
    so an overloaded server degrades by shedding load rather than by
    growing an unserviceable backlog.
    """


class JobCancelledError(ServeError):
    """A job's cooperative cancellation request took effect.

    Raised *inside* an executing job at a round/task boundary once
    ``DELETE /v1/jobs/{id}`` (or :meth:`JobManager.cancel`) has flagged
    it; the manager maps it to the ``cancelled`` terminal state rather
    than letting it escape to callers.
    """


class JobDeadlineError(ServeError):
    """A job exceeded its ``deadline_s`` budget.

    Raised inside the executing job at a round/task boundary; the
    manager maps it to the ``timeout`` terminal state and the worker
    slot is freed for the next job.
    """


class ServerDrainingError(ServeError):
    """The job manager is draining (or shut down) and admits no new work.

    HTTP surfaces map this to 503 with a ``Retry-After`` header: unlike
    the 429 of :class:`JobQueueFullError` (overload, retry soon), a
    drain means the process is going away — retry against its
    replacement.
    """


class ExecutorError(ReproError):
    """The supervised parallel executor could not complete a sweep."""


class SweepTaskError(ExecutorError):
    """A sweep task ended in a non-``ok`` terminal outcome.

    Raised by :meth:`~repro.experiments.supervisor.TaskOutcome.unwrap`
    when a task crashed its worker or exceeded its deadline — failure
    modes that leave no original exception to re-raise.  Carries the
    structured :class:`~repro.experiments.supervisor.TaskOutcome`.
    """

    def __init__(self, message: str, outcome=None):
        super().__init__(message)
        self.outcome = outcome


class FabricError(ExecutorError):
    """The multi-host sweep fabric could not run or complete a sweep."""


class CoordinatorHalted(FabricError):
    """The fabric coordinator stopped before the sweep finished.

    Raised by the ``halt_after`` chaos hook
    (:func:`~repro.experiments.fabric.run_fabric_sweep`), which
    simulates coordinator death mid-sweep: terminal outcomes up to the
    halt are already flushed to the sweep checkpoint, so a subsequent
    ``resume=True`` run proves restart recovery.  Carries how many
    terminal outcomes had been recorded.
    """

    def __init__(self, message: str, completed: int = 0):
        super().__init__(message)
        self.completed = completed
