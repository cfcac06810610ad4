"""The unified simulation front door: one ``simulate()`` for every process.

Every round-based process in the package — broadcast, gossip, k-token
multi-message, single-port push / push–pull, agent-based spreading —
already runs on the shared driver
(:func:`repro.radio.dynamics.run_dissemination`) through a registered
:class:`~repro.radio.dynamics.Dynamics` class.  :func:`simulate` exposes
that registry as a single entry point::

    >>> import repro
    >>> trace = repro.simulate("broadcast", {"n": 200, "p": 0.1, "seed": 1},
    ...                        protocol=repro.UniformProtocol(0.05), seed=2)
    >>> trace.completed
    True

The legacy entry points (``simulate_broadcast``, ``simulate_gossip``,
``simulate_multimessage``, ``push_broadcast``, ``agent_broadcast``)
remain supported; each dynamics' ``build`` classmethod applies the same
keyword surface and validation, so ``simulate(name, network, **kwargs)``
reproduces the corresponding legacy call bit for bit.

All results satisfy the :class:`SimulationResult` protocol — the shared
read-only interface (``num_rounds``, ``completed``,
``total_transmissions``, ``total_collisions``, ``informed_curve()``)
implemented by :class:`~repro.radio.trace.BroadcastTrace`,
:class:`~repro.gossip.trace.GossipTrace` and the batched result types.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Protocol, runtime_checkable

from ._typing import SeedLike
from .backends import KernelBackend, use_backend
from .errors import InvalidParameterError
from .graphs.adjacency import Adjacency
from .graphs.random_graphs import gnp_connected
from .obs import use_observer
from .radio.dynamics import DYNAMICS_REGISTRY, Dynamics, run_dissemination
from .radio.model import RadioNetwork

__all__ = ["simulate", "SimulationResult", "available_dynamics"]


@runtime_checkable
class SimulationResult(Protocol):
    """Read-only interface shared by every simulation result type.

    Implemented by :class:`~repro.radio.trace.BroadcastTrace`,
    :class:`~repro.gossip.trace.GossipTrace`,
    :class:`~repro.radio.engine.BatchBroadcastResult` and
    :class:`~repro.gossip.batch.BatchGossipResult`.  The batched types
    record the per-round aggregates behind ``total_transmissions`` /
    ``total_collisions`` / ``informed_curve()`` only when run with
    ``with_stats=True`` (or under an observer) and raise
    :class:`ValueError` otherwise.
    """

    @property
    def num_rounds(self) -> int:
        """Rounds executed (whether or not the process completed)."""
        ...

    @property
    def completed(self) -> bool:
        """True iff the process delivered everything it had to."""
        ...

    @property
    def total_transmissions(self) -> int:
        """Transmitter-slot total over all rounds (energy proxy)."""
        ...

    @property
    def total_collisions(self) -> int:
        """Collided-listener total over all rounds."""
        ...

    def informed_curve(self):
        """Per-round progress curve (``curve[0]`` is the initial state)."""
        ...


def _populate_registry() -> None:
    """Import every module that registers dynamics (idempotent)."""
    from . import gossip, singleport  # noqa: F401


def available_dynamics() -> dict[str, str]:
    """Registered process names mapped to their one-line summaries."""
    _populate_registry()
    return {
        name: cls.summary for name, cls in sorted(DYNAMICS_REGISTRY.items())
    }


def _as_network(graph_or_params) -> RadioNetwork:
    """Normalise ``simulate``'s graph argument to a :class:`RadioNetwork`.

    Accepts a ready network, an :class:`~repro.graphs.adjacency.Adjacency`
    (wrapped as-is), or a parameter mapping ``{"n": ..., "p": ...,
    "seed": ...}`` sampled as a connected ``G(n, p)`` — the paper's
    ambient graph model.
    """
    if isinstance(graph_or_params, RadioNetwork):
        return graph_or_params
    if isinstance(graph_or_params, Adjacency):
        return RadioNetwork(graph_or_params)
    if isinstance(graph_or_params, dict):
        params = dict(graph_or_params)
        missing = [key for key in ("n", "p") if key not in params]
        if missing:
            raise InvalidParameterError(
                f"graph parameter mapping is missing {missing}; "
                "expected {'n': ..., 'p': ..., 'seed': ...}"
            )
        n = params.pop("n")
        p = params.pop("p")
        graph_seed = params.pop("seed", None)
        if params:
            raise InvalidParameterError(
                f"unknown graph parameters {sorted(params)}"
            )
        return RadioNetwork(gnp_connected(n, p, seed=graph_seed))
    raise InvalidParameterError(
        "graph_or_params must be a RadioNetwork, an Adjacency, or a "
        f"{{'n', 'p'[, 'seed']}} mapping, got {type(graph_or_params).__name__}"
    )


def _resolve_dynamics(process, network: RadioNetwork, kwargs) -> Dynamics:
    """Turn ``simulate``'s ``process`` argument into a dynamics instance."""
    if isinstance(process, Dynamics):
        if kwargs:
            raise InvalidParameterError(
                "process-specific keywords cannot be combined with an "
                f"already-constructed dynamics instance: {sorted(kwargs)}"
            )
        return process
    if isinstance(process, type) and issubclass(process, Dynamics):
        return process.build(network, **kwargs)
    if isinstance(process, str):
        _populate_registry()
        try:
            cls = DYNAMICS_REGISTRY[process]
        except KeyError:
            known = ", ".join(sorted(DYNAMICS_REGISTRY))
            raise InvalidParameterError(
                f"unknown process {process!r}; registered dynamics: {known}"
            ) from None
        return cls.build(network, **kwargs)
    raise InvalidParameterError(
        "process must be a registered name, a Dynamics subclass, or a "
        f"Dynamics instance, got {type(process).__name__}"
    )


def simulate(
    process,
    graph_or_params,
    *,
    faults=None,
    obs=None,
    seed: SeedLike = None,
    max_rounds: int | None = None,
    check_connected: bool = True,
    raise_on_incomplete: bool = True,
    backend: str | KernelBackend | None = None,
    **kwargs,
) -> SimulationResult:
    """Run one registered dissemination process and return its trace.

    Parameters
    ----------
    process: registry name (``"broadcast"``, ``"gossip"``,
        ``"multimessage"``, ``"push"``, ``"push-pull"``, ``"agents"``), a
        :class:`~repro.radio.dynamics.Dynamics` subclass, or an
        already-constructed dynamics instance.
    graph_or_params: a :class:`~repro.radio.model.RadioNetwork`, an
        :class:`~repro.graphs.adjacency.Adjacency`, or a ``{"n": ...,
        "p": ..., "seed": ...}`` mapping sampled as a connected
        ``G(n, p)``.
    faults: optional :class:`~repro.faults.FaultPlan`; accepted only by
        fault-capable dynamics (broadcast, gossip, multimessage).
    obs: optional :class:`~repro.obs.Observer`; installed as the ambient
        observer for the run, so nested engines see it too.  ``None``
        falls back to whatever observer is already ambient.
    seed: RNG seed or generator for the run's coin flips.
    max_rounds: round budget; default is the dynamics' own cap.
    check_connected: verify reachability up front.
    raise_on_incomplete: raise on a budget miss (default) or return the
        partial trace.
    backend: optional kernel backend for the run — a registered name
        (``"numpy"``, ``"numba"``) or a
        :class:`~repro.backends.KernelBackend` instance, installed for
        the duration of the call via
        :func:`~repro.backends.use_backend`.  ``None`` keeps the
        ambient selection (``REPRO_BACKEND`` or the numpy default).
        All backends return identical integer counts, so this affects
        throughput only, never the trace.
    **kwargs: process-specific keywords, exactly the legacy entry point's
        surface — ``protocol``/``source``/``p`` for broadcast,
        ``protocol``/``p`` for gossip, ``protocol``/``sources``/``p`` for
        multimessage, ``source`` for push / push-pull,
        ``num_agents``/``source``/``agents_start_at_source`` for agents.

    Returns
    -------
    The dynamics' trace type (a :class:`SimulationResult`): a
    :class:`~repro.radio.trace.BroadcastTrace` for single-message
    processes, a :class:`~repro.gossip.trace.GossipTrace` for
    knowledge-matrix processes.  Identical, for equal arguments and
    seeds, to the corresponding legacy entry point's return value.
    """
    network = _as_network(graph_or_params)
    dynamics = _resolve_dynamics(process, network, kwargs)
    # nullcontext when no backend was asked for: ``use_backend(None)``
    # would *clear* an ambient explicit selection, not keep it.
    scope = use_backend(backend) if backend is not None else nullcontext()
    with scope:
        if obs is None:
            return run_dissemination(
                network,
                dynamics,
                plan=faults,
                seed=seed,
                max_rounds=max_rounds,
                check_connected=check_connected,
                raise_on_incomplete=raise_on_incomplete,
            )
        with use_observer(obs):
            return run_dissemination(
                network,
                dynamics,
                plan=faults,
                seed=seed,
                max_rounds=max_rounds,
                check_connected=check_connected,
                raise_on_incomplete=raise_on_incomplete,
                obs=obs,
            )
