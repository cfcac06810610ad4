"""Broadcast simulation driver.

:func:`simulate_broadcast` runs a distributed protocol round by round until
every node is informed or a round budget is exhausted.  The budget guards
against protocols that stall (e.g. badly tuned transmit probabilities) —
exceeding it raises :class:`~repro.errors.BroadcastIncompleteError` carrying
the partial trace.

The round loop itself is :func:`repro.radio.dynamics.run_dissemination`;
this function is the zero-fault special case of
:func:`~repro.radio.engine.run_broadcast` (``simulate_broadcast_faulty``
in :mod:`repro.faults` is the same driver with a fault plan attached).
"""

from __future__ import annotations

import numpy as np

from .._typing import IntArray, SeedLike
from .engine import default_round_cap, run_broadcast
from .model import RadioNetwork
from .protocol import RadioProtocol
from .trace import BroadcastTrace

__all__ = [
    "default_round_cap",
    "simulate_broadcast",
    "broadcast_time",
    "repeat_broadcast",
]


def simulate_broadcast(
    network: RadioNetwork,
    protocol: RadioProtocol,
    source: int = 0,
    *,
    p: float | None = None,
    seed: SeedLike = None,
    max_rounds: int | None = None,
    check_connected: bool = True,
    raise_on_incomplete: bool = True,
) -> BroadcastTrace:
    """Run ``protocol`` on ``network`` until broadcast completes.

    Parameters
    ----------
    network: the radio network.
    protocol: a distributed protocol; only informed nodes ever transmit
        (the simulator intersects the protocol's mask with the informed
        set).
    source: the node initially holding the message.
    p: the edge-probability parameter nodes are assumed to know (passed
        to :meth:`RadioProtocol.prepare`); ``None`` if unknown.
    seed: RNG seed or generator for the protocol's coin flips.
    max_rounds: round budget; defaults to :func:`default_round_cap`.
    check_connected: verify reachability up front and raise
        :class:`DisconnectedGraphError` instead of burning the budget.
    raise_on_incomplete: raise on a budget miss (default); ``False``
        returns the partial trace instead.

    Returns
    -------
    BroadcastTrace with ``completed == True``.

    Raises
    ------
    BroadcastIncompleteError
        If the budget is exhausted first (partial trace attached).
    """
    return run_broadcast(
        network,
        protocol,
        source,
        plan=None,
        p=p,
        seed=seed,
        max_rounds=max_rounds,
        check_connected=check_connected,
        raise_on_incomplete=raise_on_incomplete,
    )


def broadcast_time(
    network: RadioNetwork,
    protocol: RadioProtocol,
    source: int = 0,
    **kwargs,
) -> int:
    """Rounds until completion (see :func:`simulate_broadcast`)."""
    return simulate_broadcast(network, protocol, source, **kwargs).completion_round


def _repeat_worker(args) -> int:
    """Top-level worker for process-parallel repetitions (must pickle)."""
    network, protocol, source, p, child_seed, max_rounds = args
    return broadcast_time(
        network,
        protocol,
        source,
        p=p,
        seed=np.random.default_rng(child_seed),
        max_rounds=max_rounds,
    )


def repeat_broadcast(
    network: RadioNetwork,
    protocol: RadioProtocol,
    *,
    repetitions: int,
    source: int = 0,
    p: float | None = None,
    seed: SeedLike = None,
    max_rounds: int | None = None,
    n_jobs: int = 1,
) -> IntArray:
    """Broadcast times over ``repetitions`` independent runs.

    Each run gets an independent child RNG stream derived from ``seed``,
    so results are identical whatever ``n_jobs`` is; ``n_jobs > 1`` runs
    the repetitions in a process pool (each worker re-derives its own
    stream — useful for the long full-mode sweeps).
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    from ..rng import spawn_seeds

    child_seeds = spawn_seeds(seed, repetitions)
    if n_jobs == 1:
        times = np.empty(repetitions, dtype=np.int64)
        for i, child in enumerate(child_seeds):
            times[i] = broadcast_time(
                network,
                protocol,
                source,
                p=p,
                seed=np.random.default_rng(child),
                max_rounds=max_rounds,
            )
        return times
    from concurrent.futures import ProcessPoolExecutor

    args = [
        (network, protocol, source, p, child, max_rounds)
        for child in child_seeds
    ]
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        times = list(pool.map(_repeat_worker, args))
    return np.array(times, dtype=np.int64)
