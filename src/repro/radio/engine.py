"""The broadcast entry points over the unified dissemination core.

Both round loops live in :mod:`repro.radio.dynamics`, shared with
gossip, multi-message and (serially) single-port dynamics.  What remains
here is the broadcast-shaped surface:

* :func:`run_broadcast` — one trial, healthy or under a fault plan
  (:class:`~repro.radio.dynamics.BroadcastDynamics` under
  :func:`~repro.radio.dynamics.run_dissemination`);
* :func:`run_broadcast_batch` — ``R`` healthy trials for Monte-Carlo
  sweeps (the same dynamics under the lockstep driver
  :func:`~repro.radio.dynamics.run_lockstep`);
* :class:`BatchResult` — the result surface every lockstep entry point
  shares, and :class:`BatchBroadcastResult`, its broadcast form.

``simulate_broadcast`` and ``simulate_broadcast_faulty`` are both thin
wrappers over :func:`run_broadcast`; the healthy simulator is the
zero-fault special case rather than a parallel code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._typing import BoolArray, FloatArray, IntArray, SeedLike
from ..graphs.bfs import bfs_distances  # noqa: F401 — kept for callers that patch it here
from .dynamics import (
    BroadcastDynamics,
    default_round_cap,
    run_dissemination,
    run_lockstep,
)
from .model import RadioNetwork
from .protocol import RadioProtocol
from .trace import BroadcastTrace

__all__ = [
    "default_round_cap",
    "run_broadcast",
    "run_broadcast_batch",
    "BatchResult",
    "BatchBroadcastResult",
]


def run_broadcast(
    network: RadioNetwork,
    protocol: RadioProtocol,
    source: int = 0,
    *,
    plan=None,
    p: float | None = None,
    seed: SeedLike = None,
    max_rounds: int | None = None,
    check_connected: bool = True,
    raise_on_incomplete: bool = True,
    obs=None,
) -> BroadcastTrace:
    """Run ``protocol`` on ``network`` under an optional fault plan.

    :class:`~repro.radio.dynamics.BroadcastDynamics` under
    :func:`~repro.radio.dynamics.run_dissemination`, whose keywords this
    shares.  Only informed nodes ever transmit (the driver intersects the
    protocol's mask with the informed set, and with the alive set under
    faults); ``source`` is the node initially holding the message and
    ``p`` the edge-probability parameter nodes are assumed to know
    (``None`` if unknown).

    Returns
    -------
    BroadcastTrace.  Under faults, ``trace.completed`` refers to the
    *eventually-alive* target set: nodes that crash and never recover are
    not part of the deliverable set.
    """
    return run_dissemination(
        network,
        BroadcastDynamics.build(network, protocol=protocol, source=source, p=p),
        plan=plan,
        seed=seed,
        max_rounds=max_rounds,
        check_connected=check_connected,
        raise_on_incomplete=raise_on_incomplete,
        obs=obs,
    )


class BatchResult:
    """Read-only surface shared by the lockstep driver's result types.

    :class:`BatchBroadcastResult` and
    :class:`~repro.gossip.batch.BatchGossipResult` share the serial
    traces' interface (``num_rounds``, ``completed``,
    ``total_transmissions``, ``total_collisions``, ``informed_curve()``)
    so sweep code can consume serial and batched runs interchangeably.
    Subclasses are frozen dataclasses naming their wire ``kind``, with at
    least these fields:

    n: network size.
    completion_rounds: shape ``(R,)``; trial ``r``'s completion round, or
        ``inf`` when it exhausted the round budget.
    num_rounds: lockstep rounds executed (the budget, or the round in
        which the last active trial completed).
    transmissions_per_round: shape ``(num_rounds,)`` transmitter counts
        summed over active trials, or ``None`` when stats were off.
    collisions_per_round: shape ``(num_rounds,)`` collided-listener
        counts summed over active trials, or ``None`` when stats were off.

    The per-round series exist only when the batch ran with
    ``with_stats=True`` or under an observer, since tracking them costs
    kernel work the Monte-Carlo fast path does not want.
    """

    kind = ""

    @property
    def repetitions(self) -> int:
        """Number of trials in the batch."""
        return int(self.completion_rounds.size)

    @property
    def completed(self) -> bool:
        """True iff *every* trial finished within the budget.

        This matches the serial traces' boolean ``completed``; the
        per-trial mask is :attr:`completed_mask`.
        """
        return bool(np.all(np.isfinite(self.completion_rounds)))

    @property
    def completed_mask(self) -> BoolArray:
        """Mask of trials that finished within the budget."""
        return np.isfinite(self.completion_rounds)

    @property
    def num_completed(self) -> int:
        """Number of trials that completed within the budget."""
        return int(np.count_nonzero(self.completed_mask))

    def _stats(self, what: str):
        value = getattr(self, what)
        if value is None:
            raise ValueError(
                f"{what} not recorded; rerun the batch with with_stats=True "
                "(or under an observer)"
            )
        return value

    @property
    def total_transmissions(self) -> int:
        """Transmitter-slot total over all rounds and trials (energy proxy).

        Requires the batch to have run with ``with_stats=True``.
        """
        return int(self._stats("transmissions_per_round").sum())

    @property
    def total_collisions(self) -> int:
        """Collided-listener total over all rounds and trials.

        Requires the batch to have run with ``with_stats=True``.
        """
        return int(self._stats("collisions_per_round").sum())

    def summary(self) -> dict:
        """Headline numbers for reports (mirrors the serial traces)."""
        return {
            "n": self.n,
            "repetitions": self.repetitions,
            "rounds": self.num_rounds,
            "completed": self.completed,
            "num_completed": self.num_completed,
        }

    def _document(self, **fields) -> dict:
        """The ``to_dict`` document: the common fields plus ``fields``.

        Non-finite completion rounds (budget misses) serialise as
        ``null`` — strict JSON has no ``Infinity`` — and ``from_dict``
        restores them; unrecorded stats series serialise as ``null``.
        """
        from ..schema import RESULT_SCHEMA_VERSION, encode_curve

        document = {
            "schema_version": RESULT_SCHEMA_VERSION,
            "kind": self.kind,
            "n": self.n,
            "num_rounds": self.num_rounds,
            "completion_rounds": encode_curve(self.completion_rounds),
            "transmissions_per_round": self.transmissions_per_round,
            "collisions_per_round": self.collisions_per_round,
            **fields,
        }
        return {
            key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in document.items()
        }

    @classmethod
    def _fields(cls, payload: dict) -> dict:
        """Constructor keywords for the common fields of a document."""
        from ..schema import check_schema_version, decode_curve

        check_schema_version(payload, what=cls.kind)
        return {
            "n": payload["n"],
            "num_rounds": payload["num_rounds"],
            "completion_rounds": decode_curve(payload["completion_rounds"]),
            "transmissions_per_round": cls._int_array(payload, "transmissions_per_round"),
            "collisions_per_round": cls._int_array(payload, "collisions_per_round"),
        }

    @staticmethod
    def _int_array(payload: dict, key: str) -> IntArray | None:
        value = payload.get(key)
        return None if value is None else np.array(value, dtype=np.int64)


@dataclass(frozen=True)
class BatchBroadcastResult(BatchResult):
    """Per-trial outcomes of a batched multi-trial broadcast run.

    Beyond the :class:`BatchResult` fields: ``source`` (shared by all
    trials); ``informed_fractions``, shape ``(R,)``, the final informed
    fraction per trial (1.0 for completed trials); and
    ``informed_totals``, shape ``(num_rounds + 1,)``, informed-node totals
    summed over *all* trials after each round (``[0]`` is the initial
    state), or ``None`` when stats were off.
    """

    kind = "batch-broadcast"

    source: int
    n: int
    completion_rounds: FloatArray
    informed_fractions: FloatArray
    num_rounds: int
    transmissions_per_round: IntArray | None = None
    collisions_per_round: IntArray | None = None
    informed_totals: IntArray | None = None

    def informed_curve(self) -> IntArray:
        """``curve[t]`` = informed nodes after round ``t``, summed over trials.

        ``curve[0]`` is the initial state (one source per trial).
        Requires the batch to have run with ``with_stats=True``.
        """
        return self._stats("informed_totals").copy()

    def summary(self) -> dict:
        """Headline numbers for reports (mirrors the serial traces)."""
        return {"source": self.source, **super().summary()}

    def to_dict(self) -> dict:
        """The batch result as a schema-versioned plain-JSON document."""
        return self._document(
            source=self.source,
            informed_fractions=[float(v) for v in self.informed_fractions],
            informed_totals=self.informed_totals,
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "BatchBroadcastResult":
        """Rebuild a batch result from its :meth:`to_dict` document."""
        return cls(
            source=payload["source"],
            informed_fractions=np.array(
                payload["informed_fractions"], dtype=np.float64
            ),
            informed_totals=cls._int_array(payload, "informed_totals"),
            **cls._fields(payload),
        )


def run_broadcast_batch(
    network: RadioNetwork,
    protocol: RadioProtocol,
    source: int = 0,
    *,
    repetitions: int,
    p: float | None = None,
    seed: SeedLike = None,
    max_rounds: int | None = None,
    check_connected: bool = True,
    with_stats: bool = False,
    obs=None,
) -> BatchBroadcastResult:
    """Run ``repetitions`` independent healthy trials in vectorized lockstep.

    :class:`~repro.radio.dynamics.BroadcastDynamics` under
    :func:`~repro.radio.dynamics.run_lockstep`: bit-for-bit equivalent to
    ``repetitions`` sequential :func:`run_broadcast` calls seeded with
    ``spawn_generators(seed, repetitions)``, at one batched count kernel
    per round.  No per-round traces or broadcast trees are kept; budget
    misses report ``inf`` completion rounds instead of raising.  The
    arguments are those of :func:`run_broadcast` and
    :func:`~repro.radio.dynamics.run_lockstep`.
    """
    run = run_lockstep(
        network,
        BroadcastDynamics(protocol, source, p),
        repetitions=repetitions,
        seed=seed,
        max_rounds=max_rounds,
        check_connected=check_connected,
        with_stats=with_stats,
        obs=obs,
    )
    return BatchBroadcastResult(
        source, network.n, run.completion_rounds, run.fractions, run.num_rounds,
        run.transmissions_per_round, run.collisions_per_round, run.complete_node_totals,
    )
