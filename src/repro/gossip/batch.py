"""Batched multi-trial gossip and k-token dissemination.

:func:`run_gossip_batch` and :func:`run_multimessage_batch` are thin
builders over the one lockstep driver,
:func:`repro.radio.dynamics.run_lockstep`, which also runs
:func:`~repro.radio.engine.run_broadcast_batch`: ``R`` independent
fault-free trials advance in vectorized lockstep, one batched count
kernel per round (:meth:`RadioNetwork.step_batch` with informer
extraction) instead of one sparse matvec per trial.  The knowledge
dynamics supply only their trial-major state; knowledge merging stays
per-trial (a row-gather OR over each trial's receivers) — the batchable
cost is the channel, and that is where the serial path spends its time.

Bit-for-bit equivalence: trial ``r`` consumes exactly the RNG draws its
serial :func:`~repro.gossip.simulator.simulate_gossip` /
:func:`~repro.gossip.multimessage.simulate_multimessage` counterpart
seeded with ``spawn_generators(seed, R)[r]`` would — protocols draw one
``random(n)`` block per *active* trial per round and a completed trial
stops drawing.  ``tests/radio/test_dynamics.py`` pins this.

Like the broadcast batch, this path keeps no per-round traces; it exists
for Monte-Carlo timing sweeps (E13, E20).  Fault plans are serial-only —
:func:`~repro.experiments.runner.gossip_times` dispatches accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._typing import FloatArray, IntArray, SeedLike
from ..radio.dynamics import run_lockstep
from ..radio.engine import BatchResult
from ..radio.model import RadioNetwork
from ..radio.protocol import RadioProtocol
from .dynamics import (
    GossipDynamics,
    KnowledgeDynamics,
    MultiMessageDynamics,
    check_sources,
)

__all__ = ["BatchGossipResult", "run_gossip_batch", "run_multimessage_batch"]


@dataclass(frozen=True)
class BatchGossipResult(BatchResult):
    """Per-trial outcomes of a batched gossip / k-token run.

    Beyond the :class:`~repro.radio.engine.BatchResult` fields:

    num_tokens: tokens in play (``n`` for full gossip).
    knowledge_fractions: shape ``(R,)``; final fraction of the ``n * k``
        (node, token) pairs known per trial (1.0 for completed trials).
    first_complete_rounds: shape ``(R,)`` or ``None``; round after which
        some node first knew every token (``inf`` if never observed).
        Tracked only when requested — it is the accumulate-vs-disseminate
        split E13 reports.
    complete_node_totals: shape ``(num_rounds + 1,)`` all-knowing-node
        totals summed over *all* trials after each round, or ``None``
        when stats were off.
    """

    kind = "batch-gossip"

    n: int
    num_tokens: int
    completion_rounds: FloatArray
    knowledge_fractions: FloatArray
    first_complete_rounds: FloatArray | None
    num_rounds: int
    transmissions_per_round: IntArray | None = None
    collisions_per_round: IntArray | None = None
    complete_node_totals: IntArray | None = None

    def informed_curve(self) -> IntArray:
        """``curve[t]`` = all-knowing nodes after round ``t``, over trials.

        The gossip analogue of the broadcast informed curve: a node
        counts once it knows every token.  Requires the batch to have
        run with ``with_stats=True``.
        """
        return self._stats("complete_node_totals").copy()

    def summary(self) -> dict:
        """Headline numbers for reports (mirrors the serial traces)."""
        return {"tokens": self.num_tokens, **super().summary()}

    def to_dict(self) -> dict:
        """The batch result as a schema-versioned plain-JSON document.

        Never-observed first-complete rounds serialise as ``null`` like
        budget misses; :meth:`from_dict` restores them.
        """
        from ..schema import encode_curve

        first = self.first_complete_rounds
        return self._document(
            num_tokens=self.num_tokens,
            knowledge_fractions=[float(v) for v in self.knowledge_fractions],
            first_complete_rounds=None if first is None else encode_curve(first),
            complete_node_totals=self.complete_node_totals,
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "BatchGossipResult":
        """Rebuild a batch result from its :meth:`to_dict` document."""
        from ..schema import decode_curve

        first = payload.get("first_complete_rounds")
        return cls(
            num_tokens=payload["num_tokens"],
            knowledge_fractions=np.array(
                payload["knowledge_fractions"], dtype=np.float64
            ),
            first_complete_rounds=None if first is None else decode_curve(first),
            complete_node_totals=cls._int_array(payload, "complete_node_totals"),
            **cls._fields(payload),
        )


def _run_knowledge_batch(
    network: RadioNetwork,
    dynamics: KnowledgeDynamics,
    num_tokens: int,
    with_first_complete: bool,
    **kwargs,
) -> BatchGossipResult:
    dynamics.track_first_complete = with_first_complete
    run = run_lockstep(network, dynamics, **kwargs)
    return BatchGossipResult(
        network.n, num_tokens, run.completion_rounds, run.fractions,
        dynamics.first_complete_rounds, run.num_rounds, run.transmissions_per_round,
        run.collisions_per_round, run.complete_node_totals,
    )


def run_gossip_batch(
    network: RadioNetwork,
    protocol: RadioProtocol,
    *,
    repetitions: int,
    p: float | None = None,
    seed: SeedLike = None,
    max_rounds: int | None = None,
    check_connected: bool = True,
    with_first_complete: bool = False,
    with_stats: bool = False,
    obs=None,
) -> BatchGossipResult:
    """Run ``repetitions`` independent healthy gossip trials in lockstep.

    Bit-for-bit equivalent to ``repetitions`` sequential
    :func:`~repro.gossip.simulator.simulate_gossip` calls seeded with
    ``spawn_generators(seed, repetitions)``; see the module docstring.
    Trials that exhaust the budget report ``inf`` completion rounds
    instead of raising.  ``with_stats``/``obs`` behave as in
    :func:`~repro.radio.engine.run_broadcast_batch`.
    """
    return _run_knowledge_batch(
        network,
        GossipDynamics(protocol, p),
        network.n,
        with_first_complete,
        repetitions=repetitions,
        seed=seed,
        max_rounds=max_rounds,
        check_connected=check_connected,
        with_stats=with_stats,
        obs=obs,
    )


def run_multimessage_batch(
    network: RadioNetwork,
    protocol: RadioProtocol,
    sources,
    *,
    repetitions: int,
    p: float | None = None,
    seed: SeedLike = None,
    max_rounds: int | None = None,
    check_connected: bool = True,
    with_first_complete: bool = False,
    with_stats: bool = False,
    obs=None,
) -> BatchGossipResult:
    """Run ``repetitions`` independent healthy k-token trials in lockstep.

    All trials share the ``sources`` token placement; per-trial source
    draws need the serial path.  Bit-for-bit equivalent to sequential
    :func:`~repro.gossip.multimessage.simulate_multimessage` calls seeded
    with ``spawn_generators(seed, repetitions)``.  ``with_stats``/``obs``
    behave as in :func:`~repro.radio.engine.run_broadcast_batch`.
    """
    sources = check_sources(sources, network.n)
    return _run_knowledge_batch(
        network,
        MultiMessageDynamics(protocol, sources, p),
        int(sources.size),
        with_first_complete,
        repetitions=repetitions,
        seed=seed,
        max_rounds=max_rounds,
        check_connected=check_connected,
        with_stats=with_stats,
        obs=obs,
    )
