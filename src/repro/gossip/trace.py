"""Gossip execution traces."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._typing import IntArray
from ..schema import RESULT_SCHEMA_VERSION, check_schema_version

__all__ = ["GossipRoundRecord", "GossipTrace"]


@dataclass(frozen=True)
class GossipRoundRecord:
    """Statistics of a single gossip round (1-indexed)."""

    round_index: int
    num_transmitters: int
    num_receivers: int
    pairs_known: int  # total (node, rumor) pairs known after the round
    min_knowledge: int  # rumors known by the worst-informed node
    nodes_complete: int  # nodes that know every rumor


@dataclass
class GossipTrace:
    """Full record of one gossip (or k-token multi-message) execution.

    Attributes
    ----------
    n: network size.
    records: per-round statistics.
    knowledge_counts: final per-node number of rumors known.
    num_tokens: number of distinct rumors in play (``n`` for full gossip,
        ``k`` for k-token dissemination, ``simulate("multimessage", ...)``).
    initial_nodes_complete: nodes that already knew every token before
        round 1 (anchors :meth:`informed_curve`; ``0`` for full gossip on
        ``n > 1`` nodes, ``1`` for single-token dissemination).
    """

    n: int
    records: list[GossipRoundRecord] = field(default_factory=list)
    knowledge_counts: IntArray | None = None
    num_tokens: int | None = None
    initial_nodes_complete: int = 0

    @property
    def tokens(self) -> int:
        """Distinct rumors in play (defaults to ``n``)."""
        return self.n if self.num_tokens is None else self.num_tokens

    @property
    def num_rounds(self) -> int:
        """Rounds executed."""
        return len(self.records)

    @property
    def completed(self) -> bool:
        """True iff every node knows every rumor."""
        if self.knowledge_counts is None:
            return False
        return bool(np.all(self.knowledge_counts == self.tokens))

    @property
    def completion_round(self) -> int:
        """First round after which all nodes know all rumors."""
        if not self.completed:
            raise ValueError("gossip did not complete; no completion round")
        for rec in self.records:
            if rec.nodes_complete == self.n:
                return rec.round_index
        return self.num_rounds

    @property
    def total_transmissions(self) -> int:
        """Sum of transmitter counts over all rounds (energy proxy)."""
        return sum(r.num_transmitters for r in self.records)

    @property
    def total_collisions(self) -> int:
        """Collided-listener total — always ``0`` for knowledge traces.

        :class:`GossipRoundRecord` does not carry a collision count (and
        cannot grow one without breaking stored traces), so this reports
        zero; it exists so gossip traces satisfy the shared
        ``SimulationResult`` interface.  Attach an observer to count
        collisions per round.
        """
        return sum(getattr(r, "num_collided", 0) for r in self.records)

    def informed_curve(self) -> IntArray:
        """``curve[t]`` = nodes knowing *every* token after round ``t``.

        The gossip analogue of the broadcast informed curve; ``curve[0]``
        is :attr:`initial_nodes_complete`.
        """
        counts = [self.initial_nodes_complete]
        counts.extend(rec.nodes_complete for rec in self.records)
        return np.array(counts, dtype=np.int64)

    def rounds_until_first_complete_node(self) -> int:
        """First round after which some node knows everything.

        The gap between this and :attr:`completion_round` is the
        accumulate-vs-disseminate split of gossip time.
        """
        for rec in self.records:
            if rec.nodes_complete >= 1:
                return rec.round_index
        raise ValueError("no node ever accumulated all rumors")

    def knowledge_curve(self) -> IntArray:
        """``curve[t]`` = total (node, rumor) pairs known after round ``t``.

        ``curve[0]`` is the initial pair count (``n`` for full gossip —
        everyone knows their own rumor — or ``k`` for k-token runs).
        """
        counts = [self.tokens]
        counts.extend(rec.pairs_known for rec in self.records)
        return np.array(counts, dtype=np.int64)

    def summary(self) -> dict:
        """Headline numbers for reports."""
        return {
            "n": self.n,
            "rounds": self.num_rounds,
            "completed": self.completed,
            "pairs_known": int(self.records[-1].pairs_known) if self.records else self.n,
        }

    def to_dict(self) -> dict:
        """The trace as a schema-versioned plain-JSON document.

        The pinned wire form shared by ``repro run --json``, the result
        cache and the job server (see :mod:`repro.schema`);
        :meth:`from_dict` is the exact inverse.
        """
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "kind": "gossip-trace",
            "n": self.n,
            "num_tokens": self.num_tokens,
            "initial_nodes_complete": self.initial_nodes_complete,
            "records": [
                {
                    "t": r.round_index,
                    "transmitters": r.num_transmitters,
                    "receivers": r.num_receivers,
                    "pairs_known": r.pairs_known,
                    "min_knowledge": r.min_knowledge,
                    "nodes_complete": r.nodes_complete,
                }
                for r in self.records
            ],
            "knowledge_counts": (
                None
                if self.knowledge_counts is None
                else self.knowledge_counts.tolist()
            ),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GossipTrace":
        """Rebuild a trace from its :meth:`to_dict` document."""
        check_schema_version(payload, what="gossip-trace")
        records = [
            GossipRoundRecord(
                round_index=r["t"],
                num_transmitters=r["transmitters"],
                num_receivers=r["receivers"],
                pairs_known=r["pairs_known"],
                min_knowledge=r["min_knowledge"],
                nodes_complete=r["nodes_complete"],
            )
            for r in payload["records"]
        ]
        counts = payload.get("knowledge_counts")
        return cls(
            n=payload["n"],
            records=records,
            knowledge_counts=(
                None if counts is None else np.array(counts, dtype=np.int64)
            ),
            num_tokens=payload.get("num_tokens"),
            initial_nodes_complete=payload.get("initial_nodes_complete", 0),
        )

    def __repr__(self) -> str:
        status = "complete" if self.completed else "incomplete"
        return f"GossipTrace(n={self.n}, rounds={self.num_rounds}, {status})"
