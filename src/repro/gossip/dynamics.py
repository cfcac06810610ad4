"""Knowledge-matrix dynamics: gossip and k-token dissemination over the core.

Both processes track the boolean knowledge matrix ``K`` with ``K[v, j]``
= "node v knows token j" and merge rows on reception (a transmitter sends
everything it knows in one step — unbounded message size, as the paper's
Section 4 assumes).  Full gossip is the square case ``K = I`` (token ``j``
is node ``j``'s rumor); k-token dissemination starts ``k`` chosen columns
at ``k`` chosen nodes.  The round loop itself — budget, connectivity,
faults, traces — is :func:`repro.radio.dynamics.run_dissemination`.

Fault semantics (docs/FAULTS.md) carry over unchanged from broadcast:
dead radios neither transmit nor receive, jamming and Byzantine noise
occupy the channel, deliveries traverse per-round link outages, and a
churned node *forgets on rejoin* — for gossip it keeps (re-derives) its
own rumor, for k-token runs it falls back to its initial token
endowment.  Completion is relative to the eventually-alive target set,
and only tokens originating at target nodes are deliverable: a rumor
whose only holder crashes permanently cannot be required of anyone.
"""

from __future__ import annotations

import math

import numpy as np

from .._typing import BoolArray, IntArray
from ..errors import InvalidParameterError
from ..radio.dynamics import Dynamics
from ..radio.protocol import RadioProtocol
from .trace import GossipRoundRecord, GossipTrace

__all__ = [
    "KnowledgeDynamics",
    "GossipDynamics",
    "MultiMessageDynamics",
    "default_gossip_round_cap",
    "check_sources",
]


def default_gossip_round_cap(n: int) -> int:
    """Round budget: gossip needs both accumulate and disseminate phases."""
    return 400 + 120 * max(1, math.ceil(math.log2(max(n, 2))))


class KnowledgeDynamics(Dynamics):
    """Shared knowledge-matrix state for gossip-family processes.

    Subclasses set up ``knowledge`` (shape ``(R, n, k)``, one matrix per
    trial) and ``has_round`` (the round each node first held a token —
    the protocol's ``informed_round``) in :meth:`start` and define which
    nodes count as content holders; reception always means "OR the
    sender's row into mine" and the trace vocabulary is
    :class:`GossipRoundRecord` / :class:`GossipTrace`.
    """

    supports_faults = True
    # Row merging needs to know who the unique sender was, so batched and
    # faulty rounds must extract informers (a single healthy round always
    # does).
    needs_informer = True
    trial_state = ("knowledge", "has_round")
    #: When set, untraced runs record per trial the round after which
    #: some node first knew every token (the accumulate-vs-disseminate
    #: split E13 reports) into ``first_complete_rounds``.
    track_first_complete = False

    def __init__(self, protocol: RadioProtocol, p: float | None = None):
        self.protocol = protocol
        self.p = p
        self.knowledge: BoolArray | None = None
        self.has_round: IntArray | None = None
        self.first_complete_rounds = None
        self._n = 0
        self._k = 0

    def default_round_cap(self, n):
        return default_gossip_round_cap(n)

    def token_target(self, target: BoolArray) -> BoolArray:
        """Mask of deliverable tokens given the eventually-alive nodes."""
        raise NotImplementedError

    def _start(self, rngs, knowledge: BoolArray, has_round: IntArray) -> None:
        """Stack the one-trial initial state once per trial."""
        trials = len(rngs)
        self.knowledge = np.broadcast_to(knowledge, (trials,) + knowledge.shape).copy()
        self.has_round = np.broadcast_to(has_round, (trials,) + has_round.shape).copy()
        self.first_complete_rounds = None
        if self.track_first_complete:
            self.first_complete_rounds = np.full(trials, np.inf)
            self._note_first_complete(0, np.arange(trials))

    def holder_rounds(self):
        return self.has_round

    def _trace_counts(self):
        """Tokens known per node in the traced run's one row."""
        return self.knowledge[0].sum(axis=1)

    def update(self, t, outcome, trial_ids):
        received = outcome.received
        informer = outcome.informer
        # Knowledge merging is inherently per-trial: each trial gathers
        # its own sender rows.  The loop body is O(receivers · k), tiny
        # next to the channel kernel.  The merge is synchronous: fancy
        # indexing copies the sender rows as of round start, and a sender
        # is never simultaneously a receiver.
        for idx in range(trial_ids.size):
            recv = np.flatnonzero(received[idx])
            if recv.size:
                K = self.knowledge[idx]
                K[recv] |= K[informer[idx, recv]]
                fresh = recv[self.has_round[idx, recv] < 0]
                self.has_round[idx, fresh] = t
        if self.first_complete_rounds is not None:
            self._note_first_complete(t, trial_ids)

    def _note_first_complete(self, t, trial_ids):
        unseen = np.isinf(self.first_complete_rounds[trial_ids])
        if unseen.any():
            hits = unseen & self.knowledge.all(axis=2).any(axis=1)
            if hits.any():
                self.first_complete_rounds[trial_ids[hits]] = float(t)

    def finished(self, target, full_target):
        if full_target:
            return self.knowledge.all(axis=(1, 2))
        required = self.knowledge[:, target][:, :, self.token_target(target)]
        return required.all(axis=(1, 2))

    def fractions(self):
        return self.knowledge.sum(axis=(1, 2)) / float(self._n * self._k)

    def complete_nodes(self):
        return int(self.knowledge.all(axis=2).sum())

    def record(self, t, outcome):
        counts = self._trace_counts()
        return GossipRoundRecord(
            round_index=t,
            num_transmitters=outcome.num_transmitters,
            num_receivers=int(np.count_nonzero(outcome.received)),
            pairs_known=int(counts.sum()),
            min_knowledge=int(counts.min()),
            nodes_complete=int(np.count_nonzero(counts == self._k)),
        )

    def event_fields(self, record):
        return {
            "pairs_known": record.pairs_known,
            "nodes_complete": record.nodes_complete,
        }

    def finish(self, trace, target, full_target, finished):
        knowledge = self.knowledge[0]
        if finished and not full_target:
            # Mirror broadcast's target-relative completion report: nodes
            # outside the target set and tokens that died with their only
            # holders are filled in, so ``trace.completed`` reads true
            # exactly when the deliverable sub-problem finished.
            knowledge[~target, :] = True
            knowledge[:, ~self.token_target(target)] = True
        trace.knowledge_counts = knowledge.sum(axis=1).astype(np.int64)


class GossipDynamics(KnowledgeDynamics):
    """Full gossip: every node starts with its own rumor, all must learn all.

    The protocol is handed an all-true ``informed`` mask (every node
    always has something to say), so any broadcast protocol — uniform,
    decay, oblivious — plugs in directly.
    """

    name = "gossip"
    summary = "all-to-all rumor exchange, radio channel (paper Section 4)"

    @classmethod
    def build(cls, network, *, protocol, p=None):
        """``simulate("gossip", network, protocol=..., p=...)``."""
        return cls(protocol, p)

    def start(self, network, rngs, with_tree):
        n = network.n
        self._n = n
        self._k = n
        self.protocol.prepare(n, self.p, 0)
        self._start(rngs, np.eye(n, dtype=bool), np.zeros(n, dtype=np.int64))

    def content(self):
        # Every node always holds at least its own rumor.
        return np.ones(self.has_round.shape, dtype=bool)

    def token_target(self, target):
        # Token j is node j's rumor: rumors of permanently dead nodes are
        # not deliverable (they may die before ever winning the channel).
        return target

    def forget(self, ids):
        self.knowledge[:, ids] = False
        self.knowledge[:, ids, ids] = True  # a rejoining node re-derives its own rumor

    def make_trace(self):
        counts = self._trace_counts()
        return GossipTrace(
            n=self._n,
            initial_nodes_complete=int(np.count_nonzero(counts == self._k)),
        )

    def incomplete_message(self, max_rounds, target, full_target):
        counts = self._trace_counts()
        return (
            f"{self.protocol.name}: gossip incomplete after {max_rounds} rounds "
            f"(min knowledge {int(counts.min())}/{self._n})"
        )

    def disconnected_message(self):
        return "network is disconnected; gossip cannot complete"


class MultiMessageDynamics(KnowledgeDynamics):
    """k-token dissemination: token ``j`` starts at ``sources[j]``.

    Broadcast is the ``k = 1`` case and gossip is ``k = n``; transmitters
    send everything they hold, and the protocol's ``informed`` argument is
    "holds at least one token" (only such nodes ever transmit content).
    """

    name = "multimessage"
    summary = "k tokens at k sources, the broadcast-to-gossip continuum (E20)"

    def __init__(
        self,
        protocol: RadioProtocol,
        sources: IntArray,
        p: float | None = None,
    ):
        super().__init__(protocol, p)
        self.sources = sources
        self.connectivity_root = int(sources[0])

    @classmethod
    def build(cls, network, *, protocol, sources, p=None):
        """``simulate("multimessage", network, protocol=..., sources=..., p=...)``.

        ``sources`` lists the node ids holding tokens ``0 .. k-1``
        initially (duplicates allowed — one node may start with several
        tokens).
        """
        return cls(protocol, check_sources(sources, network.n), p)

    def start(self, network, rngs, with_tree):
        n = network.n
        k = self.sources.size
        self._n = n
        self._k = k
        self.protocol.prepare(n, self.p, int(self.sources[0]))
        # Kept for churn recovery: a rejoining node falls back to the
        # tokens it originated.
        self._initial = np.zeros((n, k), dtype=bool)
        self._initial[self.sources, np.arange(k)] = True
        has_round = np.full(n, -1, dtype=np.int64)
        has_round[self.sources] = 0
        self._start(rngs, self._initial, has_round)

    def content(self):
        return self.knowledge.any(axis=2)

    def token_target(self, target):
        return target[self.sources]

    def forget(self, ids):
        self.knowledge[:, ids] = self._initial[ids]
        self.has_round[:, ids] = np.where(self._initial[ids].any(axis=1), 0, -1)

    def make_trace(self):
        counts = self._trace_counts()
        return GossipTrace(
            n=self._n,
            num_tokens=self._k,
            initial_nodes_complete=int(np.count_nonzero(counts == self._k)),
        )

    def incomplete_message(self, max_rounds, target, full_target):
        return (
            f"{self.protocol.name}: {self._k}-token dissemination incomplete "
            f"after {max_rounds} rounds"
        )

    def disconnected_message(self):
        return "network is disconnected; dissemination cannot complete"


def check_sources(sources, n: int) -> IntArray:
    """Validate and normalise a multimessage source array."""
    sources = np.asarray(sources, dtype=np.int64)
    if sources.ndim != 1 or sources.size < 1:
        raise InvalidParameterError("sources must be a non-empty 1-D array of node ids")
    if sources.min() < 0 or sources.max() >= n:
        raise InvalidParameterError(f"source ids must lie in [0, {n})")
    return sources
