"""Push and push–pull rumor spreading in the single-port model.

Model (Feige et al., cited in the paper's Section 1.2): synchronous rounds;
every informed node picks one neighbour uniformly at random and sends it
the rumor over a point-to-point link.  Deliveries never collide.  On
``G(n, p)`` above the connectivity threshold, push completes in
``log₂ n + ln n + o(log n)`` rounds w.h.p.

The traces reuse :class:`~repro.radio.trace.BroadcastTrace`; the
``num_collided`` field is always 0 here (the model has no collisions), and
``num_transmitters`` counts the senders of the round.

Run them as ``repro.simulate("push", adj, source=...)`` and
``repro.simulate("push-pull", ...)``.  The round loop is the shared
:func:`repro.radio.dynamics.run_dissemination` driver;
:class:`PushDynamics` / :class:`PushPullDynamics` replace the
radio collision channel with the point-to-point call step, so fault plans
(which model radio-channel phenomena) do not apply here.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import InvalidParameterError
from ..graphs.adjacency import Adjacency
from ..radio.dynamics import RoundOutcome, SingleMessageDynamics, single_trial

__all__ = [
    "default_singleport_round_cap",
    "PushDynamics",
    "PushPullDynamics",
]


def default_singleport_round_cap(n: int) -> int:
    """Default round budget for single-port spreading.

    ``100 + 20 * log2(n)`` — far above the ``log₂ n + ln n + o(log n)``
    completion bound, so hitting it signals a stall rather than bad luck.
    """
    return 100 + 20 * math.ceil(math.log2(max(n, 2)))


def _random_neighbor_choice(
    adj: Adjacency, nodes: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One uniformly random neighbour per node of ``nodes`` (vectorized).

    Returns ``(choices, callers)`` aligned element-wise; nodes of degree
    zero are dropped from both.
    """
    degs = adj.indptr[nodes + 1] - adj.indptr[nodes]
    keep = degs > 0
    nodes, degs = nodes[keep], degs[keep]
    if nodes.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    offsets = (rng.random(nodes.size) * degs).astype(np.int64)
    return adj.indices[adj.indptr[nodes] + offsets], nodes


class PushDynamics(SingleMessageDynamics):
    """Push spreading: every knower calls one uniformly random neighbour."""

    name = "push"
    summary = "single-port push, point-to-point calls (Feige et al., Section 1.2)"
    pull = False

    @classmethod
    def build(cls, network, *, source: int = 0):
        """``simulate("push"/"push-pull", network, source=...)``."""
        if not 0 <= source < network.n:
            raise InvalidParameterError(
                f"source {source} out of range [0, {network.n})"
            )
        return cls(source)

    def default_round_cap(self, n):
        return default_singleport_round_cap(n)

    def start(self, network, rngs, with_tree):
        single_trial(self, rngs)
        super().start(network, rngs, with_tree)

    def channel_step(self, t, network, rngs, counted):
        adj, rng = network.adj, rngs[0]
        informed = self.informed[0]
        senders = np.flatnonzero(informed).astype(np.int64)
        targets, _ = _random_neighbor_choice(adj, senders, rng)
        received = np.zeros_like(self.informed)
        received[0, targets[~informed[targets]]] = True
        if self.pull:
            listeners = np.flatnonzero(~informed).astype(np.int64)
            called, callers = _random_neighbor_choice(adj, listeners, rng)
            received[0, callers[informed[called]]] = True
        return RoundOutcome(received, None, int(senders.size), 0)

    def disconnected_message(self):
        return (
            f"not all nodes reachable from source {self.source}; "
            "rumor cannot spread everywhere"
        )


class PushPullDynamics(PushDynamics):
    """Push–pull: knowers push and non-knowers simultaneously pull.

    Pull side: each uninformed node calls one random neighbour and learns
    the rumor if that neighbour knows it.
    """

    name = "push-pull"
    summary = "single-port push-pull, point-to-point calls"
    pull = True

