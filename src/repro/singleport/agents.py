"""Agent-based broadcasting — the paper's reference [13] model.

Section 1.2: "the results of Feige et al. have been extended to the
so-called agent-based model by showing that broadcasting in this model
can also be performed within ``O(max{log n, D})`` rounds in random graphs
and bounded degree graphs."

Model: ``k`` agents perform independent simple random walks on the graph
(one hop per round).  An agent visiting a node that holds the rumor picks
it up; a rumor-carrying agent informs every node it visits.  No radio
channel, no collisions — the communication resource is agent mobility.

Experiment E23 measures the two regimes the bound names: on `G(n, p)`
(small D) time is ``Θ(log n)``-flavoured once there are enough agents,
while too few agents leave a cover-time-dominated tail.

Run it as ``repro.simulate("agents", adj, num_agents=k, source=...)``.
The round loop is the shared :func:`repro.radio.dynamics.run_dissemination`
driver; :class:`AgentDynamics` replaces the radio channel with the
random-walk hop-and-exchange step.
"""

from __future__ import annotations

import numpy as np

from ..errors import DisconnectedGraphError, InvalidParameterError
from ..radio.dynamics import RoundOutcome, SingleMessageDynamics, single_trial

__all__ = ["AgentDynamics"]


class AgentDynamics(SingleMessageDynamics):
    """Random-walking agents carrying the rumor between nodes.

    ``num_transmitters`` in the trace records the number of rumor-carrying
    agents per round (counted after this round's pick-ups); collisions
    are always 0 (the model has no shared channel).
    """

    name = "agents"
    summary = "k random-walking agents ferry the rumor (agent-based model, E23)"

    def __init__(self, num_agents: int, source: int,
                 agents_start_at_source: bool = False):
        super().__init__(source)
        self.num_agents = num_agents
        self.agents_start_at_source = agents_start_at_source
        self.positions = None
        self.carrying = None

    @classmethod
    def build(cls, network, *, num_agents, source: int = 0,
              agents_start_at_source: bool = False):
        """``simulate("agents", network, num_agents=..., source=...)``.

        ``agents_start_at_source`` starts all agents on the source (the
        "informed couriers" variant); the default scatters them
        uniformly.
        """
        if num_agents < 1:
            raise InvalidParameterError(
                f"need at least one agent, got {num_agents}"
            )
        if not 0 <= source < network.n:
            raise InvalidParameterError(
                f"source {source} out of range [0, {network.n})"
            )
        return cls(num_agents, source, agents_start_at_source)

    def default_round_cap(self, n):
        # Cover-time flavoured budget: generous multiple of n log n / k.
        logn = max(1.0, np.log(max(n, 2)))
        return int(200 + 40 * n * logn / self.num_agents)

    def start(self, network, rngs, with_tree):
        single_trial(self, rngs)
        super().start(network, rngs, with_tree)
        n = network.n
        if n >= 2 and network.adj.min_degree == 0:
            raise DisconnectedGraphError(
                "graph has isolated nodes; walks cannot reach them"
            )
        if self.agents_start_at_source:
            self.positions = np.full(self.num_agents, self.source, dtype=np.int64)
        else:
            self.positions = rngs[0].integers(0, n, size=self.num_agents).astype(np.int64)
        self.carrying = self.informed[0, self.positions]

    def channel_step(self, t, network, rngs, counted):
        indptr, indices = network.adj.indptr, network.adj.indices
        positions, informed, rng = self.positions, self.informed[0], rngs[0]
        # One uniform-random-neighbour hop per agent (vectorized).
        degs = indptr[positions + 1] - indptr[positions]
        offsets = (rng.random(self.num_agents) * degs).astype(np.int64)
        positions = indices[indptr[positions] + offsets]
        self.positions = positions
        # Exchange at the new position: pick up, then drop off.
        self.carrying |= informed[positions]
        received = np.zeros_like(self.informed)
        received[0, positions[self.carrying & ~informed[positions]]] = True
        return RoundOutcome(received, None, int(np.count_nonzero(self.carrying)), 0)

    def incomplete_message(self, max_rounds, target, full_target):
        return (
            f"agent-based: {int(np.count_nonzero(self.informed))}/{self._n} "
            f"informed after {max_rounds} rounds with {self.num_agents} agents"
        )

    def disconnected_message(self):
        return f"not all nodes reachable from source {self.source}"

