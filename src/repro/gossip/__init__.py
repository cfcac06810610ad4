"""Radio gossiping — the paper's open problem, built out.

The paper's conclusions point from broadcasting (one rumor, one source) to
*gossiping*: every node starts with its own rumor and all nodes must learn
all rumors.  In the radio model a transmitter sends **everything it
currently knows** in one step (unbounded message size), and the collision
rule is unchanged: a listener receives iff exactly one neighbour
transmits.

* :class:`~repro.gossip.dynamics.GossipDynamics` — the knowledge-matrix
  process behind ``repro.simulate("gossip", ...)``; any
  oblivious/uniform/decay protocol drives the transmit decisions.
  :class:`~repro.gossip.dynamics.MultiMessageDynamics` is the k-token
  continuum between broadcast and gossip (``simulate("multimessage",
  ...)``).
* :func:`~repro.gossip.batch.run_gossip_batch` /
  :func:`~repro.gossip.batch.run_multimessage_batch` — batched healthy
  trials over the lockstep driver.
* :class:`~repro.gossip.trace.GossipTrace` — per-round knowledge growth,
  completion time, and the broadcast-vs-gossip comparison quantities of
  experiment E13.
"""

from .batch import BatchGossipResult, run_gossip_batch, run_multimessage_batch
from .dynamics import (
    GossipDynamics,
    KnowledgeDynamics,
    MultiMessageDynamics,
    default_gossip_round_cap,
)
from .trace import GossipRoundRecord, GossipTrace

__all__ = [
    "run_gossip_batch",
    "run_multimessage_batch",
    "BatchGossipResult",
    "KnowledgeDynamics",
    "GossipDynamics",
    "MultiMessageDynamics",
    "default_gossip_round_cap",
    "GossipTrace",
    "GossipRoundRecord",
]
