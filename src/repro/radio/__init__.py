"""Radio network model: collision semantics, schedules, protocols, simulator.

The model (paper Section 1.1): communication proceeds in synchronous
rounds; each node either transmits or listens.  A listening node receives a
message iff **exactly one** of its neighbours transmits in that round —
two or more transmitting neighbours collide and the listener hears nothing.
Nodes get no collision detection feedback.

* :class:`~repro.radio.model.RadioNetwork` — the vectorized round kernel.
* :class:`~repro.radio.schedule.Schedule` — explicit transmit-set
  schedules produced by centralized algorithms, plus executor/verifier.
* :class:`~repro.radio.protocol.RadioProtocol` — distributed protocols as
  per-round transmit-probability rules over local knowledge.
* :mod:`~repro.radio.dynamics` — the unified dissemination core: the
  :class:`~repro.radio.dynamics.Dynamics` state machine and the one
  round driver :func:`~repro.radio.dynamics.run_dissemination` behind
  broadcast, gossip, multi-message and single-port spreading — a traced
  trial or ``R`` lockstep trials, healthy or under a fault plan.
* :func:`~repro.radio.engine.run_broadcast_batch` — batched healthy
  broadcast over that driver.

One trial of any process, healthy or under a fault plan, runs through
:func:`repro.simulate`.
"""

from .analysis import (
    BroadcastTree,
    broadcast_tree,
    collision_profile,
    phase_summary,
    transmission_efficiency,
)
from .dynamics import (
    DYNAMICS_REGISTRY,
    BroadcastDynamics,
    Dynamics,
    RoundOutcome,
    SingleMessageDynamics,
    default_round_cap,
    run_dissemination,
)
from .engine import BatchBroadcastResult, run_broadcast_batch
from .model import BatchStepResult, RadioNetwork, StepResult
from .protocol import FunctionProtocol, RadioProtocol
from .schedule import Schedule, execute_schedule, verify_schedule
from .trace import BroadcastTrace, RoundRecord

__all__ = [
    "RadioNetwork",
    "StepResult",
    "BatchStepResult",
    "Schedule",
    "execute_schedule",
    "verify_schedule",
    "RadioProtocol",
    "FunctionProtocol",
    "Dynamics",
    "SingleMessageDynamics",
    "BroadcastDynamics",
    "RoundOutcome",
    "DYNAMICS_REGISTRY",
    "run_dissemination",
    "run_broadcast_batch",
    "BatchBroadcastResult",
    "default_round_cap",
    "BroadcastTrace",
    "RoundRecord",
    "BroadcastTree",
    "broadcast_tree",
    "collision_profile",
    "transmission_efficiency",
    "phase_summary",
]
