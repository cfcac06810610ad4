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
  :class:`~repro.radio.dynamics.Dynamics` state machine, the serial
  round driver :func:`~repro.radio.dynamics.run_dissemination` behind
  broadcast, gossip, multi-message and single-port spreading, and the
  lockstep driver :func:`~repro.radio.dynamics.run_lockstep` behind
  every batched Monte-Carlo run.
* :func:`~repro.radio.engine.run_broadcast` /
  :func:`~repro.radio.engine.run_broadcast_batch` — broadcast over the
  two drivers (healthy runs and fault plans share the serial one).
* :func:`~repro.radio.simulator.simulate_broadcast` — the zero-fault
  driver over the engine.
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
    run_dissemination,
)
from .engine import BatchBroadcastResult, run_broadcast, run_broadcast_batch
from .model import BatchStepResult, RadioNetwork, StepResult
from .protocol import FunctionProtocol, RadioProtocol
from .schedule import Schedule, execute_schedule, verify_schedule
from .simulator import broadcast_time, default_round_cap, repeat_broadcast, simulate_broadcast
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
    "run_broadcast",
    "run_broadcast_batch",
    "BatchBroadcastResult",
    "simulate_broadcast",
    "broadcast_time",
    "repeat_broadcast",
    "default_round_cap",
    "BroadcastTrace",
    "RoundRecord",
    "BroadcastTree",
    "broadcast_tree",
    "collision_profile",
    "transmission_efficiency",
    "phase_summary",
]
