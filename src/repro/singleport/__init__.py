"""Single-port (telephone-model) rumor spreading — the related-work substrate.

The paper's Section 1.2 contrasts radio broadcasting with the single-port
model of Feige, Peleg, Raghavan and Upfal: each round every informed node
sends the rumor to **one** uniformly random neighbour over a private link —
no collisions, but also no one-to-many gain.  Experiment E11 uses this to
separate the two models on identical graphs.

Importing this package registers the ``"push"``, ``"push-pull"`` and
``"agents"`` dynamics with :func:`repro.simulate`.
"""

from .agents import AgentDynamics
from .push import PushDynamics, PushPullDynamics

__all__ = ["PushDynamics", "PushPullDynamics", "AgentDynamics"]
