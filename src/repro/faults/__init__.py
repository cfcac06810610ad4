"""Fault injection: composable fault models for robustness studies.

The paper analyses a fault-free channel; a deployable broadcast stack has
to survive crashes, outages and hostile interference.  This subpackage
wraps the radio substrate with five composable fault models:

* :class:`~repro.faults.models.CrashSchedule` — nodes crash-stop at
  pre-sampled rounds (they stop transmitting *and* receiving);
* :class:`~repro.faults.models.LossyLinkModel` — each edge is
  independently down in each round with probability ``1 - reliability``
  (optionally per-direction, modelling asymmetric fading);
* :class:`~repro.faults.adversaries.ChurnSchedule` — crash-and-recover
  intervals; a recovered node optionally rejoins uninformed;
* :class:`~repro.faults.adversaries.AdversarialJammer` — ``k`` jamming
  transmitters per round (random or degree-targeted) injecting
  collisions at listeners;
* :class:`~repro.faults.adversaries.SpuriousNoiseModel` — Byzantine
  nodes transmitting garbage with probability ``q``.

A :class:`~repro.faults.plan.FaultPlan` bundles any subset; pass it as
``repro.simulate(..., faults=plan)``.  The unified round driver
(:func:`repro.radio.dynamics.run_dissemination`) consumes the plan, so
faulty and healthy runs share one code path.  Experiment E14 measures
which protocol's redundancy pays for itself under each adversary, one
seeded ``raise_on_incomplete=False`` trial at a time, so a stalled
broadcast lands in the table as a failed trial instead of an exception.

See docs/FAULTS.md for the precise per-round semantics.
"""

from .adversaries import AdversarialJammer, ChurnSchedule, SpuriousNoiseModel
from .models import CrashSchedule, LossyLinkModel
from .plan import FaultPlan

__all__ = [
    "AdversarialJammer",
    "ChurnSchedule",
    "CrashSchedule",
    "FaultPlan",
    "LossyLinkModel",
    "SpuriousNoiseModel",
]
