"""The composable fault plan consumed by the unified round driver.

A :class:`FaultPlan` bundles every supported fault model — crash-stop
schedules, churn intervals, lossy links, adversarial jammers and
spurious-noise transmitters — behind one small per-round interface:

* :meth:`FaultPlan.alive_at` — which radios are on this round;
* :meth:`FaultPlan.forget_at` — who rejoins uninformed this round;
* :meth:`FaultPlan.garbage_mask` — who occupies the channel with noise;
* :attr:`FaultPlan.links` — the per-round link-outage sampler, if any;
* :meth:`FaultPlan.target` — the completion target set (eventually-alive
  nodes).

Pass a plan as ``repro.simulate(..., faults=FaultPlan(crashes=...,
links=...))``.  :func:`repro.radio.dynamics.run_dissemination` consumes
exactly this interface, so the healthy run is literally the
``FaultPlan()`` (all-null) special case, and new fault models only need
to extend this class — the driver never changes.

RNG discipline: in each round the driver draws protocol coins first, then
jammer targets, then noise coins, then link outages — and each stage that
cannot act (null model, ``reliability == 1``) draws nothing.  That makes
a zero-fault plan consume exactly the healthy simulator's stream, so the
two produce identical traces under the same seed.
"""

from __future__ import annotations

import numpy as np

from .._typing import BoolArray, IntArray
from ..errors import InvalidParameterError
from .adversaries import AdversarialJammer, ChurnSchedule, SpuriousNoiseModel
from .models import CrashSchedule, LossyLinkModel

__all__ = ["FaultPlan"]


class FaultPlan:
    """Bundle of fault models applied together during one broadcast run.

    All components are optional; ``FaultPlan()`` is the fault-free plan.

    Parameters
    ----------
    crashes: crash-stop schedule (nodes die and stay dead).
    churn: crash-and-recover intervals.
    links: per-round independent link outages.
    jammer: adversarial jamming transmitters.
    noise: Byzantine spurious-noise transmitters.
    """

    def __init__(
        self,
        *,
        crashes: CrashSchedule | None = None,
        churn: ChurnSchedule | None = None,
        links: LossyLinkModel | None = None,
        jammer: AdversarialJammer | None = None,
        noise: SpuriousNoiseModel | None = None,
    ):
        self.crashes = crashes
        self.churn = churn
        self.links = links
        self.jammer = jammer
        self.noise = noise

    @property
    def is_null(self) -> bool:
        """True when the plan can never perturb a round."""
        return (
            (self.crashes is None or self.crashes.num_crashes() == 0)
            and (self.churn is None or self.churn.is_null)
            and self.links is None
            and (self.jammer is None or self.jammer.is_null)
            and (self.noise is None or self.noise.is_null)
        )

    def validate(self, n: int) -> None:
        """Check every component covers exactly ``n`` nodes."""
        sizes = {
            "crash schedule": None if self.crashes is None else self.crashes.n,
            "churn schedule": None if self.churn is None else self.churn.n,
            "link model": None if self.links is None else self.links.adj.n,
            "jammer": None if self.jammer is None else self.jammer.n,
            "noise model": None if self.noise is None else self.noise.n,
        }
        for name, size in sizes.items():
            if size is not None and size != n:
                raise InvalidParameterError(
                    f"{name} covers {size} nodes, network has {n}"
                )

    def target(self, n: int) -> BoolArray:
        """Completion target: nodes that are eventually alive.

        Nodes that crash-stop (or churn out forever) before the message
        could reach them are not part of the deliverable set.
        """
        mask = np.ones(n, dtype=bool)
        if self.crashes is not None:
            mask &= self.crashes.eventually_alive()
        if self.churn is not None:
            mask &= self.churn.eventually_alive()
        return mask

    def alive_at(self, t: int, n: int) -> BoolArray:
        """Mask of nodes with their radio on in round ``t``."""
        mask = np.ones(n, dtype=bool)
        if self.crashes is not None:
            mask &= self.crashes.alive_at(t)
        if self.churn is not None:
            mask &= self.churn.alive_at(t)
        return mask

    def forget_at(self, t: int) -> IntArray:
        """Ids of nodes that rejoin **uninformed** in round ``t``."""
        if self.churn is None:
            return np.empty(0, dtype=np.int64)
        return self.churn.forget_at(t)

    def garbage_mask(
        self, t: int, rng: np.random.Generator
    ) -> BoolArray | None:
        """Mask of garbage (message-free) transmitters this round.

        Returns ``None`` — drawing nothing from ``rng`` — when neither a
        jammer nor a noise model is active, preserving stream parity with
        the fault-free run.
        """
        mask = None
        if self.jammer is not None and not self.jammer.is_null:
            mask = self.jammer.jam_mask(t, rng)
        if self.noise is not None and not self.noise.is_null:
            noise = self.noise.noise_mask(t, rng)
            mask = noise if mask is None else mask | noise
        return mask

    def __repr__(self) -> str:
        parts = [
            f"{name}={model!r}"
            for name, model in [
                ("crashes", self.crashes),
                ("churn", self.churn),
                ("links", self.links),
                ("jammer", self.jammer),
                ("noise", self.noise),
            ]
            if model is not None
        ]
        return f"FaultPlan({', '.join(parts) if parts else 'fault-free'})"
