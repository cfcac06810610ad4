"""The Decay protocol of Bar-Yehuda, Goldreich and Itai (baseline).

The classic randomized broadcast for *arbitrary* unknown radio networks:
time is divided into phases of ``k = ⌈log₂ n⌉ + 1`` rounds; in round ``j``
of a phase every informed node transmits with probability ``2^{-(j-1)}``
(everyone in the phase's first round, then geometrically decaying).  At
whatever the local density of informed neighbours is, some round of the
phase hits transmit-count ≈ 1 and delivers, so each phase informs each
uninformed frontier node with constant probability — giving
``O((D + log n) · log n)`` rounds w.h.p. on any graph.

On ``G(n, p)`` this is ``Θ(log² n)``: the baseline Theorem 7's
``O(log n)`` protocol beats by a ``log n`` factor (experiment E5).
"""

from __future__ import annotations

import math

import numpy as np

from ..._typing import BoolArray, IntArray
from ...errors import InvalidParameterError
from ...radio.protocol import RadioProtocol, bernoulli_mask, bernoulli_mask_batch

__all__ = ["DecayProtocol"]


class DecayProtocol(RadioProtocol):
    """Phased geometric-decay transmit probabilities.

    Parameters
    ----------
    n: network size (sets the phase length ``⌈log₂ n⌉ + 1``).
    phase_length: override the phase length (e.g. ``⌈log₂ Δ⌉`` variants).
    """

    name = "decay"

    def __init__(self, n: int, *, phase_length: int | None = None):
        if n < 2:
            raise InvalidParameterError(f"need n >= 2, got {n}")
        if phase_length is None:
            phase_length = math.ceil(math.log2(n)) + 1
        if phase_length < 1:
            raise InvalidParameterError(f"phase_length must be >= 1, got {phase_length}")
        self.n = n
        self.phase_length = phase_length

    def prepare(self, n: int, p: float | None, source: int) -> None:
        if n != self.n:
            raise InvalidParameterError(
                f"protocol configured for n={self.n} but network has n={n}"
            )

    def probability_at(self, t: int) -> float:
        """Transmit probability of round ``t``: ``2^-j`` within each phase."""
        if t < 1:
            raise InvalidParameterError(f"round index must be >= 1, got {t}")
        j = (t - 1) % self.phase_length  # 0-based position within the phase
        return 2.0**-j

    def transmit_mask(
        self,
        t: int,
        informed: BoolArray,
        informed_round: IntArray,
        rng: np.random.Generator,
    ) -> BoolArray:
        q = self.probability_at(t)
        if q >= 1.0:
            return np.ones(informed.size, dtype=bool)
        return bernoulli_mask(rng, q, informed.size)

    def transmit_mask_batch(self, t, informed, informed_round, rngs):
        q = self.probability_at(t)
        if q >= 1.0:
            return np.ones(informed.shape, dtype=bool)
        return bernoulli_mask_batch(rngs, q, informed.shape[0])

    def __repr__(self) -> str:
        return f"DecayProtocol(n={self.n}, phase_length={self.phase_length})"
