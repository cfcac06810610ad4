"""Constant-probability protocol (the simplest oblivious baseline).

Every informed node transmits with the same fixed probability ``q`` every
round.  With ``q = 1/d`` this is the Theorem 7 algorithm minus its flood
prefix — fine once ``Θ(n)`` nodes know the message, but the start-up is
slow: the lone source transmits only every ``1/q`` rounds in expectation,
so completion time picks up an extra ``Θ(d · ln n / ln d)``-ish term.
Experiment E5 quantifies the gap; the A4 ablation sweeps ``q``.
"""

from __future__ import annotations

import numpy as np

from ..._typing import BoolArray, IntArray
from ...errors import InvalidParameterError
from ...radio.protocol import RadioProtocol, bernoulli_mask, bernoulli_mask_batch

__all__ = ["UniformProtocol"]


class UniformProtocol(RadioProtocol):
    """Transmit with fixed probability ``q`` in every round."""

    name = "uniform"

    def __init__(self, q: float):
        if not 0.0 < q <= 1.0:
            raise InvalidParameterError(f"q must lie in (0, 1], got {q}")
        self.q = q

    def probability_at(self, t: int) -> float:
        """Constant ``q`` for every round."""
        if t < 1:
            raise InvalidParameterError(f"round index must be >= 1, got {t}")
        return self.q

    def transmit_mask(
        self,
        t: int,
        informed: BoolArray,
        informed_round: IntArray,
        rng: np.random.Generator,
    ) -> BoolArray:
        if self.q >= 1.0:
            return np.ones(informed.size, dtype=bool)
        return bernoulli_mask(rng, self.q, informed.size)

    def transmit_mask_batch(self, t, informed, informed_round, rngs):
        if self.q >= 1.0:
            return np.ones(informed.shape, dtype=bool)
        return bernoulli_mask_batch(rngs, self.q, informed.shape[0])

    def __repr__(self) -> str:
        return f"UniformProtocol(q={self.q:.4g})"
