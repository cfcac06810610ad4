"""Oblivious protocols: transmit probability a function of the round alone.

In the paper's distributed model every informed node decides to transmit
"by using ``n``, ``p``, and ``t`` only" (proof of Theorem 8) — i.e. each
round has a single global transmit probability ``q(t)`` applied to all
informed nodes.  :class:`ObliviousProtocol` implements exactly that class;
the Theorem 7 algorithm, the uniform baseline, and every candidate in the
Theorem 8 lower-bound sweep are instances.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..._typing import BoolArray, IntArray
from ...errors import InvalidParameterError
from ...radio.protocol import RadioProtocol, bernoulli_mask, bernoulli_mask_batch

__all__ = ["ObliviousProtocol"]


class ObliviousProtocol(RadioProtocol):
    """Transmit with probability ``q(t)``, identically for all informed nodes.

    Parameters
    ----------
    probability:
        Either a callable ``t -> q`` (``t`` 1-indexed) or a sequence of
        probabilities; a sequence repeats cyclically once exhausted.
    name:
        Report label.

    The mask depends on ``t`` alone, so the protocol is batch-capable:
    :meth:`transmit_mask_batch` draws each trial's column exactly as
    :meth:`transmit_mask` would, including the draw of a ``q = 1`` round.
    """

    def __init__(
        self,
        probability: Callable[[int], float] | Sequence[float],
        name: str = "oblivious",
    ):
        if callable(probability):
            self._fn = probability
            self._seq: list[float] | None = None
        else:
            seq = [float(q) for q in probability]
            if not seq:
                raise InvalidParameterError("probability sequence must be non-empty")
            for q in seq:
                if not 0.0 <= q <= 1.0:
                    raise InvalidParameterError(f"probability {q} outside [0, 1]")
            self._fn = None
            self._seq = seq
        self.name = name
        self._n = 0

    def prepare(self, n: int, p: float | None, source: int) -> None:
        self._n = n

    def probability_at(self, t: int) -> float:
        """The global transmit probability of round ``t`` (1-indexed)."""
        if t < 1:
            raise InvalidParameterError(f"round index must be >= 1, got {t}")
        if self._seq is not None:
            return self._seq[(t - 1) % len(self._seq)]
        q = float(self._fn(t))
        if not 0.0 <= q <= 1.0:
            raise InvalidParameterError(
                f"probability function returned {q} outside [0, 1] at t={t}"
            )
        return q

    def transmit_mask(
        self,
        t: int,
        informed: BoolArray,
        informed_round: IntArray,
        rng: np.random.Generator,
    ) -> BoolArray:
        return bernoulli_mask(rng, self.probability_at(t), informed.size)

    def transmit_mask_batch(
        self,
        t: int,
        informed: BoolArray,
        informed_round: IntArray,
        rngs: Sequence[np.random.Generator],
    ) -> BoolArray:
        return bernoulli_mask_batch(rngs, self.probability_at(t), informed.shape[0])
