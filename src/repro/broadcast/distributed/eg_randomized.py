"""The Theorem 7 distributed randomized broadcasting algorithm.

Paper (Section 3.2): nodes know only ``n`` and ``p`` (hence ``d = pn``) and
the round number.  With ``D = ⌈ln n / ln d⌉``:

* rounds ``1 .. D-1`` are **non-selective** — every informed node
  transmits with probability 1 (the message floods the near-tree of small
  layers; collisions only hurt the ``O(1)`` multi-parent stragglers);
* round ``D`` is **``n/d^D``-selective** — informed nodes transmit with
  probability ``n / d^D``, thinning the now-``Θ(n/d)``-sized frontier so a
  constant fraction of the graph is informed in one shot;
* every later round is **``1/d``-selective** — transmit with probability
  ``1/d``, each round informing a constant fraction of the remaining
  uninformed nodes.

Theorem 7 proves ``O(ln n)`` rounds w.h.p. for ``p ≥ ln^δ n / n``,
``δ > 1``; Theorem 8 shows this is optimal for topology-oblivious nodes.

Implementation note — *participation in selective rounds*: the paper's
analysis restricts ``1/d``-selective transmissions to nodes informed in
rounds ``1..D`` (it needs the transmitting sets essentially fresh).  At
finite ``n`` a node can have **all** its neighbours informed after round
``D``, in which case the restricted rule never informs it; the analysis
absorbs this into the final ``O(log n)`` sweep, but a simulator must
terminate.  By default all informed nodes participate in selective rounds
(``strict_participation=False``), which preserves the ``O(ln n)`` shape —
experiment E4's fit confirms it.  ``strict_participation=True`` reproduces
the paper's exact rule for side-by-side comparison.
"""

from __future__ import annotations

import math

import numpy as np

from ..._typing import BoolArray, IntArray
from ...errors import InvalidParameterError
from ...radio.protocol import RadioProtocol, bernoulli_mask, bernoulli_mask_batch

__all__ = ["EGRandomizedProtocol"]


class EGRandomizedProtocol(RadioProtocol):
    """Elsässer–Gąsieniec randomized distributed broadcast (Theorem 7).

    Parameters
    ----------
    n: network size (known to every node in the model).
    p: edge probability (known to every node in the model).
    strict_participation:
        Restrict ``1/d``-selective rounds to nodes informed by round ``D``
        (the paper's exact rule; see module docstring).
    selectivity:
        Scale factor on the selective-phase probability (transmit with
        probability ``selectivity / d``); 1.0 is the paper's choice.
    """

    name = "eg-randomized"

    def __init__(
        self,
        n: int,
        p: float,
        *,
        strict_participation: bool = False,
        selectivity: float = 1.0,
    ):
        if n < 2:
            raise InvalidParameterError(f"need n >= 2, got {n}")
        if not 0.0 < p <= 1.0:
            raise InvalidParameterError(f"p must lie in (0, 1], got {p}")
        d = p * n
        if d <= 1.0:
            raise InvalidParameterError(
                f"expected degree d = p*n = {d:.3g} must exceed 1 "
                "(the paper assumes p >= ln^delta(n)/n)"
            )
        if selectivity <= 0:
            raise InvalidParameterError(f"selectivity must be > 0, got {selectivity}")
        self.n = n
        self.p = p
        self.d = d
        self.strict_participation = strict_participation
        self.selectivity = selectivity
        #: Number of the single ``n/d^D``-selective round; rounds before it
        #: are non-selective, rounds after it are ``1/d``-selective.
        self.switch_round = max(1, math.ceil(math.log(n) / math.log(d)))
        #: Probability used in the switch round.
        self.switch_probability = min(1.0, n / d**self.switch_round)
        #: Probability used in every later round.
        self.selective_probability = min(1.0, selectivity / d)

    def prepare(self, n: int, p: float | None, source: int) -> None:
        if n != self.n:
            raise InvalidParameterError(
                f"protocol configured for n={self.n} but network has n={n}"
            )

    def probability_at(self, t: int) -> float:
        """Global transmit probability of round ``t`` (1-indexed)."""
        if t < 1:
            raise InvalidParameterError(f"round index must be >= 1, got {t}")
        if t < self.switch_round:
            return 1.0
        if t == self.switch_round:
            return self.switch_probability
        return self.selective_probability

    def transmit_mask(
        self,
        t: int,
        informed: BoolArray,
        informed_round: IntArray,
        rng: np.random.Generator,
    ) -> BoolArray:
        q = self.probability_at(t)
        mask = bernoulli_mask(rng, q, informed.size) if q < 1.0 else np.ones(informed.size, dtype=bool)
        if self.strict_participation and t > self.switch_round:
            mask &= (informed_round >= 0) & (informed_round <= self.switch_round)
        return mask

    def transmit_mask_batch(self, t, informed, informed_round, rngs):
        q = self.probability_at(t)
        if q < 1.0:
            mask = bernoulli_mask_batch(rngs, q, informed.shape[0])
        else:
            mask = np.ones(informed.shape, dtype=bool)
        if self.strict_participation and t > self.switch_round:
            mask = mask & (informed_round >= 0) & (informed_round <= self.switch_round)
        return mask

    def __repr__(self) -> str:
        return (
            f"EGRandomizedProtocol(n={self.n}, p={self.p:.4g}, d={self.d:.3g}, "
            f"switch_round={self.switch_round})"
        )
