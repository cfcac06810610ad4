"""Distributed radio protocols as per-round transmit rules.

A :class:`RadioProtocol` decides, each round, which informed nodes
transmit.  The decision may use only what a node locally knows in the
paper's distributed model: the global parameters ``n`` and ``p``, the
round number ``t``, whether the node is informed and since when.  The
interface is vectorized — one call returns the whole round's mask — but
implementations must keep each node's entry a function of that node's
local knowledge only (the simulator cannot check this; tests for each
concrete protocol do).

The simulator intersects the returned mask with the informed set, so a
protocol can never make an uninformed node transmit the message.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Sequence

import numpy as np

from .._typing import BoolArray, IntArray

__all__ = [
    "RadioProtocol",
    "FunctionProtocol",
    "bernoulli_mask",
    "bernoulli_mask_batch",
]


def bernoulli_mask(
    rng: np.random.Generator, probabilities: np.ndarray | float, n: int
) -> BoolArray:
    """Independent per-node coin flips with the given probabilities."""
    return rng.random(n) < probabilities


def bernoulli_mask_batch(
    rngs: Sequence[np.random.Generator],
    probabilities: np.ndarray | float,
    n: int,
) -> BoolArray:
    """Per-trial Bernoulli columns: ``(n, len(rngs))`` coin-flip masks.

    Column ``r`` is drawn from ``rngs[r]`` with exactly the draws
    :func:`bernoulli_mask` would make (one ``random(n)`` call), so a
    batched run consumes each trial's stream identically to a traced run
    — the statistical-equivalence guarantee the batch engine relies on.
    """
    uniforms = np.empty((len(rngs), n))
    for r, rng in enumerate(rngs):
        rng.random(out=uniforms[r])
    return (uniforms < probabilities).T


class RadioProtocol(ABC):
    """Base class for distributed broadcast protocols.

    Lifecycle: the simulator calls :meth:`prepare` once per run, then,
    every round, :meth:`transmit_mask` for a single trial or
    :meth:`transmit_mask_batch` for several trials at once.

    Contract: a protocol is **stateless across rounds**.  :meth:`prepare`
    may precompute from ``(n, p, source)``, but a round's mask depends
    only on its arguments, so one protocol object serves ``R``
    interleaved trials.  :meth:`transmit_mask_batch` must draw from each
    trial's stream exactly what :meth:`transmit_mask` draws.
    """

    #: Human-readable protocol name (used in reports).
    name: str = "protocol"

    def prepare(self, n: int, p: float | None, source: int) -> None:
        """Reset per-run state.  ``p`` is ``None`` when unknown to nodes."""

    @abstractmethod
    def transmit_mask(
        self,
        t: int,
        informed: BoolArray,
        informed_round: IntArray,
        rng: np.random.Generator,
    ) -> BoolArray:
        """Decide who transmits in round ``t`` (1-indexed).

        Parameters
        ----------
        t: current round number, starting at 1.
        informed: current informed mask (read-only by convention).
        informed_round: round each node was informed (``-1`` if not yet;
            0 for the source).
        rng: the run's random stream.

        Returns
        -------
        Boolean mask; entries at uninformed nodes are ignored (the
        simulator masks them out).
        """

    def transmit_mask_batch(
        self,
        t: int,
        informed: BoolArray,
        informed_round: IntArray,
        rngs: Sequence[np.random.Generator],
    ) -> BoolArray:
        """Decide who transmits in round ``t`` across ``R`` trials at once.

        ``informed`` and ``informed_round`` have shape ``(n, R)`` and
        ``rngs`` holds one generator per column; the result is the
        ``(n, R)`` transmit mask.  This generic fallback evaluates
        :meth:`transmit_mask` column by column, so its draws are those
        of ``R`` single-trial calls; Bernoulli-style protocols override
        it with a vectorized implementation that draws the same.
        """
        n, reps = informed.shape
        out = np.empty((n, reps), dtype=bool)
        for r, rng in enumerate(rngs):
            out[:, r] = self.transmit_mask(
                t, informed[:, r], informed_round[:, r], rng
            )
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class FunctionProtocol(RadioProtocol):
    """Adapter turning a plain function into a protocol.

    The function receives ``(t, informed, informed_round, rng)`` and
    returns the transmit mask.  Handy for tests and one-off experiments.
    """

    def __init__(
        self,
        fn: Callable[[int, BoolArray, IntArray, np.random.Generator], BoolArray],
        name: str = "function",
    ):
        self._fn = fn
        self.name = name

    def transmit_mask(self, t, informed, informed_round, rng):
        return self._fn(t, informed, informed_round, rng)
