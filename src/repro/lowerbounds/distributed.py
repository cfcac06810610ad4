"""Theorem 8 best-of-family sweeps (distributed lower bound).

Theorem 8: with nodes knowing only ``n``, ``p`` and ``t``, no algorithm
broadcasts in ``o(ln n)`` rounds w.h.p.  Every such algorithm is an
*oblivious* protocol — a global transmit-probability sequence ``q(t)``
(proof of Theorem 8: "each informed node makes its decision to transmit at
time t by using n, p, and t only").

The testable finite-``n`` slice: build a rich parametric family of
oblivious candidates (constant rates, the Theorem 7 schedule with varied
constants, decay phases, polynomially rising/falling rates), measure each
candidate's expected completion time, and confirm the family **minimum**
still grows proportionally to ``ln n`` (experiment E6).
"""

from __future__ import annotations

import math

import numpy as np

from .._typing import SeedLike
from ..broadcast.distributed.oblivious import ObliviousProtocol
from ..errors import InvalidParameterError
from ..radio.model import RadioNetwork

__all__ = ["oblivious_candidates", "best_oblivious_time"]


def oblivious_candidates(n: int, p: float) -> list[ObliviousProtocol]:
    """A diverse family of oblivious protocols for the Theorem 8 sweep.

    Includes, for ``d = pn``:

    * constant rates ``q ∈ {1/2, 1/4, 1/d^0.5, 1/d, 2/d, 4/d, 1/(2d)}``;
    * Theorem 7-style switch schedules with the switch round and selective
      rate scaled by various constants;
    * decay-style phase schedules with phase lengths ``log₂ d`` and
      ``log₂ n``;
    * slowly falling rates ``q(t) = min(1, c / t)``.
    """
    if n < 2:
        raise InvalidParameterError(f"need n >= 2, got {n}")
    if not 0.0 < p <= 1.0:
        raise InvalidParameterError(f"p must lie in (0, 1], got {p}")
    d = max(p * n, 2.0)
    candidates: list[ObliviousProtocol] = []

    for q, tag in [
        (0.5, "const-1/2"),
        (0.25, "const-1/4"),
        (min(1.0, d**-0.5), "const-1/sqrt(d)"),
        (min(1.0, 1.0 / d), "const-1/d"),
        (min(1.0, 2.0 / d), "const-2/d"),
        (min(1.0, 4.0 / d), "const-4/d"),
        (min(1.0, 0.5 / d), "const-1/(2d)"),
    ]:
        candidates.append(ObliviousProtocol(lambda t, q=q: q, name=tag))

    base_switch = max(1, math.ceil(math.log(n) / math.log(d)))
    for scale in (0.5, 1.0, 1.5, 2.0):
        switch = max(1, int(round(base_switch * scale)))
        for sel in (0.5, 1.0, 2.0):
            rate = min(1.0, sel / d)
            mid = min(1.0, n / d**switch)

            def q_fn(t, switch=switch, mid=mid, rate=rate):
                if t < switch:
                    return 1.0
                if t == switch:
                    return mid
                return rate

            candidates.append(
                ObliviousProtocol(q_fn, name=f"switch-{scale:g}x-sel-{sel:g}")
            )

    for phase_len, tag in [
        (max(1, math.ceil(math.log2(d))), "decay-logd"),
        (max(1, math.ceil(math.log2(n)) + 1), "decay-logn"),
    ]:
        candidates.append(
            ObliviousProtocol(
                lambda t, k=phase_len: 2.0 ** (-((t - 1) % k)), name=tag
            )
        )

    for c in (1.0, 2.0, 4.0):
        candidates.append(
            ObliviousProtocol(lambda t, c=c: min(1.0, c / t), name=f"harmonic-{c:g}")
        )
    return candidates


def best_oblivious_time(
    network: RadioNetwork,
    candidates: list[ObliviousProtocol],
    *,
    trials: int = 3,
    source: int = 0,
    seed: SeedLike = None,
    max_rounds: int | None = None,
) -> tuple[float, str, dict[str, float]]:
    """Minimum mean completion time over the candidate family.

    Each candidate is run ``trials`` times with independent streams;
    candidates that fail to complete within the budget score ``inf``.
    The trials of one candidate advance together on the lockstep driver
    (:func:`~repro.experiments.runner.protocol_times`), which spawns
    their streams from ``seed`` exactly as ``trials`` serial
    ``simulate("broadcast", ...)`` runs would.

    Returns ``(best_mean_rounds, best_name, per_candidate_means)``.
    """
    # Imported here: the experiment catalogue imports this module.
    from ..experiments.runner import protocol_times

    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    means: dict[str, float] = {}
    best = math.inf
    best_name = ""
    for proto in candidates:
        times = protocol_times(
            network, proto, repetitions=trials, seed=seed, source=source,
            max_rounds=max_rounds,
        )
        mean = float(np.mean(times))
        means[proto.name] = mean
        if mean < best:
            best, best_name = mean, proto.name
    return best, best_name, means
