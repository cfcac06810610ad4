"""Scenario: measuring and fitting the protocols' growth laws.

A condensed version of experiments E1/E4: sweep network sizes, measure
centralized schedule lengths and distributed completion times, then let
:mod:`repro.theory.fitting` decide which growth law explains the data —
turning the paper's O(·) statements into numbers you can check.

Run:  python examples/scaling_study.py
"""

import math

import numpy as np

from repro import (
    EGRandomizedProtocol,
    ElsasserGasieniecScheduler,
    RadioNetwork,
    gnp_connected,
)
from repro.experiments.runner import protocol_times
from repro.theory.bounds import centralized_bound, distributed_bound
from repro.theory.fitting import compare_models, linear_fit


def main() -> None:
    ns = [128, 256, 512, 1024, 2048]
    reps = 5

    cen_rounds, dist_rounds = [], []
    print(f"{'n':>6} {'d':>7} {'centralized':>12} {'distributed':>12} "
          f"{'bound C':>8} {'bound D':>8}")
    for i, n in enumerate(ns):
        p = 4 * math.log(n) / n
        graph = gnp_connected(n, p, seed=100 + i)
        network = RadioNetwork(graph)

        schedule = ElsasserGasieniecScheduler(seed=i).build(graph, 0)
        cen = len(schedule)
        dist = float(np.mean(protocol_times(
            network, EGRandomizedProtocol(n, p), repetitions=reps, seed=i, p=p
        )))
        cen_rounds.append(cen)
        dist_rounds.append(dist)
        print(f"{n:>6} {p * n:>7.1f} {cen:>12} {dist:>12.1f} "
              f"{centralized_bound(n, p):>8.1f} {distributed_bound(n):>8.1f}")

    print("\nfits against ln n:")
    print(" centralized:", linear_fit(np.log(ns), np.array(cen_rounds, float), "ln n"))
    print(" distributed:", linear_fit(np.log(ns), np.array(dist_rounds), "ln n"))

    best, results = compare_models(np.array(ns, float), np.array(dist_rounds))
    print("\nwhich growth law explains the distributed times best?")
    for name, fit in sorted(results.items(), key=lambda kv: -kv[1].r_squared):
        print(f"  {name:<8} R² = {fit.r_squared:.4f}")
    print(f"winner at this ladder: {best}")
    gap = results["n"].r_squared - results["ln n"].r_squared
    print(
        "note: at laptop-scale ladders the logarithmic laws (ln n, ln ln n) "
        "are near-ties — the decisive Theorem 7 signature is that both "
        f"beat polynomial growth (ln n vs n R² gap: {-gap:.3f}); the full "
        "E4 experiment extends the ladder for a sharper separation"
    )


if __name__ == "__main__":
    main()
