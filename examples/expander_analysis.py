"""Scenario: diagnosing *why* a topology broadcasts fast (or doesn't).

Given a zoo of candidate topologies, this example computes each one's
spectral gap, predicts its broadcast regime from the mixing scale
`ln n / gap`, then validates the prediction by simulation and dissects
one run's broadcast tree — the full mechanism-analysis workflow built on
`repro.theory.spectra` and `repro.radio.analysis`.

Run:  python examples/expander_analysis.py
"""

import numpy as np

from repro import DecayProtocol, RadioNetwork, gnp_connected, hypercube, simulate, torus_2d
from repro.broadcast.distributed import AgeBasedProtocol
from repro.graphs import random_geometric_connected, random_regular
from repro.radio import broadcast_tree, transmission_efficiency
from repro.rng import spawn_generators
from repro.theory.spectra import estimate_mixing_time, spectral_gap


def main() -> None:
    n = 1024
    zoo = {
        "G(n,p), d=16": gnp_connected(n, 16 / n, seed=71),
        "16-regular": random_regular(n, 16, seed=72),
        "hypercube(10)": hypercube(10),
        "RGG (unit square)": random_geometric_connected(n, seed=73),
        "torus 32x32": torus_2d(32, 32),
    }

    print("=== Part 1: spectra predict the broadcast regime ===")
    print(f"{'topology':<18} {'gap':>8} {'ln n/gap':>9} {'predicted':>12} {'measured':>9}")
    rows = []
    for idx, (name, g) in enumerate(zoo.items()):
        gap = spectral_gap(g)
        mixing = estimate_mixing_time(g)
        predicted = "O(ln n)" if gap > 0.05 else "diameter"
        times = []
        for rng in spawn_generators(idx, 5):
            trace = simulate(
                "broadcast", RadioNetwork(g), protocol=DecayProtocol(n), seed=rng,
                max_rounds=30000,
            )
            times.append(trace.completion_round)
        measured = float(np.mean(times))
        rows.append((name, gap, measured))
        print(f"{name:<18} {gap:>8.4f} {mixing:>9.1f} {predicted:>12} {measured:>9.1f}")

    fast = [t for _, gap, t in rows if gap > 0.05]
    slow = [t for _, gap, t in rows if gap <= 0.05]
    print(
        f"\nregime split honoured: max(expander) = {max(fast):.0f} < "
        f"min(small-gap) = {min(slow):.0f}"
    )

    print("\n=== Part 2: dissecting one broadcast tree (G(n,p)) ===")
    g = zoo["G(n,p), d=16"]
    net = RadioNetwork(g)
    trace = simulate(
        "broadcast", net, protocol=AgeBasedProtocol(n, 16 / n), seed=99, max_rounds=5000
    )
    tree = broadcast_tree(trace)
    counts = tree.children_counts()
    print(f"completion: {trace.completion_round} rounds, tree depth {tree.depth}")
    print(f"relays: {tree.num_relays()} of {n} nodes "
          f"({tree.num_relays() / n:.0%}); best informer reached "
          f"{int(counts.max())} nodes")
    print(f"transmissions per newly informed node: "
          f"{1 / transmission_efficiency(trace):.2f}")
    hist = tree.branching_histogram()
    top = ", ".join(f"{k}:{hist[k]}" for k in range(min(6, hist.size)))
    print(f"branching histogram (children: count) {top} ...")
    print(
        "\nReading: a handful of high-branching nodes — informed early, "
        "transmitting into still-dark neighbourhoods — carry the whole "
        "broadcast; the spectral gap is what guarantees such "
        "neighbourhoods keep existing at every scale."
    )


if __name__ == "__main__":
    main()
