"""Scenario: computing an offline broadcast schedule at a base station.

When a controller knows the full topology (paper Section 3.1), it can
precompute who transmits in which round.  This example builds the Theorem 5
schedule, walks through its phases, verifies it against the radio model,
and compares it to the collision-free per-layer baseline to show what the
phase structure buys.

Run:  python examples/centralized_scheduling.py
"""

from repro import (
    ElsasserGasieniecScheduler,
    RadioNetwork,
    gnp_connected,
)
from repro.broadcast.centralized import (
    GreedyCoverScheduler,
    SequentialLayerScheduler,
)
from repro.graphs import layer_decomposition
from repro.radio import execute_schedule, verify_schedule
from repro.theory.bounds import centralized_bound


def main() -> None:
    n, d = 2000, 16.0
    p = d / n
    graph = gnp_connected(n, p, seed=5)
    network = RadioNetwork(graph)
    source = 0

    print(f"network: {graph}")
    ld = layer_decomposition(graph, source)
    print(f"BFS layers from node {source}: sizes {ld.sizes.tolist()}")
    print(f"paper bound ln n/ln d + ln d = {centralized_bound(n, p):.1f}\n")

    # --- The Theorem 5 schedule -------------------------------------
    scheduler = ElsasserGasieniecScheduler(seed=1)
    schedule = scheduler.build(graph, source)
    assert verify_schedule(network, schedule, source)

    print(f"Theorem 5 schedule: {len(schedule)} rounds, "
          f"{schedule.total_transmissions} total transmissions")
    print("phase structure:")
    for phase, rounds in schedule.phase_lengths().items():
        print(f"  {phase:<10} {rounds} round(s)")

    trace = execute_schedule(network, schedule, source, mode="filter")
    print("\nround  phase       transmitters  newly informed")
    for rec in trace.records:
        print(f"{rec.round_index:>5}  {rec.label:<10} {rec.num_transmitters:>12}  {rec.num_new:>14}")

    # --- Baselines ---------------------------------------------------
    greedy = GreedyCoverScheduler(seed=1).build(graph, source)
    sequential = SequentialLayerScheduler().build(graph, source)
    print(f"\ncomparison on the same graph (source {source}):")
    print(f"  {'scheduler':<22} {'rounds':>7} {'transmissions':>14}")
    for name, s in [
        ("Theorem 5 (EG)", schedule),
        ("greedy cover", greedy),
        ("sequential per-layer", sequential),
    ]:
        print(f"  {name:<22} {len(s):>7} {s.total_transmissions:>14}")

    print(
        "\nTakeaway: the sequential baseline is collision-free but pays one "
        "round per cover node (~n/d rounds for the big layer); the Theorem "
        "5 phases pack those transmissions into O(ln d) collision-aware "
        "rounds."
    )


if __name__ == "__main__":
    main()
