"""Quickstart: broadcast a message through a random radio network.

Generates a supercritical G(n, p), runs the paper's distributed randomized
protocol (Theorem 7), and prints what happened round by round.

Run:  python examples/quickstart.py
"""

import math

from repro import (
    EGRandomizedProtocol,
    RadioNetwork,
    gnp_connected,
    simulate,
)
from repro.theory.bounds import distributed_bound


def main() -> None:
    # A 1000-node network with expected degree d = 4 ln n — comfortably
    # above the connectivity threshold, the regime the paper analyses.
    n = 1000
    p = 4 * math.log(n) / n
    graph = gnp_connected(n, p, seed=7)
    print(f"network: {graph}")

    network = RadioNetwork(graph)
    protocol = EGRandomizedProtocol(n, p)
    print(
        f"protocol: non-selective for {protocol.switch_round - 1} rounds, "
        f"then one n/d^D round (q={protocol.switch_probability:.3f}), "
        f"then 1/d-selective (q={protocol.selective_probability:.3f})"
    )

    trace = simulate("broadcast", network, protocol=protocol, source=0, p=p, seed=42)

    print(f"\nbroadcast completed in {trace.completion_round} rounds "
          f"(paper bound: O(ln n), ln n = {distributed_bound(n):.1f})")
    print(f"total transmissions: {trace.total_transmissions}")
    print(f"listeners lost to collisions (sum over rounds): {trace.total_collisions}")

    print("\nround  transmitters  newly informed  informed total")
    for rec in trace.records:
        print(
            f"{rec.round_index:>5}  {rec.num_transmitters:>12}  "
            f"{rec.num_new:>14}  {rec.informed_after:>14}"
        )

    from repro.experiments.report import format_sparkline

    print(f"\ninformed curve: {format_sparkline(trace.informed_curve())}")


if __name__ == "__main__":
    main()
