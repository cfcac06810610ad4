"""Scenario: dissemination in a hostile deployment — faults and gossip.

Two production concerns the core theorems idealise away:

1. **Things fail.**  Part 1 stress-tests the Theorem 7 protocol and Decay
   under node crashes and increasingly lossy links, reporting completion
   time and success rate — the robustness/speed trade-off a deployment
   has to pick.
2. **Things get hostile.**  Part 2 turns the benign faults into
   adversaries — a roaming jammer and forgetful churn — and shows the
   stock Theorem 7 schedule stalling where the epoch-restarting wrapper
   of the *same rule* completes.  Trials run with
   ``raise_on_incomplete=False``, so a stall is a measured outcome that
   reports how far the broadcast got.
3. **Everyone has something to say.**  Part 3 switches from broadcast
   (one rumor) to gossip (a rumor per node, the paper's open problem) and
   shows where the time goes: injecting n rumors through one shared
   channel, not spreading them.

Run:  python examples/resilient_broadcast.py
"""

import math

import numpy as np

from repro import DecayProtocol, EGRandomizedProtocol, RadioNetwork, gnp_connected, simulate
from repro.broadcast.distributed import EpochRestartProtocol, UniformProtocol
from repro.faults import (
    AdversarialJammer,
    ChurnSchedule,
    CrashSchedule,
    FaultPlan,
    LossyLinkModel,
)
from repro.rng import spawn_generators


def part1_faults() -> None:
    n = 512
    d = 4 * math.log(n)
    p = d / n
    graph = gnp_connected(n, p, seed=21)
    net = RadioNetwork(graph)
    reps = 8

    print(f"=== Part 1: broadcast under faults (n={n}, 10% crashing nodes) ===")
    print(f"{'reliability':>11} | {'EG rounds':>9} {'EG ok':>6} | {'Decay rounds':>12} {'Decay ok':>8}")
    for rel in (1.0, 0.8, 0.5, 0.3):
        links = LossyLinkModel(graph, rel) if rel < 1.0 else None
        stats = {}
        for proto_idx, (name, factory) in enumerate([
            ("eg", lambda: EGRandomizedProtocol(n, p)),
            ("decay", lambda: DecayProtocol(n)),
        ]):
            times, ok = [], 0
            for rng in spawn_generators(1000 * proto_idx + int(rel * 10), reps):
                crashes = CrashSchedule.random(n, 0.1, 60, seed=rng, protect=[0])
                trace = simulate(
                    "broadcast", net, protocol=factory(),
                    faults=FaultPlan(crashes=crashes, links=links),
                    seed=rng, p=p, max_rounds=4000, raise_on_incomplete=False,
                )
                if trace.completed:
                    ok += 1
                    times.append(trace.completion_round)
            stats[name] = (np.mean(times) if times else float("inf"), ok / reps)
        print(
            f"{rel:>11.1f} | {stats['eg'][0]:>9.1f} {stats['eg'][1]:>6.0%} | "
            f"{stats['decay'][0]:>12.1f} {stats['decay'][1]:>8.0%}"
        )
    print(
        "Reading: EG keeps winning on speed at moderate loss; its margin "
        "narrows as the channel degrades and Decay's redundancy stops "
        "being wasted.\n"
    )


def part2_adversaries() -> None:
    n = 256
    d = 4 * math.log(n)
    p = d / n
    graph = gnp_connected(n, p, seed=42)
    net = RadioNetwork(graph)
    trials = 8
    scenarios = [
        (
            "jammer k=8 roaming",
            lambda rng: FaultPlan(
                jammer=AdversarialJammer(graph, 8, strategy="random", exclude=[0])
            ),
        ),
        (
            "churn 60% forgetful",
            lambda rng: FaultPlan(
                churn=ChurnSchedule.random(
                    n, 0.6, 120, mean_downtime=40.0, seed=rng, protect=[0]
                )
            ),
        ),
    ]
    protocols = [
        ("eg strict", lambda: EGRandomizedProtocol(n, p, strict_participation=True)),
        ("epoch restart", lambda: EpochRestartProtocol.for_eg(
            n, p, strict_participation=True)),
    ]
    print(f"=== Part 2: adversaries — stock vs epoch-restart (n={n}) ===")
    print(f"{'scenario':>20} | {'protocol':>14} {'ok':>5} {'rounds':>7} {'worst frac':>10}")
    for label, plan_fn in scenarios:
        for pname, factory in protocols:
            times, fracs = [], []
            for rng in spawn_generators(3, trials):
                trace = simulate(
                    "broadcast", net, protocol=factory(), faults=plan_fn(rng),
                    seed=rng, p=p, max_rounds=600, check_connected=False,
                    raise_on_incomplete=False,
                )
                if trace.completed:
                    times.append(trace.completion_round)
                fracs.append(trace.num_informed / n)
            mean = np.mean(times) if times else float("inf")
            print(
                f"{label:>20} | {pname:>14} {len(times) / trials:>5.0%} "
                f"{mean:>7.1f} {min(fracs):>10.2f}"
            )
    print(
        "Reading: forgetful churn punches permanent holes in the strict "
        "schedule's coverage (it stalls at a partial informed fraction), "
        "while re-arming the same schedule every epoch re-floods the "
        "holes and completes.\n"
    )


def part3_gossip() -> None:
    print("=== Part 3: gossip — every node starts with its own rumor ===")
    print(f"{'n':>6} {'broadcast':>10} {'gossip':>8} {'accumulate':>11} {'disseminate':>12}")
    for i, n in enumerate((128, 256, 512)):
        d = 4 * math.log(n)
        p = d / n
        graph = gnp_connected(n, p, seed=31 + i)
        net = RadioNetwork(graph)
        q = min(1.0, 1.0 / d)
        gossip = simulate("gossip", net, protocol=UniformProtocol(q), seed=i, max_rounds=20000)
        bcast = simulate(
            "broadcast", net, protocol=UniformProtocol(q), seed=i, max_rounds=20000
        ).completion_round
        accumulate = gossip.rounds_until_first_complete_node()
        print(
            f"{n:>6} {bcast:>10} {gossip.completion_round:>8} "
            f"{accumulate:>11} {gossip.completion_round - accumulate:>12}"
        )
    print(
        "\nReading: gossip costs a factor ~d over broadcast, and almost "
        "all of it is the accumulate phase — n rumors queuing for one "
        "collision-prone channel. This is the open problem the paper's "
        "conclusions point at, quantified."
    )


if __name__ == "__main__":
    part1_faults()
    part2_adversaries()
    part3_gossip()
