"""Experiments E18–E19: mechanism analysis.

* E18 — the anatomy of a broadcast: where the Theorem 7 protocol's speed
  actually comes from, read off the realised broadcast trees;
* E19 — the price of determinism: selective-family and id-slot protocols
  vs the randomized ones;
* E20 — k-token dissemination interpolating broadcast and gossip;
* E21 — broadcast time against spectral expansion across families;
* E23 — the agent-based model of the paper's reference [13].
"""

from __future__ import annotations

import math

import numpy as np

from .._typing import SeedLike
from ..api import simulate
from ..broadcast.distributed import EGRandomizedProtocol, IdSlotProtocol
from ..broadcast.selectors import SelectiveFamilyProtocol, random_selective_family
from ..graphs.layers import LayerDecomposition
from ..graphs.random_graphs import gnp_connected
from ..radio.analysis import broadcast_tree, collision_profile, transmission_efficiency
from ..radio.model import RadioNetwork
from ..rng import derive_generator, spawn_generators
from .runner import ExperimentResult, protocol_times

__all__ = [
    "e18_broadcast_anatomy",
    "e19_price_of_determinism",
    "e20_multimessage_continuum",
    "e21_spectral_expansion",
    "e23_agent_based",
]


# ----------------------------------------------------------------------
# E18 — anatomy of a broadcast
# ----------------------------------------------------------------------


def e18_broadcast_anatomy(quick: bool = True, seed: SeedLike = 0) -> ExperimentResult:
    """Broadcast-tree structure of the Theorem 7 protocol vs BFS ground truth."""
    ns = [256, 512, 1024] if quick else [256, 512, 1024, 2048, 4096]
    reps = 5 if quick else 10
    result = ExperimentResult(
        experiment_id="E18",
        title="Anatomy of a Theorem 7 broadcast (d = 4 ln n)",
        claim=(
            "Mechanism analysis: the realised broadcast tree is only "
            "O(1) deeper than the BFS ball (the flood phase loses almost "
            "nothing to collisions), a few percent of nodes relay for "
            "everyone, and one uncontested transmission informs several "
            "nodes on average — the one-to-many gain collisions never "
            "fully cancel"
        ),
        columns=[
            "n",
            "bfs depth",
            "tree depth mean",
            "relay fraction",
            "max branching",
            "efficiency (new/tx)",
            "collision frac mean",
        ],
    )
    for i, n in enumerate(ns):
        p = 4.0 * math.log(n) / n
        g = gnp_connected(n, p, derive_generator(seed, 1, i))
        net = RadioNetwork(g)
        bfs_depth = LayerDecomposition(g, 0).depth
        depths, relays, branchings, effs, colls = [], [], [], [], []
        for rng in spawn_generators(derive_generator(seed, 2, i), reps):
            trace = simulate(
                "broadcast", net, protocol=EGRandomizedProtocol(n, p), seed=rng, p=p
            )
            tree = broadcast_tree(trace)
            depths.append(tree.depth)
            relays.append(tree.num_relays() / n)
            branchings.append(int(tree.children_counts().max()))
            effs.append(transmission_efficiency(trace))
            prof = collision_profile(trace)
            colls.append(float(np.mean(prof)))
        result.rows.append(
            {
                "n": n,
                "bfs depth": bfs_depth,
                "tree depth mean": float(np.mean(depths)),
                "relay fraction": float(np.mean(relays)),
                "max branching": float(np.mean(branchings)),
                "efficiency (new/tx)": float(np.mean(effs)),
                "collision frac mean": float(np.mean(colls)),
            }
        )
    result.notes.append(
        "tree depth within a constant of BFS depth = the diameter term is "
        "fully realised; max branching ~ d = the big-bang round's "
        "one-shot gain; relay fraction well below 1 = most nodes never "
        "need to transmit usefully"
    )
    return result


# ----------------------------------------------------------------------
# E19 — the price of determinism
# ----------------------------------------------------------------------


def e19_price_of_determinism(quick: bool = True, seed: SeedLike = 0) -> ExperimentResult:
    """Deterministic protocols (selective family, id-slot) vs randomized."""
    ns = [128, 256] if quick else [128, 256, 512]
    reps = 5 if quick else 10
    result = ExperimentResult(
        experiment_id="E19",
        title="Deterministic vs randomized distributed broadcast (d = 4 ln n)",
        claim=(
            "Related work §1.2: pre-randomization deterministic "
            "techniques (selective families; trivial id slots) pay "
            "polynomial factors over the paper's O(ln n) randomized "
            "protocol — the gap the paper's results close"
        ),
        columns=[
            "n",
            "eg mean (randomized)",
            "selective-family rounds",
            "family cycle length",
            "id-slot rounds",
            "id-slot / eg",
        ],
    )
    for i, n in enumerate(ns):
        p = 4.0 * math.log(n) / n
        d = int(round(p * n))
        g = gnp_connected(n, p, derive_generator(seed, 1, i))
        net = RadioNetwork(g)
        eg = protocol_times(
            net, EGRandomizedProtocol(n, p), repetitions=reps,
            seed=derive_generator(seed, 2, i), p=p,
        )
        fam = random_selective_family(n, 2 * d, seed=derive_generator(seed, 3, i))
        sel_proto = SelectiveFamilyProtocol(n, fam)
        sel = simulate(
            "broadcast", net, protocol=sel_proto, seed=0, max_rounds=len(fam) * 60
        ).completion_round
        ids = simulate(
            "broadcast", net, protocol=IdSlotProtocol(n), seed=0, max_rounds=n * n
        ).completion_round
        eg_mean = float(np.mean(eg))
        result.rows.append(
            {
                "n": n,
                "eg mean (randomized)": eg_mean,
                "selective-family rounds": sel,
                "family cycle length": len(fam),
                "id-slot rounds": ids,
                "id-slot / eg": ids / eg_mean,
            }
        )
    result.notes.append(
        "both deterministic baselines are oblivious to their luck: the "
        "id-slot ratio grows roughly linearly in n, and the selective "
        "family pays its Θ(k log² n) cycle per layer — randomization is "
        "what buys the ln n"
    )
    return result


# ----------------------------------------------------------------------
# E20 — the broadcast ↔ gossip continuum (k tokens)
# ----------------------------------------------------------------------


def e20_multimessage_continuum(quick: bool = True, seed: SeedLike = 0) -> ExperimentResult:
    """Dissemination time as the token count interpolates broadcast → gossip."""
    from ..broadcast.distributed import UniformProtocol
    from .runner import multimessage_times

    n = 256 if quick else 512
    # The batched lockstep engine made repetitions cheap; 8 quick trials
    # cost less wall-clock than the 3 serial ones they replaced.
    reps = 8 if quick else 16
    d = 4.0 * math.log(n)
    p = d / n
    ks = [1, 4, 16, 64, n]
    g = gnp_connected(n, p, derive_generator(seed, 1))
    net = RadioNetwork(g)
    q = min(1.0, 1.0 / d)
    result = ExperimentResult(
        experiment_id="E20",
        title=f"k-token dissemination: broadcast -> gossip (n = {n}, uniform 1/d)",
        claim=(
            "Extension: between broadcast (k=1, O(ln n)) and gossip (k=n, "
            "Θ(d ln n)) the time grows with the number of token holders "
            "that must win the channel, then saturates once the channel "
            "is fully contended"
        ),
        columns=["k", "rounds mean", "rounds max", "vs broadcast"],
    )
    base = None
    for i, k in enumerate(ks):
        # One token placement per k (shared by all repetitions) keeps the
        # sweep on the batched lockstep engine; the timing spread across
        # placements is small next to the channel randomness.
        srcs = derive_generator(seed, 3, i).choice(n, size=k, replace=False)
        times = multimessage_times(
            net,
            UniformProtocol(q),
            srcs,
            repetitions=reps,
            seed=derive_generator(seed, 2, i),
            max_rounds=40000,
        )
        mean = float(np.mean(times))
        if base is None:
            base = mean
        result.rows.append(
            {
                "k": k,
                "rounds mean": mean,
                "rounds max": float(np.max(times)),
                "vs broadcast": mean / base,
            }
        )
    result.notes.append(
        "the saturation knee sits where holders ~ n/d: beyond it extra "
        "tokens ride along for free because every channel slot is already "
        "contested"
    )
    return result


# ----------------------------------------------------------------------
# E21 — broadcast time vs spectral expansion
# ----------------------------------------------------------------------


def e21_spectral_expansion(quick: bool = True, seed: SeedLike = 0) -> ExperimentResult:
    """Does the spectral gap predict which families broadcast in O(ln n)?"""
    from ..broadcast.distributed import DecayProtocol
    from ..graphs.families import hypercube, random_regular, torus_2d
    from ..graphs.geometric import random_geometric_connected
    from ..theory.spectra import estimate_mixing_time, spectral_gap

    n = 1024
    reps = 5 if quick else 10
    d = 16.0
    families = {
        "gnp d=16": gnp_connected(n, d / n, derive_generator(seed, 1)),
        "random-regular d=16": random_regular(n, int(d), derive_generator(seed, 2)),
        "hypercube(10)": hypercube(10),
        "rgg": random_geometric_connected(n, seed=derive_generator(seed, 3)),
        "torus 32x32": torus_2d(32, 32),
    }
    result = ExperimentResult(
        experiment_id="E21",
        title=f"Broadcast time vs spectral gap across families (n = {n})",
        claim=(
            "Mechanism: the O(ln n) regime is an expander phenomenon — "
            "broadcast time rises as the spectral gap of the normalised "
            "adjacency falls, with the mixing scale ln n / gap ordering "
            "the families correctly"
        ),
        columns=["family", "spectral gap", "ln n / gap", "decay mean"],
    )
    gaps, times = [], []
    for i, (name, g) in enumerate(families.items()):
        gap = spectral_gap(g)
        decay = protocol_times(
            RadioNetwork(g), DecayProtocol(n), repetitions=reps,
            seed=derive_generator(seed, 4, i), max_rounds=30000,
        )
        gaps.append(gap)
        times.append(float(np.mean(decay)))
        result.rows.append(
            {
                "family": name,
                "spectral gap": gap,
                "ln n / gap": estimate_mixing_time(g),
                "decay mean": float(np.mean(decay)),
            }
        )
    gaps_arr = np.array(gaps)
    times_arr = np.array(times)
    threshold = 0.05  # expander vs diameter-bound regime split
    fast = times_arr[gaps_arr >= threshold]
    slow = times_arr[gaps_arr < threshold]
    separated = bool(fast.size and slow.size and fast.max() < slow.min())
    result.notes.append(
        f"regime separation at gap ≈ {threshold}: every large-gap family "
        f"beats every small-gap family = {separated}. Within the "
        "small-gap regime the gap does not totally order the families "
        "(RGG vs torus) — there the diameter, not the mixing rate, is "
        "the binding constraint"
    )
    return result


# ----------------------------------------------------------------------
# E23 — the agent-based model (paper reference [13])
# ----------------------------------------------------------------------


def e23_agent_based(quick: bool = True, seed: SeedLike = 0) -> ExperimentResult:
    """Agent-based broadcasting: mobility replaces the radio channel."""
    n = 512 if quick else 1024
    reps = 3 if quick else 6
    d = 4.0 * math.log(n)
    g = gnp_connected(n, d / n, derive_generator(seed, 1))
    ks = [1, 4, 16, 64, 256]
    result = ExperimentResult(
        experiment_id="E23",
        title=f"Agent-based broadcast vs number of agents (n = {n})",
        claim=(
            "Related work [13]: agent-based broadcasting completes in "
            "O(max{log n, D}) rounds on random graphs — with enough "
            "agents; below that, per-agent cover time Θ(n log n / k) "
            "dominates, falling inversely in k"
        ),
        columns=["agents k", "rounds mean", "rounds max", "k * rounds"],
    )
    for i, k in enumerate(ks):
        times = []
        for rng in spawn_generators(derive_generator(seed, 2, i), reps):
            times.append(
                simulate("agents", g, num_agents=k, seed=rng).completion_round
            )
        result.rows.append(
            {
                "agents k": k,
                "rounds mean": float(np.mean(times)),
                "rounds max": float(np.max(times)),
                "k * rounds": float(k * np.mean(times)),
            }
        )
    result.notes.append(
        "k * rounds roughly constant across small k = the cover-time "
        "regime (total agent-steps is the invariant); the flattening at "
        "large k is the O(max{log n, D}) floor the reference proves"
    )
    return result
