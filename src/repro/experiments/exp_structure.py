"""Experiments E7–E12: structural lemmas, dense regime, model comparisons.

See DESIGN.md §4 for the claim-to-experiment index.
"""

from __future__ import annotations

import math

import numpy as np

from .._typing import SeedLike
from ..api import simulate
from ..broadcast.centralized import GreedyCoverScheduler
from ..broadcast.distributed import DecayProtocol, EGRandomizedProtocol
from ..graphs.covering import (
    greedy_independent_cover,
    greedy_independent_matching,
)
from ..graphs.families import hypercube, random_regular, torus_2d
from ..graphs.layers import LayerDecomposition
from ..graphs.random_graphs import gnp_connected
from ..radio.model import RadioNetwork
from ..rng import as_generator, derive_generator, spawn_generators
from ..theory.bounds import dense_bound
from ..theory.fitting import linear_fit
from .runner import ExperimentResult, protocol_times

__all__ = [
    "e07_layer_growth",
    "e08_layer_tree_structure",
    "e09_covering_matching",
    "e10_dense_regime",
    "e11_model_separation",
    "e12_graph_families",
    "e22_model_equivalence",
]


# ----------------------------------------------------------------------
# E7 — Lemma 3: layer sizes grow like d^i
# ----------------------------------------------------------------------


def e07_layer_growth(quick: bool = True, seed: SeedLike = 0) -> ExperimentResult:
    """``|T_i(u)|`` against the ``d^i`` prediction, plus big-layer counts."""
    configs = [(512, 8.0), (1024, 12.0), (2048, 16.0)]
    if not quick:
        configs += [(4096, 16.0), (8192, 24.0)]
    reps = 3 if quick else 5
    result = ExperimentResult(
        experiment_id="E7",
        title="BFS layer sizes vs d^i (Lemma 3)",
        claim=(
            "Lemma 3: |T_i(u)| ≈ d^i until layers saturate; only O(1) "
            "layers are big (the proof bounds layers of size Ω(n/d³); at "
            "simulable sizes the sharp threshold is n/d, the one Theorem "
            "5's algorithm switches phases on)"
        ),
        columns=[
            "n",
            "d",
            "|T1|/d",
            "|T2|/d^2",
            "depth",
            "layers >= n/d",
        ],
    )
    for i, (n, d) in enumerate(configs):
        p = d / n
        r1, r2, depths, bigs = [], [], [], []
        for rng in spawn_generators(derive_generator(seed, 1, i), reps):
            g = gnp_connected(n, p, rng)
            ld = LayerDecomposition(g, int(rng.integers(n)))
            if ld.num_layers > 1:
                r1.append(ld.sizes[1] / d)
            if ld.num_layers > 2:
                r2.append(ld.sizes[2] / d**2)
            depths.append(ld.depth)
            bigs.append(ld.big_layer_count(n / d))
        result.rows.append(
            {
                "n": n,
                "d": d,
                "|T1|/d": float(np.mean(r1)),
                "|T2|/d^2": float(np.mean(r2)) if r2 else None,
                "depth": float(np.mean(depths)),
                "layers >= n/d": float(np.mean(bigs)),
            }
        )
    result.notes.append(
        "|T1|/d and |T2|/d² near 1 confirm geometric layer growth; the "
        "big-layer count staying O(1) while n grows is the second half of "
        "the lemma"
    )
    return result


# ----------------------------------------------------------------------
# E8 — Lemma 3: the ball around u is almost a tree
# ----------------------------------------------------------------------


def e08_layer_tree_structure(quick: bool = True, seed: SeedLike = 0) -> ExperimentResult:
    """Multi-parent fractions, intra-layer edges, sibling-group sizes."""
    configs = [(1024, 10.0), (2048, 12.0)] if quick else [(1024, 10.0), (2048, 12.0), (4096, 14.0), (8192, 16.0)]
    reps = 3 if quick else 5
    result = ExperimentResult(
        experiment_id="E8",
        title="Near-tree structure of BFS balls (Lemma 3)",
        claim=(
            "Lemma 3: below the last few layers, the fraction of nodes with "
            ">1 parent is O(1/d²) per layer, intra-layer edges are rare, "
            "and sibling groups have size O(d)"
        ),
        columns=[
            "n",
            "d",
            "multi-parent frac (layer 2) * d^2",
            "intra-layer edges / |T_2|",
            "max sibling group / d (layer 2)",
            "tree excess / n",
        ],
    )
    for i, (n, d) in enumerate(configs):
        p = d / n
        mp, intra, sib, excess = [], [], [], []
        for rng in spawn_generators(derive_generator(seed, 1, i), reps):
            g = gnp_connected(n, p, rng)
            ld = LayerDecomposition(g, int(rng.integers(n)))
            layer = 2 if ld.num_layers > 2 else ld.num_layers - 1
            if layer >= 1 and ld.sizes[layer] > 0:
                mp.append(ld.multi_parent_count(layer) / ld.sizes[layer] * d**2)
                intra.append(ld.intra_layer_edge_counts[layer] / ld.sizes[layer])
                sizes = ld.sibling_group_sizes(layer)
                if sizes.size:
                    sib.append(sizes[0] / d)
            excess.append(ld.tree_excess / n)
        result.rows.append(
            {
                "n": n,
                "d": d,
                "multi-parent frac (layer 2) * d^2": float(np.mean(mp)),
                "intra-layer edges / |T_2|": float(np.mean(intra)),
                "max sibling group / d (layer 2)": float(np.mean(sib)) if sib else None,
                "tree excess / n": float(np.mean(excess)),
            }
        )
    result.notes.append(
        "all four statistics staying O(1) (not growing with n) is the "
        "lemma's finite-n signature"
    )
    return result


# ----------------------------------------------------------------------
# E9 — Lemma 4 + Proposition 2: covers and matchings between random sets
# ----------------------------------------------------------------------


def e09_covering_matching(quick: bool = True, seed: SeedLike = 0) -> ExperimentResult:
    """Independent-cover coverage fraction and matching completeness."""
    n = 1024 if quick else 4096
    d = 16.0
    p = d / n
    reps = 5 if quick else 10
    result = ExperimentResult(
        experiment_id="E9",
        title=f"Independent covers and matchings between random sets (n = {n}, d = {d:g})",
        claim=(
            "Lemma 4: a random X of size Θ(n) independently covers Ω(|Y|) of "
            "a comparable Y; when |X|/|Y| = Ω(d²) there is an independent "
            "matching of all of Y"
        ),
        columns=[
            "|Y|",
            "|X|/|Y|",
            "indep-cover coverage",
            "matching completeness",
        ],
    )
    y_fracs = [0.5, 0.25, 1.0 / d, 1.0 / d**2]
    for i, yf in enumerate(y_fracs):
        cov_fracs, match_fracs = [], []
        for rng in spawn_generators(derive_generator(seed, 1, i), reps):
            g = gnp_connected(n, p, rng)
            perm = rng.permutation(n)
            y_size = max(4, int(round(yf * n)))
            Y = np.sort(perm[:y_size]).astype(np.int64)
            X = np.sort(perm[y_size:]).astype(np.int64)
            _, informed = greedy_independent_cover(g, X, Y, seed=rng)
            cov_fracs.append(informed.size / Y.size)
            pairs = greedy_independent_matching(g, X, Y, seed=rng)
            match_fracs.append(pairs.shape[0] / Y.size)
        result.rows.append(
            {
                "|Y|": max(4, int(round(yf * n))),
                "|X|/|Y|": (1.0 - yf) / yf,
                "indep-cover coverage": float(np.mean(cov_fracs)),
                "matching completeness": float(np.mean(match_fracs)),
            }
        )
    result.notes.append(
        "coverage >= a constant fraction in every row = Lemma 4 part 1; "
        "matching completeness -> 1 once |X|/|Y| reaches ~d² = "
        f"{d**2:.0f} = Lemma 4 part 2"
    )
    return result


# ----------------------------------------------------------------------
# E10 — dense regime: p = 1 - f(n)
# ----------------------------------------------------------------------


def e10_dense_regime(quick: bool = True, seed: SeedLike = 0) -> ExperimentResult:
    """Broadcast rounds on dense ``G(n, 1-f)`` vs ``ln n / ln(1/f)``."""
    ns = [256, 512] if quick else [256, 512, 1024]
    fs = [0.5, 0.3, 0.1, 0.05]
    reps = 3 if quick else 5
    result = ExperimentResult(
        experiment_id="E10",
        title="Dense regime: centralized rounds for p = 1 - f",
        claim=(
            "Section 3.1 (end): for p = 1 - f(n), f ∈ [1/n, 1/2], "
            "broadcasting takes Θ(ln n / ln(1/f)) rounds"
        ),
        columns=["n", "f", "bound ln n/ln(1/f)", "rounds mean", "rounds max"],
    )
    xs, ys = [], []
    for i, n in enumerate(ns):
        for j, f in enumerate(fs):
            p = 1.0 - f
            rounds = []
            for k, rng in enumerate(spawn_generators(derive_generator(seed, 1, i, j), reps)):
                g = gnp_connected(n, p, rng)
                sch = GreedyCoverScheduler(seed=rng).build(g, 0)
                rounds.append(len(sch))
            b = dense_bound(n, f)
            xs.append(b)
            ys.append(float(np.mean(rounds)))
            result.rows.append(
                {
                    "n": n,
                    "f": f,
                    "bound ln n/ln(1/f)": b,
                    "rounds mean": float(np.mean(rounds)),
                    "rounds max": float(np.max(rounds)),
                }
            )
    result.fits["rounds vs ln n/ln(1/f)"] = linear_fit(
        np.array(xs), np.array(ys), "ln n/ln(1/f)"
    )
    return result


# ----------------------------------------------------------------------
# E11 — model separation: radio vs single-port
# ----------------------------------------------------------------------


def e11_model_separation(quick: bool = True, seed: SeedLike = 0) -> ExperimentResult:
    """Radio broadcast vs push / push–pull rumor spreading, same graphs."""
    ns = [128, 256, 512, 1024] if quick else [128, 256, 512, 1024, 2048, 4096]
    reps = 5 if quick else 10
    result = ExperimentResult(
        experiment_id="E11",
        title="Radio (collisions) vs single-port (no collisions), d = 4 ln n",
        claim=(
            "Related work §1.2: both models finish in Θ(ln n) on G(n, p) — "
            "collisions cost a constant factor, not a growth-rate change"
        ),
        columns=["n", "radio eg mean", "push mean", "push-pull mean", "radio / push"],
    )
    for i, n in enumerate(ns):
        p = 4.0 * math.log(n) / n
        g = gnp_connected(n, p, derive_generator(seed, 1, i))
        net = RadioNetwork(g)
        eg = protocol_times(
            net, EGRandomizedProtocol(n, p), repetitions=reps,
            seed=derive_generator(seed, 2, i), p=p,
        )
        push = [
            simulate("push", g, seed=rng).completion_round
            for rng in spawn_generators(derive_generator(seed, 3, i), reps)
        ]
        pp = [
            simulate("push-pull", g, seed=rng).completion_round
            for rng in spawn_generators(derive_generator(seed, 4, i), reps)
        ]
        result.rows.append(
            {
                "n": n,
                "radio eg mean": float(np.mean(eg)),
                "push mean": float(np.mean(push)),
                "push-pull mean": float(np.mean(pp)),
                "radio / push": float(np.mean(eg)) / float(np.mean(push)),
            }
        )
    result.notes.append(
        "push reference: log2 n + ln n + o(log n) (Frieze–Grimmett/Pittel); "
        "a roughly constant radio/push ratio is the expected separation"
    )
    return result


# ----------------------------------------------------------------------
# E12 — graph-family robustness
# ----------------------------------------------------------------------


def e12_graph_families(quick: bool = True, seed: SeedLike = 0) -> ExperimentResult:
    """The distributed protocols on hypercube / torus / regular vs G(n, p)."""
    reps = 5 if quick else 10
    dim = 10
    n = 1 << dim
    side = 32
    deg = 16
    rng0 = as_generator(derive_generator(seed, 1))
    families = {
        "gnp d=16": gnp_connected(n, deg / n, rng0),
        "hypercube(10)": hypercube(dim),
        f"torus {side}x{side}": torus_2d(side, side),
        "random-regular d=16": random_regular(n, deg, derive_generator(seed, 2)),
    }
    result = ExperimentResult(
        experiment_id="E12",
        title=f"Distributed protocols across graph families (n = {n})",
        claim=(
            "Related work (Feige et al.): O(ln n) behaviour is specific to "
            "low-diameter expanders; high-diameter families pay their "
            "diameter, which Decay tolerates and the G(n,p)-tuned Theorem 7 "
            "protocol does not"
        ),
        columns=["family", "avg degree", "eg mean", "decay mean"],
    )
    for i, (name, g) in enumerate(families.items()):
        net = RadioNetwork(g)
        d_eff = g.average_degree
        p_eff = d_eff / n
        cap = 40000
        eg = protocol_times(
            net, EGRandomizedProtocol(n, p_eff), repetitions=reps,
            seed=derive_generator(seed, 3, i), p=p_eff, max_rounds=cap,
        )
        decay = protocol_times(
            net, DecayProtocol(n), repetitions=reps,
            seed=derive_generator(seed, 4, i), max_rounds=cap,
        )
        result.rows.append(
            {
                "family": name,
                "avg degree": d_eff,
                "eg mean": float(np.mean(eg)),
                "decay mean": float(np.mean(decay)),
            }
        )
    result.notes.append(
        "the torus row shows the diameter penalty; hypercube and "
        "random-regular behave like G(n, p) as the rumor-spreading "
        "literature predicts"
    )
    return result


# ----------------------------------------------------------------------
# E22 — model equivalence: G(n, p) vs Erdős–Rényi G(n, m)
# ----------------------------------------------------------------------


def e22_model_equivalence(quick: bool = True, seed: SeedLike = 0) -> ExperimentResult:
    """The paper's §1.1 claim: results transfer between G(n,p) and G(n,m)."""
    from ..broadcast.centralized import ElsasserGasieniecScheduler
    from ..graphs.properties import is_connected
    from ..graphs.random_graphs import gnm, pair_count

    ns = [256, 512, 1024] if quick else [256, 512, 1024, 2048, 4096]
    reps = 5 if quick else 10
    d = 16.0
    result = ExperimentResult(
        experiment_id="E22",
        title="G(n, p) vs G(n, m) at matched edge budgets (d = 16)",
        claim=(
            "Section 1.1: 'our results also hold for the Erdős–Rényi "
            "graphs' — broadcast times on G(n, m) with m = E[edges of "
            "G(n, p)] are statistically indistinguishable from G(n, p)"
        ),
        columns=[
            "n",
            "gnp eg-protocol mean",
            "gnm eg-protocol mean",
            "gnp schedule rounds",
            "gnm schedule rounds",
            "ratio (gnm/gnp, protocol)",
        ],
    )
    for i, n in enumerate(ns):
        p = d / n
        m = int(round(pair_count(n) * p))

        def sample_gnm(rng):
            for _ in range(100):
                g = gnm(n, m, rng)
                if is_connected(g):
                    return g
            raise RuntimeError("no connected G(n, m) sample")

        g_p = gnp_connected(n, p, derive_generator(seed, 1, i))
        g_m = sample_gnm(as_generator(derive_generator(seed, 2, i)))
        t_p = protocol_times(
            RadioNetwork(g_p), EGRandomizedProtocol(n, p), repetitions=reps,
            seed=derive_generator(seed, 3, i), p=p,
        )
        t_m = protocol_times(
            RadioNetwork(g_m), EGRandomizedProtocol(n, p), repetitions=reps,
            seed=derive_generator(seed, 4, i), p=p,
        )
        s_p = len(
            ElsasserGasieniecScheduler(seed=derive_generator(seed, 5, i)).build(g_p, 0)
        )
        s_m = len(
            ElsasserGasieniecScheduler(seed=derive_generator(seed, 6, i)).build(g_m, 0)
        )
        result.rows.append(
            {
                "n": n,
                "gnp eg-protocol mean": float(np.mean(t_p)),
                "gnm eg-protocol mean": float(np.mean(t_m)),
                "gnp schedule rounds": s_p,
                "gnm schedule rounds": s_m,
                "ratio (gnm/gnp, protocol)": float(np.mean(t_m)) / float(np.mean(t_p)),
            }
        )
    result.notes.append(
        "ratios within ~±20% of 1 at every size = the models are "
        "interchangeable for broadcasting, exactly as the paper asserts "
        "(G(n,p) is the binomial mixture of G(n,m))"
    )
    return result
