"""The experiment registry: one entry per reproduced claim.

Single source of truth mapping experiment ids to implementations, paper
claims, and bench targets — DESIGN.md §4 in executable form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .._typing import SeedLike
from ..errors import InvalidParameterError
from ..obs import maybe_span
from . import exp_analysis, exp_bounds, exp_extensions, exp_structure
from .runner import ExperimentResult

__all__ = ["ExperimentSpec", "EXPERIMENTS", "get_experiment", "run_experiment"]


@dataclass(frozen=True)
class ExperimentSpec:
    """Metadata + runner for one catalogued experiment."""

    experiment_id: str
    title: str
    claim: str
    bench_target: str
    run: Callable[..., ExperimentResult]

    def __call__(self, quick: bool = True, seed: SeedLike = 0) -> ExperimentResult:
        """Run the experiment inside its ``experiment.<id>`` span."""
        with maybe_span(f"experiment.{self.experiment_id}"):
            return self.run(quick=quick, seed=seed)


EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in [
        ExperimentSpec(
            "E1",
            "Centralized broadcast scaling in n",
            "Theorem 5: O(ln n / ln d + ln d) centralized broadcast",
            "benchmarks/bench_e01_centralized_scaling.py",
            exp_bounds.e01_centralized_scaling,
        ),
        ExperimentSpec(
            "E2",
            "Centralized degree crossover",
            "Theorem 5: ln n/ln d vs ln d crossover at d* = exp(sqrt(ln n))",
            "benchmarks/bench_e02_centralized_degree_crossover.py",
            exp_bounds.e02_centralized_degree_crossover,
        ),
        ExperimentSpec(
            "E3",
            "Centralized lower bound survival",
            "Theorem 6: o(ln n/ln d + ln d) schedules leave survivors w.h.p.",
            "benchmarks/bench_e03_centralized_lowerbound.py",
            exp_bounds.e03_centralized_lowerbound,
        ),
        ExperimentSpec(
            "E4",
            "Distributed broadcast scaling in n",
            "Theorem 7: O(ln n) distributed randomized broadcast",
            "benchmarks/bench_e04_distributed_scaling.py",
            exp_bounds.e04_distributed_scaling,
        ),
        ExperimentSpec(
            "E5",
            "Distributed protocol comparison",
            "Theorem 7 beats Decay by a ln n factor on G(n, p)",
            "benchmarks/bench_e05_distributed_comparison.py",
            exp_bounds.e05_distributed_comparison,
        ),
        ExperimentSpec(
            "E6",
            "Distributed lower bound",
            "Theorem 8: Ω(ln n) for every oblivious protocol",
            "benchmarks/bench_e06_distributed_lowerbound.py",
            exp_bounds.e06_distributed_lowerbound,
        ),
        ExperimentSpec(
            "E7",
            "Layer growth",
            "Lemma 3: |T_i| ≈ d^i; O(1) big layers",
            "benchmarks/bench_e07_layer_growth.py",
            exp_structure.e07_layer_growth,
        ),
        ExperimentSpec(
            "E8",
            "Near-tree layer structure",
            "Lemma 3: O(1/d²) multi-parent fraction, rare intra-layer edges, O(d) sibling groups",
            "benchmarks/bench_e08_layer_tree_structure.py",
            exp_structure.e08_layer_tree_structure,
        ),
        ExperimentSpec(
            "E9",
            "Covers and matchings between random sets",
            "Lemma 4 + Proposition 2: independent covers of Ω(|Y|); full matchings at |X|/|Y| = Ω(d²)",
            "benchmarks/bench_e09_covering_matching.py",
            exp_structure.e09_covering_matching,
        ),
        ExperimentSpec(
            "E10",
            "Dense regime",
            "Section 3.1: Θ(ln n / ln(1/f)) rounds for p = 1 - f(n)",
            "benchmarks/bench_e10_dense_regime.py",
            exp_structure.e10_dense_regime,
        ),
        ExperimentSpec(
            "E11",
            "Radio vs single-port separation",
            "Related work: both Θ(ln n) on G(n, p); collisions cost a constant factor",
            "benchmarks/bench_e11_model_separation.py",
            exp_structure.e11_model_separation,
        ),
        ExperimentSpec(
            "E12",
            "Graph-family robustness",
            "Related work: diameter penalty outside low-diameter families",
            "benchmarks/bench_e12_graph_families.py",
            exp_structure.e12_graph_families,
        ),
        ExperimentSpec(
            "E13",
            "Radio gossiping (open problem)",
            "Conclusions: gossip costs Θ(d ln n) at uniform rates — strictly harder than broadcast",
            "benchmarks/bench_e13_gossiping.py",
            exp_extensions.e13_gossiping,
        ),
        ExperimentSpec(
            "E14",
            "Fault tolerance",
            "Extension: graceful degradation under crashes, lossy links, jamming, churn and noise; epoch-restart rescues the strict rule",
            "benchmarks/bench_e14_fault_tolerance.py",
            exp_extensions.e14_fault_tolerance,
        ),
        ExperimentSpec(
            "E15",
            "Random geometric radio networks",
            "Extension: the physical model is diameter-bound, unlike G(n, p)",
            "benchmarks/bench_e15_geometric_radio.py",
            exp_extensions.e15_geometric_radio,
        ),
        ExperimentSpec(
            "E16",
            "Adaptive vs oblivious protocols",
            "Extension: informed-round adaptivity beats the oblivious class off G(n, p)",
            "benchmarks/bench_e16_adaptive_protocols.py",
            exp_extensions.e16_adaptive_protocols,
        ),
        ExperimentSpec(
            "E17",
            "Degree heterogeneity",
            "Extension: power-law degrees break the uniform-degree assumption of Section 2",
            "benchmarks/bench_e17_degree_heterogeneity.py",
            exp_extensions.e17_degree_heterogeneity,
        ),
        ExperimentSpec(
            "E18",
            "Anatomy of a broadcast",
            "Mechanism: realised broadcast trees are BFS-deep; one-to-many gain survives collisions",
            "benchmarks/bench_e18_broadcast_anatomy.py",
            exp_analysis.e18_broadcast_anatomy,
        ),
        ExperimentSpec(
            "E19",
            "Price of determinism",
            "Related work: deterministic techniques pay polynomial factors over randomized O(ln n)",
            "benchmarks/bench_e19_price_of_determinism.py",
            exp_analysis.e19_price_of_determinism,
        ),
        ExperimentSpec(
            "E20",
            "Broadcast-gossip continuum",
            "Extension: k-token dissemination grows with holders until the channel saturates",
            "benchmarks/bench_e20_multimessage_continuum.py",
            exp_analysis.e20_multimessage_continuum,
        ),
        ExperimentSpec(
            "E21",
            "Spectral expansion",
            "Mechanism: the spectral gap separates O(ln n) families from diameter-bound ones",
            "benchmarks/bench_e21_spectral_expansion.py",
            exp_analysis.e21_spectral_expansion,
        ),
        ExperimentSpec(
            "E22",
            "G(n,p) vs G(n,m) equivalence",
            "Section 1.1: the results hold for both random graph models",
            "benchmarks/bench_e22_model_equivalence.py",
            exp_structure.e22_model_equivalence,
        ),
        ExperimentSpec(
            "E23",
            "Agent-based model",
            "Related work [13]: O(max{log n, D}) via random-walking agents, cover-time below",
            "benchmarks/bench_e23_agent_based.py",
            exp_analysis.e23_agent_based,
        ),
    ]
}


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up a spec by id (case-insensitive)."""
    key = experiment_id.upper()
    if key not in EXPERIMENTS:
        raise InvalidParameterError(
            f"unknown experiment {experiment_id!r}; known: {', '.join(EXPERIMENTS)}"
        )
    return EXPERIMENTS[key]


def run_experiment(
    experiment_id: str, *, quick: bool = True, seed: SeedLike = 0
) -> ExperimentResult:
    """Run one catalogued experiment and return its result."""
    return get_experiment(experiment_id)(quick=quick, seed=seed)
