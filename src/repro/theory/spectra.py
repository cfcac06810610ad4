"""Spectral expansion: why `G(n, p)` broadcasts in O(ln n) and a torus doesn't.

The common thread of E12/E15/E16 is *expansion*: low-diameter families
are exactly those whose normalised adjacency has a large spectral gap.
This module computes the standard quantities so experiment E21 can put a
number on "expander-like":

* :func:`spectral_gap` — ``1 − λ₂`` for the random-walk matrix
  ``D⁻¹A`` (computed symmetrically via ``D^{-1/2} A D^{-1/2}``);
* :func:`algebraic_connectivity` — ``μ₂`` of the (normalised) Laplacian;
* :func:`cheeger_bounds` — the Cheeger inequalities
  ``μ₂ / 2 ≤ h(G) ≤ sqrt(2 μ₂)`` bracketing the conductance;
* :func:`estimate_mixing_time` — ``ln n / gap``, the heuristic scale on
  which diffusive processes on the graph equilibrate.

Eigenvalues come from ``scipy.sparse.linalg.eigsh`` on the sparse
normalised adjacency — ``O(m)`` per iteration, fine at every size the
experiments use.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..errors import GraphError
from ..graphs.adjacency import Adjacency

__all__ = [
    "normalized_adjacency",
    "spectral_gap",
    "algebraic_connectivity",
    "cheeger_bounds",
    "estimate_mixing_time",
]


def normalized_adjacency(adj: Adjacency) -> sp.csr_matrix:
    """The symmetric normalisation ``D^{-1/2} A D^{-1/2}``.

    Requires minimum degree ≥ 1 (isolated nodes have no walk to
    normalise).
    """
    if adj.n == 0:
        raise GraphError("spectrum of the empty graph is undefined")
    degs = adj.degrees.astype(float)
    if degs.min() <= 0:
        raise GraphError("graph has isolated nodes; normalised adjacency undefined")
    d_inv_sqrt = sp.diags(1.0 / np.sqrt(degs))
    a = adj.matrix().astype(float)
    return sp.csr_matrix(d_inv_sqrt @ a @ d_inv_sqrt)


def _top_two_eigenvalues(adj: Adjacency) -> tuple[float, float]:
    """(λ₁, λ₂) of the normalised adjacency, λ₁ = 1 for connected graphs."""
    n = adj.n
    m = normalized_adjacency(adj)
    if n == 1:
        return 1.0, 1.0
    if n <= 64:
        vals = np.linalg.eigvalsh(m.toarray())
        return float(vals[-1]), float(vals[-2])
    # A fixed start vector: ARPACK's default is random per call, which
    # made the last digits differ from call to call on one graph.
    v0 = np.random.default_rng(0).random(n)
    vals = spla.eigsh(m, k=2, which="LA", v0=v0, return_eigenvectors=False, maxiter=5000)
    vals = np.sort(vals)
    return float(vals[-1]), float(vals[-2])


def spectral_gap(adj: Adjacency) -> float:
    """``1 − λ₂`` of the normalised adjacency (0 for disconnected graphs).

    Large gap ⇒ rapid mixing ⇒ low diameter ⇒ the `O(ln n)` broadcast
    regime; gap shrinking with ``n`` (torus: `Θ(1/n)`, RGG:
    `Θ(ln n / n)`) ⇒ the diameter-bound regime.
    """
    _, lam2 = _top_two_eigenvalues(adj)
    return max(0.0, 1.0 - lam2)


def algebraic_connectivity(adj: Adjacency) -> float:
    """``μ₂`` of the normalised Laplacian ``I − D^{-1/2} A D^{-1/2}``.

    Equals :func:`spectral_gap` for the normalised operator; exposed
    under its conventional name for the Cheeger bounds.
    """
    return spectral_gap(adj)


def cheeger_bounds(adj: Adjacency) -> tuple[float, float]:
    """Cheeger inequalities: ``(μ₂/2, sqrt(2 μ₂))`` bracketing conductance."""
    mu2 = algebraic_connectivity(adj)
    return mu2 / 2.0, math.sqrt(2.0 * mu2)


def estimate_mixing_time(adj: Adjacency) -> float:
    """Heuristic mixing scale ``ln n / gap`` (``inf`` when the gap is 0)."""
    gap = spectral_gap(adj)
    if gap <= 0:
        return math.inf
    return math.log(max(adj.n, 2)) / gap
