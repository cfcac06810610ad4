"""Result containers and measurement helpers shared by all experiments.

The three ``*_times`` sweeps measure completion rounds over repetitions
with one call each to the round driver,
:func:`repro.radio.dynamics.run_dissemination`: every trial of every
protocol, healthy or under a fault plan, runs in one lockstep batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .._typing import SeedLike
from ..gossip.dynamics import GossipDynamics, MultiMessageDynamics
from ..obs import maybe_span
from ..radio.dynamics import BroadcastDynamics, run_dissemination
from ..radio.model import RadioNetwork
from ..radio.protocol import RadioProtocol
from ..theory.fitting import FitResult
from .report import format_markdown_table, format_table

__all__ = [
    "ExperimentResult",
    "aggregate",
    "outcomes_table",
    "protocol_times",
    "gossip_times",
    "multimessage_times",
    "scheduler_rounds",
]


@dataclass
class ExperimentResult:
    """One experiment's reproduced table plus the fits that test the claim.

    Attributes
    ----------
    experiment_id: "E1" ... "E12".
    title: short description.
    claim: the paper statement being reproduced.
    columns: ordered column names of ``rows``.
    rows: the regenerated table, one dict per row.
    fits: named scaling fits supporting the claim.
    notes: free-form observations recorded during the run.
    """

    experiment_id: str
    title: str
    claim: str
    columns: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)
    fits: dict[str, FitResult] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def table(self, *, float_digits: int = 3) -> str:
        """Render the result as an aligned text table with fit footer."""
        parts = [
            format_table(
                self.rows,
                self.columns,
                title=f"[{self.experiment_id}] {self.title}",
                float_digits=float_digits,
            )
        ]
        for name, fit in self.fits.items():
            parts.append(f"fit {name}: {fit}")
        parts.extend(f"note: {note}" for note in self.notes)
        return "\n".join(parts)

    def to_markdown(self) -> str:
        """Markdown rendering for EXPERIMENTS.md."""
        parts = [
            f"### {self.experiment_id} — {self.title}",
            "",
            f"*Claim:* {self.claim}",
            "",
            format_markdown_table(self.rows, self.columns),
        ]
        if self.fits:
            parts.append("")
            parts.extend(f"* fit `{name}`: {fit}" for name, fit in self.fits.items())
        if self.notes:
            parts.append("")
            parts.extend(f"* {note}" for note in self.notes)
        return "\n".join(parts)

    def column(self, name: str) -> np.ndarray:
        """One column of the table as a float array (NaN for missing)."""
        return np.array(
            [float(r[name]) if r.get(name) is not None else np.nan for r in self.rows]
        )


def outcomes_table(outcomes, *, title: str = "supervised sweep summary") -> str:
    """Render supervised-sweep task outcomes as an aligned text table.

    ``outcomes`` is a sequence of
    :class:`~repro.experiments.supervisor.TaskOutcome`-shaped records
    (duck-typed: ``key``/``status``/``attempts``/``elapsed``/``error``
    plus the shard-attribution fields ``host``/``requeued``/
    ``lost_leases``).  ``repro run-all --jobs N`` prints this after the
    result tables so a sweep with failed or recovered experiments says
    so explicitly; under ``--fabric`` the ``host`` column attributes
    each outcome to the executor shard that produced it, and
    ``requeued``/``lost_leases`` count recovery the statuses hide.
    """
    rows = [
        {
            "task": o.key,
            "status": o.status,
            "host": getattr(o, "host", ""),
            "attempts": o.attempts,
            "requeued": getattr(o, "requeued", 0),
            "lost_leases": getattr(o, "lost_leases", 0),
            "elapsed_s": round(o.elapsed, 2),
            "error": o.error,
        }
        for o in outcomes
    ]
    columns = [
        "task",
        "status",
        "host",
        "attempts",
        "requeued",
        "lost_leases",
        "elapsed_s",
        "error",
    ]
    return format_table(rows, columns, title=title)


def aggregate(values) -> dict[str, float]:
    """Mean/std/min/max summary of a sample of measurements.

    Non-finite entries (``inf`` for budget misses, ``NaN`` for missing
    data) are tolerated: statistics are computed over the finite subset,
    and an all-failed sample yields NaN statistics plus the counts —
    instead of raising — so a degraded sweep still aggregates.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot aggregate an empty sample")
    finite = arr[np.isfinite(arr)]
    if finite.size:
        stats = {
            "mean": float(finite.mean()),
            "std": float(finite.std(ddof=1)) if finite.size > 1 else 0.0,
            "min": float(finite.min()),
            "max": float(finite.max()),
        }
    else:
        stats = {"mean": np.nan, "std": np.nan, "min": np.nan, "max": np.nan}
    stats["count"] = int(arr.size)
    stats["num_nonfinite"] = int(arr.size - finite.size)
    return stats


def _dissemination_times(
    span, dynamics_cls, network, protocol, placement, faults, with_fractions, *,
    repetitions, seed, max_rounds, p, check_connected,
):
    """The one driver call behind the three ``*_times`` sweeps.

    ``placement`` holds the ``source``/``sources`` keyword of
    ``dynamics_cls.build``.  Trial ``r`` runs on
    ``spawn_generators(seed, repetitions)[r]``.
    """
    dynamics = dynamics_cls.build(network, protocol=protocol, p=p, **placement)
    with maybe_span(span, label=protocol.name):
        run = run_dissemination(
            network,
            dynamics,
            repetitions=repetitions,
            plan=faults,
            seed=seed,
            max_rounds=max_rounds,
            check_connected=check_connected,
        )
    if with_fractions:
        return run.completion_rounds, run.fractions
    return run.completion_rounds


def protocol_times(
    network: RadioNetwork,
    protocol: RadioProtocol,
    *,
    repetitions: int,
    seed: SeedLike,
    source: int = 0,
    max_rounds: int | None = None,
    p: float | None = None,
    check_connected: bool = True,
    with_fractions: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Completion times over repetitions; ``inf`` entries for budget misses.

    With ``with_fractions=True`` also returns the per-trial final informed
    fraction (1.0 for completed runs), so failed trials record how far the
    broadcast got instead of collapsing to an opaque ``inf``.
    ``check_connected=False`` skips the reachability check; with it on,
    a graph still pays for only one BFS, cached on its adjacency.

    All repetitions advance together on the round driver, one batched
    count kernel per round; trial ``r`` draws exactly what
    ``simulate("broadcast", ...)`` seeded with
    ``spawn_generators(seed, repetitions)[r]`` draws (pinned by
    ``tests/radio/test_batch.py``).
    """
    return _dissemination_times(
        "sweep.protocol_times", BroadcastDynamics, network, protocol,
        {"source": source}, None, with_fractions, repetitions=repetitions, seed=seed,
        max_rounds=max_rounds, p=p, check_connected=check_connected,
    )


def gossip_times(
    network: RadioNetwork,
    protocol: RadioProtocol,
    *,
    repetitions: int,
    seed: SeedLike,
    max_rounds: int | None = None,
    p: float | None = None,
    check_connected: bool = True,
    faults=None,
    with_fractions: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Gossip completion times over repetitions; ``inf`` for budget misses.

    The gossip twin of :func:`protocol_times`, on the same driver; an
    active ``faults`` plan applies to every trial (docs/FAULTS.md).
    ``with_fractions=True`` additionally returns the per-trial final
    fraction of known (node, rumor) pairs.
    """
    return _dissemination_times(
        "sweep.gossip_times", GossipDynamics, network, protocol,
        {}, faults, with_fractions, repetitions=repetitions, seed=seed,
        max_rounds=max_rounds, p=p, check_connected=check_connected,
    )


def multimessage_times(
    network: RadioNetwork,
    protocol: RadioProtocol,
    sources,
    *,
    repetitions: int,
    seed: SeedLike,
    max_rounds: int | None = None,
    p: float | None = None,
    check_connected: bool = True,
    faults=None,
    with_fractions: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """k-token completion times over repetitions; ``inf`` for budget misses.

    Runs like :func:`gossip_times`.  All repetitions share the
    ``sources`` token placement.
    """
    return _dissemination_times(
        "sweep.multimessage_times", MultiMessageDynamics, network,
        protocol, {"sources": sources}, faults, with_fractions, repetitions=repetitions,
        seed=seed, max_rounds=max_rounds, p=p, check_connected=check_connected,
    )


def scheduler_rounds(
    scheduler_factory,
    graphs,
    source: int = 0,
) -> np.ndarray:
    """Schedule lengths of ``scheduler_factory()`` across a list of graphs."""
    out = np.empty(len(graphs), dtype=float)
    for i, adj in enumerate(graphs):
        schedule = scheduler_factory().build(adj, source)
        out[i] = len(schedule)
    return out
