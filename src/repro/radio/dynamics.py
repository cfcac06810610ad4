"""The unified dissemination core: one round driver for every process.

The paper treats its communication problems as one family — gossiping is
the Section 4 extension of broadcasting, ``k``-token dissemination spans
the two, and single-port push (Feige et al., Section 1.2) is the
collision-free baseline.  This module mirrors that architecturally: a
:class:`Dynamics` object captures *what spreads and when it is done*
(trial-major state, per-round update from the channel outcome,
completion predicate, trace-record emission), and one driver,
:func:`run_dissemination`, owns everything else: the round budget, the
connectivity precheck, fault-plan application, per-round compaction of
finished trials, the incomplete-run error path and trace assembly.

The driver advances ``R >= 1`` independent trials of one dynamics
together.  A *traced* run is one trial on ``as_generator(seed)``,
recorded round by round into the dynamics' trace type (what
:func:`repro.simulate` asks for); an untraced run of ``R`` trials draws
trial ``r`` from ``spawn_generators(seed, R)[r]`` — exactly what a traced
run seeded with that child draws — and returns per-trial outcomes
(:class:`LockstepRun`).  A round of one active trial is one
:meth:`RadioNetwork.step`; a round of several is one batched count kernel
(:meth:`RadioNetwork.step_batch`).

Concrete dynamics:

* :class:`BroadcastDynamics` (here) — single-message broadcast;
* :class:`~repro.gossip.dynamics.GossipDynamics` — knowledge-matrix
  gossip (every node a rumor);
* :class:`~repro.gossip.dynamics.MultiMessageDynamics` — ``k``-token
  dissemination;
* :class:`~repro.singleport.push.PushDynamics` — single-port push and
  push–pull;
* :class:`~repro.singleport.agents.AgentDynamics` — random-walking
  agents (no channel at all).

Radio-channel dynamics (broadcast, gossip, multimessage) accept a
:class:`~repro.faults.FaultPlan` at any ``R`` with identical jammer /
churn / lossy-link semantics (docs/FAULTS.md).  The plan is shared by the
trials; liveness and forgetting apply to every trial, while garbage and
link draws come from each trial's own stream, after its protocol coins.

The fault-plan interface is duck-typed so this module never imports
:mod:`repro.faults`:

* ``plan.is_null`` — True when the plan can never perturb a round;
* ``plan.validate(n)`` — raise ``InvalidParameterError`` on size mismatch;
* ``plan.target(n)`` — bool mask of nodes required for completion;
* ``plan.alive_at(t, n)`` — bool mask of radios that are on;
* ``plan.forget_at(t)`` — ids rejoining uninformed this round;
* ``plan.garbage_mask(t, rng)`` — bool mask of noise transmitters, or
  ``None`` (drawing nothing) when inactive;
* ``plan.links`` — a ``LossyLinkModel`` or ``None``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .._typing import BoolArray, FloatArray, IntArray, SeedLike
from ..backends import current_backend_name
from ..errors import (
    BroadcastIncompleteError,
    DisconnectedGraphError,
    InvalidParameterError,
)
from ..graphs.properties import reaches_all
from ..obs import SCHEMA_VERSION, current_observer
from ..rng import as_generator, spawn_generators
from .model import RadioNetwork, reception_rule
from .protocol import RadioProtocol
from .trace import BroadcastTrace, RoundRecord

__all__ = [
    "DYNAMICS_REGISTRY",
    "Dynamics",
    "RoundOutcome",
    "SingleMessageDynamics",
    "BroadcastDynamics",
    "LockstepRun",
    "run_dissemination",
    "default_round_cap",
    "single_trial",
]


def default_round_cap(n: int) -> int:
    """Generous default round budget for ``O(ln n)``-class protocols.

    ``200 + 60 * log2(n)`` — an order of magnitude above the constants any
    of the implemented protocols exhibit, so hitting it signals a stall
    rather than bad luck.
    """
    return 200 + 60 * max(1, math.ceil(math.log2(max(n, 2))))


#: All registered dynamics, keyed by :attr:`Dynamics.name`.  Populated by
#: ``__init_subclass__`` as concrete dynamics classes are imported; the
#: CLI's ``dynamics`` command imports the gossip/singleport packages and
#: prints this table.
DYNAMICS_REGISTRY: dict[str, type["Dynamics"]] = {}


@dataclass(frozen=True)
class RoundOutcome:
    """What one channel round delivered to the active trials.

    Attributes
    ----------
    received: ``(R, n)`` mask of successful receptions, one row per
        active trial.  Radio dynamics report every collision-free
        listener (possibly already holding the content); point-to-point
        dynamics report the newly reached nodes.
    informer: ``(R, n)`` id of the sender each reception came from
        (``-1`` elsewhere), or ``None`` when the channel did not extract
        senders (:attr:`Dynamics.needs_informer` unset on a batched or
        faulty round, point-to-point channels).
    num_transmitters: channel occupants summed over the rows (garbage
        transmitters included under faults), or ``None`` when the round
        was not counted.
    num_collided: listeners lost to collisions summed over the rows (0 in
        collision-free models), or ``None`` when the round was not
        counted.
    newly_informed: on a healthy single-trial radio round, the sorted
        ids of the nodes that received the content for the first time
        (:attr:`~repro.radio.model.StepResult.newly_informed`); ``None``
        elsewhere.
    """

    received: BoolArray
    informer: IntArray | None
    num_transmitters: int | None
    num_collided: int | None
    newly_informed: IntArray | None = None


def single_trial(dynamics: "Dynamics", rngs) -> None:
    """Reject a multi-trial run of a dynamics that advances one trial only."""
    if len(rngs) != 1:
        raise InvalidParameterError(
            f"{dynamics.name} dynamics runs one trial per call, got {len(rngs)}"
        )


class Dynamics(ABC):
    """State machine of one dissemination process under the shared driver.

    A dynamics object owns *state* (who knows what), the *transmit rule*
    (usually by delegating to a :class:`RadioProtocol`), the *completion
    predicate* and the *trace vocabulary*; :func:`run_dissemination` owns
    the loop around it.  Subclasses register themselves in
    :data:`DYNAMICS_REGISTRY` under :attr:`name`.

    The state is trial-major: every array named in :attr:`trial_state`
    has one C-order row per active trial (``(R, n, ...)``), and
    :meth:`compact` drops the rows of finished trials.  A traced run has
    one row.

    Radio-channel dynamics implement :meth:`content` and
    :meth:`holder_rounds` and inherit the radio :meth:`channel_step`;
    point-to-point dynamics override :meth:`channel_step` wholesale, never
    see the radio kernel, and run one trial per call (:func:`single_trial`).
    Only radio-channel dynamics can support fault plans.
    """

    #: Registry key and report label.
    name: str = "dynamics"
    #: One-line description shown by ``python -m repro dynamics``.
    summary: str = ""
    #: Whether the driver may apply an active fault plan to this dynamics.
    supports_faults: bool = False
    #: Whether :meth:`update` needs ``RoundOutcome.informer`` on batched
    #: and faulty rounds (a single healthy radio round always provides it).
    needs_informer: bool = False
    #: Root node for the driver's connectivity precheck.
    connectivity_root: int = 0
    #: Per-trial state arrays (leading axis: active trials) that
    #: :meth:`compact` narrows.
    trial_state: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Leaf classes shadow intermediate bases under the same key; only
        # names explicitly set on the class register.
        if "name" in cls.__dict__:
            DYNAMICS_REGISTRY[cls.name] = cls

    @classmethod
    def build(cls, network: RadioNetwork, **kwargs) -> "Dynamics":
        """Construct this dynamics from :func:`repro.simulate` keywords.

        Each registered dynamics declares its process keywords
        (``protocol``, ``source``, ``sources``, ...) as keyword-only
        parameters here and validates them against ``network``.
        """
        raise InvalidParameterError(
            f"{cls.name!r} dynamics does not support simulate(); "
            "construct it directly and call run_dissemination"
        )

    # -- lifecycle -----------------------------------------------------

    @abstractmethod
    def start(self, network: RadioNetwork, rngs, with_tree: bool) -> None:
        """Allocate one row of initial state per stream in ``rngs``.

        Also prepares the protocol, if any.  ``with_tree`` asks for the
        who-informed-whom record (traced healthy runs).
        """

    @abstractmethod
    def default_round_cap(self, n: int) -> int:
        """Round budget used when the caller passes ``max_rounds=None``."""

    # -- channel -------------------------------------------------------

    def content(self) -> BoolArray:
        """``(R, n)`` nodes holding transmittable content, per active trial."""
        raise NotImplementedError(f"{self.name} dynamics has no radio content")

    def holder_rounds(self) -> IntArray:
        """``(R, n)`` round each node first held content (``-1``: not yet).

        This is the protocol's ``informed_round`` argument.
        """
        raise NotImplementedError(f"{self.name} dynamics has no radio content")

    def transmit_rows(self, t: int, holders: BoolArray, rngs) -> BoolArray:
        """The protocol's round-``t`` transmitters among ``holders``.

        One row per active trial, each drawn from its trial's stream: a
        single trial asks :meth:`RadioProtocol.transmit_mask`, several ask
        :meth:`RadioProtocol.transmit_mask_batch`, which draws the same.
        """
        protocol, rounds = self.protocol, self.holder_rounds()
        if len(rngs) == 1:
            mask = protocol.transmit_mask(t, holders[0], rounds[0], rngs[0])
            return np.asarray(mask, dtype=bool)[None] & holders
        rows = np.asarray(
            protocol.transmit_mask_batch(t, holders.T, rounds.T, rngs), dtype=bool
        ).T
        # Rows stay C-order, so the kernel's (n, R) view of them is free.
        if not rows.flags.c_contiguous:
            rows = np.ascontiguousarray(rows)
        return rows & holders

    def channel_step(
        self, t: int, network: RadioNetwork, rngs, counted: bool
    ) -> RoundOutcome:
        """Execute one healthy channel round for every active trial.

        Default: the radio collision channel — one
        :meth:`RadioNetwork.step` for a single trial, one
        :meth:`RadioNetwork.step_batch` for several (which skips the
        counts unless ``counted``).  Point-to-point dynamics override this.
        """
        holders = self.content()
        rows = self.transmit_rows(t, holders, rngs)
        if len(rows) == 1:
            result = network.step(rows[0], holders[0])
            return RoundOutcome(
                result.received[None],
                result.informer[None],
                result.num_transmitters,
                result.num_collided,
                result.newly_informed,
            )
        step = network.step_batch(
            rows.T,
            holders.T,
            with_collided=counted,
            with_transmitters=False,
            assume_informed=True,
            with_informer=self.needs_informer,
        )
        return RoundOutcome(
            step.received.T,
            None if step.informer is None else step.informer.T,
            int(np.count_nonzero(rows)) if counted else None,
            int(np.count_nonzero(step.collided)) if counted else None,
        )

    # -- state ---------------------------------------------------------

    def forget(self, ids: IntArray) -> None:
        """Reset churned nodes rejoining uninformed, in every trial."""
        raise NotImplementedError(f"{self.name} dynamics does not support churn")

    @abstractmethod
    def update(self, t: int, outcome: RoundOutcome, trial_ids: IntArray) -> None:
        """Fold one round's deliveries into the state.

        ``trial_ids`` maps the state's rows to the run's trial numbers.
        """

    @abstractmethod
    def finished(self, target: BoolArray, full_target: bool) -> BoolArray:
        """Per-row completion relative to the (fault-aware) target set."""

    @abstractmethod
    def fractions(self) -> FloatArray:
        """Per-row share of the content delivered so far."""

    @abstractmethod
    def complete_nodes(self) -> int:
        """Nodes holding everything, summed over the rows."""

    def compact(self, keep: BoolArray) -> None:
        """Drop the rows of finished trials from every trial-state array."""
        for name in self.trial_state:
            setattr(self, name, getattr(self, name)[keep])

    # -- trace (traced runs: one row) ----------------------------------

    @abstractmethod
    def make_trace(self):
        """Fresh, empty trace object with a ``records`` list."""

    @abstractmethod
    def record(self, t: int, outcome: RoundOutcome):
        """Per-round trace record appended by the driver."""

    def event_fields(self, record) -> dict:
        """Dynamics-specific extras merged into per-round trace events.

        Called only when an observer with a sink is attached; keys must
        be JSON-serialisable and stay stable within a schema version
        (docs/OBSERVABILITY.md).
        """
        return {}

    @abstractmethod
    def finish(self, trace, target: BoolArray, full_target: bool,
               finished: bool) -> None:
        """Write final state into the trace (informed masks, counts...)."""

    @abstractmethod
    def incomplete_message(self, max_rounds: int, target: BoolArray,
                           full_target: bool) -> str:
        """Error text for a budget miss."""

    def disconnected_message(self) -> str:
        """Error text for the connectivity precheck."""
        return (
            f"not all nodes reachable from source {self.connectivity_root}; "
            f"{self.name} cannot complete"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class SingleMessageDynamics(Dynamics):
    """Shared informed-mask state for single-message processes.

    Broadcast over the radio channel, single-port push/push–pull and the
    agent-based model all track the same state — ``informed`` /
    ``informed_round``, one row per trial — and emit :class:`RoundRecord`
    rows into a :class:`BroadcastTrace`.  Subclasses provide the channel.
    """

    trial_state = ("informed", "informed_round")

    def __init__(self, source: int):
        self.source = source
        self.connectivity_root = source
        self.informed: BoolArray | None = None
        self.informed_round: IntArray | None = None
        self._informer: IntArray | None = None
        self._num_new = 0
        self._n = 0

    def start(self, network, rngs, with_tree):
        n = network.n
        self._n = n
        self.informed = np.zeros((len(rngs), n), dtype=bool)
        self.informed[:, self.source] = True
        self.informed_round = np.full((len(rngs), n), -1, dtype=np.int64)
        self.informed_round[:, self.source] = 0

    def content(self):
        return self.informed

    def holder_rounds(self):
        return self.informed_round

    def forget(self, ids):
        self.informed[:, ids] = False
        self.informed_round[:, ids] = -1

    def update(self, t, outcome, trial_ids):
        # Flat ids into the C-order rows: the writes touch only the new
        # nodes.  A single-trial radio round found them already (row 0's
        # flat ids are its node ids); otherwise received & ~informed in
        # one pass on bools.
        new = outcome.newly_informed
        if new is None:
            new = np.flatnonzero(outcome.received > self.informed)
        self.informed.ravel()[new] = True
        self.informed_round.ravel()[new] = t
        if self._informer is not None:
            self._informer.ravel()[new] = outcome.informer.ravel()[new]
        self._num_new = new.size

    def finished(self, target, full_target):
        if full_target:
            return self.informed.all(axis=1)
        return self.informed[:, target].all(axis=1)

    def fractions(self):
        return self.informed.sum(axis=1) / float(self._n)

    def complete_nodes(self):
        return int(self.informed.sum())

    def make_trace(self):
        return BroadcastTrace(source=self.source, n=self._n)

    def record(self, t, outcome):
        return RoundRecord(
            round_index=t,
            num_transmitters=outcome.num_transmitters,
            num_new=self._num_new,
            num_collided=outcome.num_collided,
            informed_after=int(np.count_nonzero(self.informed)),
        )

    def event_fields(self, record):
        return {"new": record.num_new, "informed": record.informed_after}

    def finish(self, trace, target, full_target, finished):
        # Report completion relative to the target set: when all
        # eventually-alive nodes are informed, permanently dead nodes
        # (outside the deliverable set) are filled in as informed so
        # ``trace.completed`` reads true.
        informed = self.informed[0]
        trace.informed = informed | ~target if finished and not full_target else informed
        trace.informed_round = self.informed_round[0]
        trace.informer = None if self._informer is None else self._informer[0]

    def incomplete_message(self, max_rounds, target, full_target):
        return (
            f"{self.name}: {int(np.count_nonzero(self.informed))}/{self._n} "
            f"informed after {max_rounds} rounds"
        )

    def disconnected_message(self):
        return (
            f"not all nodes reachable from source {self.source}; "
            "broadcast cannot complete"
        )


class BroadcastDynamics(SingleMessageDynamics):
    """Single-message broadcast over the radio collision channel.

    The protocol decides transmitters among the informed set; the driver
    applies an optional fault plan.  On the traced healthy path the
    who-informed-whom tree is recorded for :mod:`repro.radio.analysis`.
    """

    name = "broadcast"
    summary = "single message, radio collision channel (paper Sections 1-3)"
    supports_faults = True

    def __init__(self, protocol: RadioProtocol, source: int, p: float | None = None):
        super().__init__(source)
        self.protocol = protocol
        self.p = p

    @classmethod
    def build(cls, network, *, protocol, source: int = 0, p: float | None = None):
        """``simulate("broadcast", network, protocol=..., source=..., p=...)``.

        ``source`` is the node initially holding the message and ``p``
        the edge-probability parameter nodes are assumed to know
        (``None`` if unknown).
        """
        if not 0 <= source < network.n:
            raise InvalidParameterError(
                f"source {source} out of range [0, {network.n})"
            )
        return cls(protocol, source, p)

    def default_round_cap(self, n):
        return default_round_cap(n)

    def start(self, network, rngs, with_tree):
        super().start(network, rngs, with_tree)
        self.protocol.prepare(network.n, self.p, self.source)
        self._informer = np.full((1, self._n), -1, dtype=np.int64) if with_tree else None

    def incomplete_message(self, max_rounds, target, full_target):
        informed = self.informed[0]
        if full_target:
            detail = f"{int(np.count_nonzero(informed))}/{self._n} nodes informed"
        else:
            detail = (
                f"{int(np.count_nonzero(informed[target]))}/"
                f"{int(np.count_nonzero(target))} surviving nodes informed"
            )
        return f"{self.protocol.name}: {detail} after {max_rounds} rounds"


def _fault_round(network, plan, dynamics, t, rngs, alive):
    """One faulty round of every active trial; ``(outcome, garbage)``.

    The protocol coins of all trials come first; then, trial by trial on
    its own stream, the garbage draw and the link draws.  A garbage
    transmission always wins over a protocol transmission at the same
    node: the payload is corrupted, so it occupies the channel without
    carrying the message.  ``garbage`` counts live garbage transmitters.
    """
    holders = dynamics.content()
    rows = dynamics.transmit_rows(t, holders, rngs) & alive
    with_informer = dynamics.needs_informer
    received = np.zeros(rows.shape, dtype=bool)
    informer = np.full(rows.shape, -1, dtype=np.int64) if with_informer else None
    num_tx = num_collided = num_garbage = 0
    for r, rng in enumerate(rngs):
        garbage = plan.garbage_mask(t, rng)
        if garbage is None:
            all_tx = carrying = rows[r]
        else:
            garbage = garbage & alive
            num_garbage += int(np.count_nonzero(garbage))
            all_tx = rows[r] | garbage
            carrying = rows[r] & ~garbage
        if plan.links is not None:
            counts = plan.links.sample_round_counts(
                all_tx, carrying, rng, with_informer=with_informer
            )
            # (total, message[, informer sums]): either of the last two is
            # positive exactly where a live carrying transmission arrived.
            total, sums = counts[0], counts[-1]
        else:
            total, sums = network.arrivals(all_tx, carrying)
        received[r], collided = reception_rule(~all_tx & alive, total, sums)
        if with_informer:
            informer[r] = np.where(received[r], sums - 1, np.int64(-1))
        num_tx += int(np.count_nonzero(all_tx))
        num_collided += int(np.count_nonzero(collided))
    return RoundOutcome(received, informer, num_tx, num_collided), num_garbage


class _Events:
    """The attached observer's view of one driver call.

    A traced run emits ``run-start`` / ``round`` / ``run-end`` events and
    ``round.*`` / ``run.*`` metrics labelled by the dynamics; an untraced
    run emits ``batch-*`` events and ``batch.*`` metrics labelled by the
    protocol (docs/OBSERVABILITY.md).
    """

    def __init__(self, obs, dynamics, traced, n, trials, max_rounds, faulty):
        self.obs = obs
        self.dynamics = dynamics
        self.traced = traced
        self.run = obs.next_run_id()
        self.t0 = perf_counter()
        if traced:
            self.label = dynamics.name
            self._emit("run-start", dynamics=dynamics.name, n=n,
                       max_rounds=int(max_rounds), faulty=faulty)
        else:
            self.label = getattr(dynamics, "protocol", dynamics).name
            self.engine = f"{dynamics.name}-batch"
            self._emit("batch-start", engine=self.engine, backend=current_backend_name(),
                       n=n, repetitions=int(trials), max_rounds=int(max_rounds))

    def _emit(self, kind: str, **fields) -> None:
        self.obs.emit({"v": SCHEMA_VERSION, "kind": kind, "run": self.run, **fields})

    def round(self, t, outcome, active, record, faults, wall):
        obs, label = self.obs, self.label
        tx, collided = outcome.num_transmitters, outcome.num_collided
        if not self.traced:
            obs.inc("batch.rounds", 1, label=label)
            obs.inc("batch.transmissions", tx, label=label)
            obs.inc("batch.collisions", collided, label=label)
            obs.observe("batch.round_wall_s", wall, label=label)
            if obs.sink is not None:
                self._emit("batch-round", engine=self.engine, t=t, active=active,
                           transmitters=tx, collisions=collided, wall_s=wall)
            return
        received = int(np.count_nonzero(outcome.received))
        obs.inc("round.count", 1, label=label)
        obs.inc("round.transmissions", tx, label=label)
        obs.inc("round.collisions", collided, label=label)
        obs.inc("round.deliveries", received, label=label)
        obs.observe("round.wall_s", wall, label=label)
        if obs.sink is not None:
            extras = self.dynamics.event_fields(record)
            if faults is not None:
                extras["faults"] = faults
            self._emit("round", dynamics=label, t=t, transmitters=int(tx),
                       collisions=int(collided), received=received, wall_s=wall, **extras)

    def end(self, rounds, completion):
        wall = perf_counter() - self.t0
        if self.traced:
            self.obs.observe("run.wall_s", wall, label=self.label)
            self.obs.inc("run.count", 1, label=self.label)
            self._emit("run-end", dynamics=self.label, rounds=rounds,
                       completed=bool(np.isfinite(completion[0])), wall_s=wall)
        else:
            self.obs.observe("batch.wall_s", wall, label=self.label)
            self._emit("batch-end", engine=self.engine, rounds=rounds,
                       num_completed=int(np.count_nonzero(np.isfinite(completion))),
                       wall_s=wall)


def _round_budget(dynamics: Dynamics, n: int, max_rounds: int | None) -> int:
    """``max_rounds``, or the dynamics' default cap when it is ``None``."""
    if max_rounds is None:
        return dynamics.default_round_cap(n)
    if max_rounds < 0:
        raise InvalidParameterError(f"max_rounds must be >= 0, got {max_rounds}")
    return max_rounds


@dataclass(frozen=True)
class LockstepRun:
    """Per-trial outcomes of an untraced :func:`run_dissemination` call.

    ``completion_rounds`` (``inf`` for budget misses) and ``fractions``
    (1.0 for completed trials) have shape ``(R,)``; the three stats
    series — per-round sums over active trials, and complete-node totals
    over *all* trials after each round with ``[0]`` the initial state —
    are ``None`` unless stats were collected.
    """

    completion_rounds: FloatArray
    fractions: FloatArray
    num_rounds: int
    transmissions_per_round: IntArray | None
    collisions_per_round: IntArray | None
    complete_node_totals: IntArray | None


def run_dissemination(
    network: RadioNetwork,
    dynamics: Dynamics,
    *,
    repetitions: int | None = None,
    plan=None,
    seed: SeedLike = None,
    max_rounds: int | None = None,
    check_connected: bool = True,
    raise_on_incomplete: bool = True,
    with_stats: bool = False,
    obs=None,
):
    """Run a dissemination process to completion: one traced trial or ``R``.

    Parameters
    ----------
    network: the radio network (point-to-point dynamics read only its
        ``adj``).
    dynamics: the process — state, transmit rule, completion predicate.
    repetitions: ``None`` (default) for one traced trial on
        ``as_generator(seed)``; ``R >= 1`` for ``R`` untraced trials on
        ``spawn_generators(seed, R)``, advanced together with finished
        trials compacted away each round.
    plan: a fault plan (see module docstring) or ``None`` for a healthy
        run.  Only :attr:`Dynamics.supports_faults` dynamics accept an
        active plan; it applies to every trial.
    seed: RNG seed or generator.  Within a trial the protocol, the
        adversaries and the link outages share one stream (see
        :mod:`repro.faults.plan` for the draw order).
    max_rounds: round budget; defaults to
        :meth:`Dynamics.default_round_cap`.
    check_connected: verify reachability from the dynamics' root up front
        and raise :class:`DisconnectedGraphError` instead of burning the
        budget.  The answer is cached on the adjacency, so runs on one
        graph share a single BFS.
    raise_on_incomplete: traced runs raise :class:`BroadcastIncompleteError`
        on a budget miss (default); ``False`` returns the partial trace.
        Untraced runs report budget misses as ``inf``.
    with_stats: untraced runs record the per-round series of
        :class:`LockstepRun` (an attached observer implies it; results are
        identical either way).
    obs: an :class:`~repro.obs.Observer` receiving metrics and events
        (``run-*``/``round`` for a traced run, ``batch-*`` otherwise);
        defaults to the ambient observer installed with
        :func:`~repro.obs.use_observer`, if any.  Observation never
        touches the RNG streams or the results.

    Returns
    -------
    A traced run returns the dynamics' trace type (:class:`BroadcastTrace`
    or :class:`~repro.gossip.trace.GossipTrace`); an untraced run returns
    a :class:`LockstepRun`.  Under faults, completion refers to the
    *eventually-alive* target set.
    """
    n = network.n
    traced = repetitions is None
    if not traced and repetitions < 1:
        raise InvalidParameterError(f"repetitions must be >= 1, got {repetitions}")
    healthy = plan is None or plan.is_null
    if not healthy and not dynamics.supports_faults:
        raise InvalidParameterError(
            f"{dynamics.name} dynamics does not support fault plans"
        )
    if plan is not None:
        plan.validate(n)
    max_rounds = _round_budget(dynamics, n, max_rounds)
    if check_connected and not reaches_all(network.adj, dynamics.connectivity_root):
        raise DisconnectedGraphError(dynamics.disconnected_message())
    rngs = [as_generator(seed)] if traced else spawn_generators(seed, repetitions)
    trials = len(rngs)
    dynamics.start(network, rngs, with_tree=traced and healthy)
    target = plan.target(n) if plan is not None else np.ones(n, dtype=bool)
    full_target = bool(np.all(target))
    trace = dynamics.make_trace() if traced else None

    if obs is None:
        obs = current_observer()
    events = None
    if obs is not None and obs.active:
        events = _Events(obs, dynamics, traced, n, trials, max_rounds, not healthy)
    series = not traced and (with_stats or events is not None)
    counted = traced or series
    tx_counts: list[int] = []
    coll_counts: list[int] = []
    complete_totals: list[int] = []

    # Only the rows of unfinished trials stay in the state; the last
    # trials to finish keep theirs for the trace and the fractions.
    trial_ids = np.arange(trials, dtype=np.int64)
    completion = np.full(trials, np.inf)

    def settle(t: int) -> None:
        nonlocal trial_ids, rngs
        done = dynamics.finished(target, full_target)
        if done.any():
            completion[trial_ids[done]] = float(t)
            keep = ~done
            trial_ids = trial_ids[keep]
            if trial_ids.size:
                dynamics.compact(keep)
                rngs = [rngs[r] for r in np.flatnonzero(keep)]
        if series:
            live = dynamics.complete_nodes() if trial_ids.size else 0
            complete_totals.append((trials - int(trial_ids.size)) * n + live)

    # Degenerate runs (n == 1, every source row full) finish at round 0
    # before any draw.
    settle(0)
    rounds = 0
    for t in range(1, max_rounds + 1):
        if trial_ids.size == 0:
            break
        rounds = t
        if events is not None:
            round_t0 = perf_counter()
            active = int(trial_ids.size)
        faults = None
        if healthy:
            outcome = dynamics.channel_step(t, network, rngs, counted)
        else:
            alive = plan.alive_at(t, n)
            lost = plan.forget_at(t)
            if lost.size:
                dynamics.forget(lost)
            outcome, garbage = _fault_round(network, plan, dynamics, t, rngs, alive)
            faults = {"alive": int(np.count_nonzero(alive)), "forgot": int(lost.size),
                      "garbage": garbage}
        dynamics.update(t, outcome, trial_ids)
        record = None
        if traced:
            record = dynamics.record(t, outcome)
            trace.records.append(record)
        elif series:
            tx_counts.append(outcome.num_transmitters)
            coll_counts.append(outcome.num_collided)
        settle(t)
        if events is not None:
            events.round(t, outcome, active, record, faults, perf_counter() - round_t0)

    if traced:
        finished = bool(np.isfinite(completion[0]))
        dynamics.finish(trace, target, full_target, finished)
    if events is not None:
        events.end(rounds, completion)
    if traced:
        if not finished and raise_on_incomplete:
            raise BroadcastIncompleteError(
                dynamics.incomplete_message(max_rounds, target, full_target), trace=trace
            )
        return trace
    fractions = np.ones(trials)
    if trial_ids.size:
        fractions[trial_ids] = dynamics.fractions()
    as_series = (lambda v: np.asarray(v, dtype=np.int64)) if series else (lambda v: None)
    return LockstepRun(
        completion,
        fractions,
        rounds,
        as_series(tx_counts),
        as_series(coll_counts),
        as_series(complete_totals),
    )
