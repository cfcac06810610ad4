"""The unified dissemination core: two drivers for every process.

The paper treats its communication problems as one family — gossiping is
the Section 4 extension of broadcasting, ``k``-token dissemination spans
the two, and single-port push (Feige et al., Section 1.2) is the
collision-free baseline.  This module mirrors that architecturally: a
:class:`Dynamics` object captures *what spreads and when it is done*
(state init, per-round update from the channel outcome, completion
predicate, trace-record emission), and two drivers own everything else:

* :func:`run_dissemination` runs one trial — the round budget, the
  connectivity precheck, fault-plan application, the incomplete-run
  error path and trace assembly;
* :func:`run_lockstep` advances ``R`` healthy trials of a radio-channel
  dynamics in trial-major ``(R, n)`` lockstep, one batched count kernel
  per round — the Monte-Carlo path behind ``run_broadcast_batch``,
  ``run_gossip_batch`` and ``run_multimessage_batch``.

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

:func:`repro.simulate` runs any registered dynamics under
:func:`run_dissemination`, so every process shares the fault path:
radio-channel dynamics (broadcast, gossip, multimessage) accept a
:class:`~repro.faults.FaultPlan` with identical jammer / churn /
lossy-link semantics (docs/FAULTS.md).

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
    "run_lockstep",
    "default_round_cap",
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
    """What one channel round delivered, in dynamics-agnostic currency.

    Attributes
    ----------
    receivers: ids of nodes that successfully received this round.  For
        radio dynamics these are the collision-free listeners (possibly
        already holding the content); point-to-point dynamics report the
        newly reached nodes directly.
    senders: informer ids aligned element-wise with ``receivers``, or
        ``None`` when the channel did not track them (fault path with
        ``needs_informer`` False, point-to-point channels).
    num_transmitters: channel occupants this round (garbage transmitters
        included under faults).
    num_collided: listeners lost to collisions (0 in collision-free
        models).
    """

    receivers: IntArray
    senders: IntArray | None
    num_transmitters: int
    num_collided: int


class Dynamics(ABC):
    """State machine of one dissemination process under the shared driver.

    A dynamics object owns *state* (who knows what), the *transmit rule*
    (usually by delegating to a :class:`RadioProtocol`), the *completion
    predicate* and the *trace vocabulary*; :func:`run_dissemination` owns
    the loop around it.  Subclasses register themselves in
    :data:`DYNAMICS_REGISTRY` under :attr:`name`.

    Radio-channel dynamics implement :meth:`content_mask` and
    :meth:`transmit_mask` and inherit the default :meth:`channel_step`
    (the collision channel via :meth:`RadioNetwork.step`); point-to-point
    dynamics override :meth:`channel_step` wholesale and never see the
    radio kernel.  Only radio-channel dynamics can support fault plans.

    Radio-channel dynamics with a stateless ``protocol`` may also run
    under :func:`run_lockstep`.  Their state then gains a leading trial
    axis: :attr:`batch_state` names the arrays that :meth:`batch_start`
    stacks ``R`` times and :meth:`batch_compact` narrows to the active
    trials, and the subclass supplies ``batch_holders`` /
    ``batch_holder_rounds`` (``(R, n)`` inputs to the protocol's batch
    mask), ``batch_update(t, step, trial_ids)`` (fold one
    :class:`~repro.radio.model.BatchStepResult`), ``batch_finished``
    (per-trial completion mask), ``batch_complete_nodes`` (nodes holding
    everything, summed over active trials) and ``batch_fractions``
    (per-trial final fraction).
    """

    #: Registry key and report label.
    name: str = "dynamics"
    #: One-line description shown by ``python -m repro dynamics``.
    summary: str = ""
    #: Whether the driver may apply an active fault plan to this dynamics.
    supports_faults: bool = False
    #: Whether :meth:`update` needs ``RoundOutcome.senders`` on the fault
    #: path (the healthy radio channel always provides them for free) and
    #: whether :func:`run_lockstep` extracts batched informers.
    needs_informer: bool = False
    #: Root node for the driver's connectivity precheck.
    connectivity_root: int = 0
    #: Per-node state arrays :func:`run_lockstep` stacks along a leading
    #: trial axis; empty for dynamics without a lockstep path.
    batch_state: tuple[str, ...] = ()

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
    def start(self, network: RadioNetwork, rng: np.random.Generator,
              fault_path: bool) -> None:
        """Allocate run state (and prepare the protocol, if any)."""

    @abstractmethod
    def default_round_cap(self, n: int) -> int:
        """Round budget used when the caller passes ``max_rounds=None``."""

    # -- channel -------------------------------------------------------

    def content_mask(self) -> BoolArray:
        """Nodes currently holding transmittable content.

        Required for radio-channel dynamics (the driver intersects the
        protocol's mask with it, and with the alive set under faults).
        """
        raise NotImplementedError(f"{self.name} dynamics has no radio content mask")

    def transmit_mask(self, t: int, rng: np.random.Generator) -> BoolArray:
        """The protocol's transmit decision for round ``t`` (pre-intersection)."""
        raise NotImplementedError(f"{self.name} dynamics has no radio transmit rule")

    def channel_step(
        self, t: int, network: RadioNetwork, rng: np.random.Generator
    ) -> RoundOutcome:
        """Execute one healthy channel round.

        Default: the radio collision channel — protocol mask intersected
        with the content holders, one :meth:`RadioNetwork.step`.
        Point-to-point dynamics (single-port, agents) override this.
        """
        content = self.content_mask()
        mask = np.asarray(self.transmit_mask(t, rng), dtype=bool) & content
        result = network.step(mask, content)
        receivers = np.flatnonzero(result.received)
        return RoundOutcome(
            receivers=receivers,
            senders=result.informer[receivers],
            num_transmitters=result.num_transmitters,
            num_collided=result.num_collided,
        )

    # -- state updates -------------------------------------------------

    def forget(self, ids: IntArray) -> None:
        """Reset churned nodes rejoining uninformed (fault path only)."""
        raise NotImplementedError(f"{self.name} dynamics does not support churn")

    @abstractmethod
    def update(self, t: int, outcome: RoundOutcome) -> None:
        """Fold one round's deliveries into the state."""

    @abstractmethod
    def complete(self, target: BoolArray, full_target: bool) -> bool:
        """Completion predicate relative to the (fault-aware) target set."""

    # -- trace ---------------------------------------------------------

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

    # -- lockstep batch ------------------------------------------------

    def batch_start(self, network: RadioNetwork, repetitions: int) -> None:
        """Allocate ``repetitions`` copies of the initial state, trial-major.

        Runs the serial :meth:`start` (which prepares the protocol and
        draws nothing) and stacks each :attr:`batch_state` array, so
        every trial begins exactly where a serial run would.
        """
        if not self.batch_state:
            raise InvalidParameterError(f"{self.name} dynamics has no lockstep batch path")
        self.start(network, None, fault_path=False)
        for name in self.batch_state:
            value = getattr(self, name)
            setattr(self, name, np.broadcast_to(value, (repetitions,) + value.shape).copy())

    def batch_compact(self, keep: BoolArray) -> None:
        """Drop the rows of finished trials from every batch-state array."""
        for name in self.batch_state:
            setattr(self, name, getattr(self, name)[keep])

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class SingleMessageDynamics(Dynamics):
    """Shared informed-mask state for single-message processes.

    Broadcast over the radio channel, single-port push/push–pull and the
    agent-based model all track the same state — ``informed`` /
    ``informed_round`` — and emit :class:`RoundRecord` rows into a
    :class:`BroadcastTrace`.  Subclasses provide the channel.
    """

    def __init__(self, source: int):
        self.source = source
        self.connectivity_root = source
        self.informed: BoolArray | None = None
        self.informed_round: IntArray | None = None
        self._informer: IntArray | None = None
        self._num_new = 0
        self._n = 0

    def start(self, network, rng, fault_path):
        n = network.n
        self._n = n
        self.informed = np.zeros(n, dtype=bool)
        self.informed[self.source] = True
        self.informed_round = np.full(n, -1, dtype=np.int64)
        self.informed_round[self.source] = 0

    def content_mask(self):
        return self.informed

    def forget(self, ids):
        self.informed[ids] = False
        self.informed_round[ids] = -1

    def update(self, t, outcome):
        recv = outcome.receivers
        if recv.size:
            fresh = ~self.informed[recv]
            new = recv[fresh]
            if new.size:
                if self._informer is not None and outcome.senders is not None:
                    self._informer[new] = outcome.senders[fresh]
                self.informed[new] = True
                self.informed_round[new] = t
            self._num_new = int(new.size)
        else:
            self._num_new = 0

    def complete(self, target, full_target):
        if full_target:
            return bool(self.informed.all())
        return bool(np.all(self.informed[target]))

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
        if finished and not full_target:
            trace.informed = self.informed | ~target
        else:
            trace.informed = self.informed
        trace.informed_round = self.informed_round
        trace.informer = self._informer

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
    applies an optional fault plan.  On the healthy path the who-informed-
    whom tree is recorded for :mod:`repro.radio.analysis`.
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

    def start(self, network, rng, fault_path):
        super().start(network, rng, fault_path)
        self.protocol.prepare(network.n, self.p, self.source)
        # Informer tracking (the broadcast tree) exists on the healthy
        # path only, exactly as the historical engine behaved.
        self._informer = None if fault_path else np.full(self._n, -1, dtype=np.int64)

    def transmit_mask(self, t, rng):
        return self.protocol.transmit_mask(t, self.informed, self.informed_round, rng)

    def channel_step(self, t, network, rng):
        content = self.informed
        mask = np.asarray(self.transmit_mask(t, rng), dtype=bool) & content
        result = network.step(mask, content)
        new = result.newly_informed
        return RoundOutcome(
            receivers=new,
            senders=result.informer[new],
            num_transmitters=result.num_transmitters,
            num_collided=result.num_collided,
        )

    batch_state = ("informed", "informed_round")

    def batch_holders(self):
        return self.informed

    def batch_holder_rounds(self):
        return self.informed_round

    def batch_update(self, t, step, trial_ids):
        received = step.received.T
        newly = received > self.informed  # received & ~informed, one pass on bools
        self.informed |= received
        np.copyto(self.informed_round, t, where=newly)

    def batch_finished(self):
        return self.informed.all(axis=1)

    def batch_complete_nodes(self):
        return int(self.informed.sum())

    def batch_fractions(self):
        return self.informed.sum(axis=1) / float(self._n)

    def incomplete_message(self, max_rounds, target, full_target):
        if full_target:
            detail = f"{int(np.count_nonzero(self.informed))}/{self._n} nodes informed"
        else:
            detail = (
                f"{int(np.count_nonzero(self.informed[target]))}/"
                f"{int(np.count_nonzero(target))} surviving nodes informed"
            )
        return f"{self.protocol.name}: {detail} after {max_rounds} rounds"


def _fault_round(network, plan, mask, alive, garbage, rng, need_informer):
    """One faulty reception step.

    Returns ``(received, senders, num_collided, num_transmitters)`` where
    ``senders`` is ``None`` unless ``need_informer``.  ``mask`` is the set
    of protocol transmitters (content-holding and alive); ``garbage`` the
    noise transmitters (or ``None``).  A garbage transmission always wins
    over a protocol transmission at the same node: the payload is
    corrupted, so it occupies the channel without carrying the message.
    """
    if garbage is None:
        all_tx = mask
        carrying = mask
    else:
        garbage = garbage & alive
        all_tx = mask | garbage
        carrying = mask & ~garbage
    if plan.links is not None:
        counts = plan.links.sample_round_counts(
            all_tx, carrying, rng, with_informer=need_informer
        )
        # (total, message[, informer sums]): either of the last two is
        # positive exactly where a live carrying transmission arrived.
        total, sums = counts[0], counts[-1]
    else:
        total, sums = network.arrivals(all_tx, carrying)
    received, collided = reception_rule(~all_tx & alive, total, sums)
    senders = sums[received] - 1 if need_informer else None
    return received, senders, int(np.count_nonzero(collided)), int(np.count_nonzero(all_tx))


def _observe_round(obs, dynamics, run_id, t, outcome, record, faults, wall):
    """Fold one round into the attached observer (registry and/or sink)."""
    name = dynamics.name
    if obs.registry is not None:
        reg = obs.registry
        reg.inc("round.count", 1, label=name)
        reg.inc("round.transmissions", outcome.num_transmitters, label=name)
        reg.inc("round.collisions", outcome.num_collided, label=name)
        reg.inc("round.deliveries", int(outcome.receivers.size), label=name)
        reg.observe("round.wall_s", wall, label=name)
    if obs.sink is not None:
        event = {
            "v": SCHEMA_VERSION,
            "kind": "round",
            "run": run_id,
            "dynamics": name,
            "t": t,
            "transmitters": int(outcome.num_transmitters),
            "collisions": int(outcome.num_collided),
            "received": int(outcome.receivers.size),
            "wall_s": wall,
        }
        event.update(dynamics.event_fields(record))
        if faults is not None:
            event["faults"] = faults
        obs.emit(event)


def _round_budget(dynamics: Dynamics, n: int, max_rounds: int | None) -> int:
    """``max_rounds``, or the dynamics' default cap when it is ``None``."""
    if max_rounds is None:
        return dynamics.default_round_cap(n)
    if max_rounds < 0:
        raise InvalidParameterError(f"max_rounds must be >= 0, got {max_rounds}")
    return max_rounds


def run_dissemination(
    network: RadioNetwork,
    dynamics: Dynamics,
    *,
    plan=None,
    seed: SeedLike = None,
    max_rounds: int | None = None,
    check_connected: bool = True,
    raise_on_incomplete: bool = True,
    obs=None,
):
    """Run one dissemination process to completion under the shared loop.

    Parameters
    ----------
    network: the radio network (point-to-point dynamics read only its
        ``adj``).
    dynamics: the process — state, transmit rule, completion predicate.
    plan: a fault plan (see module docstring) or ``None`` for a healthy
        run.  Only :attr:`Dynamics.supports_faults` dynamics accept an
        active plan.
    seed: RNG seed or generator for the run's coin flips (protocol,
        adversaries and link outages all share one stream; see
        :mod:`repro.faults.plan` for the draw order).
    max_rounds: round budget; defaults to
        :meth:`Dynamics.default_round_cap`.
    check_connected: verify reachability from the dynamics' root up front
        and raise :class:`DisconnectedGraphError` instead of burning the
        budget.  The answer is cached on the adjacency, so trials on one
        graph share a single BFS.
    raise_on_incomplete: raise :class:`BroadcastIncompleteError` on a
        budget miss (default); ``False`` returns the partial trace —
        fault sweeps such as E14 use that to count stalled trials.
    obs: an :class:`~repro.obs.Observer` receiving per-round metrics and
        trace events; defaults to the ambient observer installed with
        :func:`~repro.obs.use_observer`, if any.  Observation never
        touches the RNG stream or the returned trace — with no observer
        anywhere the loop runs exactly as before (one ``is None`` branch
        per round).

    Returns
    -------
    The dynamics' trace type (:class:`BroadcastTrace` or
    :class:`~repro.gossip.trace.GossipTrace`).  Under faults, completion
    refers to the *eventually-alive* target set.
    """
    n = network.n
    fast = plan is None or plan.is_null
    if not fast and not dynamics.supports_faults:
        raise InvalidParameterError(
            f"{dynamics.name} dynamics does not support fault plans"
        )
    if plan is not None:
        plan.validate(n)
    max_rounds = _round_budget(dynamics, n, max_rounds)
    if check_connected and not reaches_all(network.adj, dynamics.connectivity_root):
        raise DisconnectedGraphError(dynamics.disconnected_message())
    rng = as_generator(seed)
    dynamics.start(network, rng, fault_path=not fast)
    target = plan.target(n) if plan is not None else np.ones(n, dtype=bool)
    full_target = bool(np.all(target))
    trace = dynamics.make_trace()

    if obs is None:
        obs = current_observer()
    if obs is not None and not obs.active:
        obs = None
    run_id = -1
    run_t0 = 0.0
    if obs is not None:
        run_id = obs.next_run_id()
        run_t0 = perf_counter()
        obs.emit(
            {
                "v": SCHEMA_VERSION,
                "kind": "run-start",
                "run": run_id,
                "dynamics": dynamics.name,
                "n": n,
                "max_rounds": int(max_rounds),
                "faulty": not fast,
            }
        )

    for t in range(1, max_rounds + 1):
        if dynamics.complete(target, full_target):
            break
        if obs is not None:
            round_t0 = perf_counter()
            fault_info = None
        if fast:
            outcome = dynamics.channel_step(t, network, rng)
        else:
            alive = plan.alive_at(t, n)
            lost = plan.forget_at(t)
            if lost.size:
                dynamics.forget(lost)
            mask = (
                np.asarray(dynamics.transmit_mask(t, rng), dtype=bool)
                & dynamics.content_mask()
                & alive
            )
            garbage = plan.garbage_mask(t, rng)
            received, senders, num_collided, num_tx = _fault_round(
                network, plan, mask, alive, garbage, rng, dynamics.needs_informer
            )
            outcome = RoundOutcome(
                receivers=np.flatnonzero(received).astype(np.int64),
                senders=senders,
                num_transmitters=num_tx,
                num_collided=num_collided,
            )
            if obs is not None:
                fault_info = {
                    "alive": int(np.count_nonzero(alive)),
                    "forgot": int(lost.size),
                    "garbage": (
                        0 if garbage is None else int(np.count_nonzero(garbage & alive))
                    ),
                }
        dynamics.update(t, outcome)
        record = dynamics.record(t, outcome)
        trace.records.append(record)
        if obs is not None:
            _observe_round(
                obs, dynamics, run_id, t, outcome, record, fault_info,
                perf_counter() - round_t0,
            )
    finished = dynamics.complete(target, full_target)
    dynamics.finish(trace, target, full_target, finished)
    if obs is not None:
        run_wall = perf_counter() - run_t0
        obs.observe("run.wall_s", run_wall, label=dynamics.name)
        obs.inc("run.count", 1, label=dynamics.name)
        obs.emit(
            {
                "v": SCHEMA_VERSION,
                "kind": "run-end",
                "run": run_id,
                "dynamics": dynamics.name,
                "rounds": len(trace.records),
                "completed": bool(finished),
                "wall_s": run_wall,
            }
        )
    if not finished and raise_on_incomplete:
        raise BroadcastIncompleteError(
            dynamics.incomplete_message(max_rounds, target, full_target), trace=trace
        )
    return trace


@dataclass(frozen=True)
class LockstepRun:
    """Per-trial outcomes of :func:`run_lockstep`.

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


def run_lockstep(
    network: RadioNetwork,
    dynamics: Dynamics,
    *,
    repetitions: int,
    seed: SeedLike = None,
    max_rounds: int | None = None,
    check_connected: bool = True,
    with_stats: bool = False,
    obs=None,
) -> LockstepRun:
    """Run ``repetitions`` healthy trials of ``dynamics`` in vectorized lockstep.

    Bit-for-bit equivalent to ``repetitions`` :func:`run_dissemination`
    calls seeded with ``spawn_generators(seed, repetitions)``: protocols
    draw one ``random(n)`` block per *active* trial per round (see
    :func:`~repro.radio.protocol.bernoulli_mask_batch`) and a completed
    trial stops drawing.  Each round advances every unfinished trial with
    one batched count kernel (:meth:`RadioNetwork.step_batch`) instead of
    one sparse matvec per trial.  The dynamics needs a lockstep path (see
    :class:`Dynamics`) and a protocol that is stateless across rounds.

    ``seed`` is the root seed of the per-trial streams; budget misses
    report ``inf`` instead of raising.  ``with_stats`` records the
    per-round series (an attached observer implies it; results are
    identical either way); ``obs`` receives ``batch-*`` events and
    ``batch.*`` metrics and defaults to the ambient observer.
    """
    n = network.n
    root = dynamics.connectivity_root
    if not 0 <= root < n:
        raise InvalidParameterError(f"source {root} out of range [0, {n})")
    if repetitions < 1:
        raise InvalidParameterError(f"repetitions must be >= 1, got {repetitions}")
    max_rounds = _round_budget(dynamics, n, max_rounds)
    if check_connected and not reaches_all(network.adj, root):
        raise DisconnectedGraphError(dynamics.disconnected_message())
    rngs = spawn_generators(seed, repetitions)
    dynamics.batch_start(network, repetitions)
    protocol = dynamics.protocol
    label = protocol.name
    engine = f"{dynamics.name}-batch"
    if obs is None:
        obs = current_observer()
    if obs is not None and not obs.active:
        obs = None
    collect = with_stats or obs is not None
    tx_counts: list[int] = []
    coll_counts: list[int] = []
    complete_totals: list[int] = []
    if obs is not None:
        run_id = obs.next_run_id()
        run_t0 = perf_counter()
        obs.emit(
            {
                "v": SCHEMA_VERSION,
                "kind": "batch-start",
                "run": run_id,
                "engine": engine,
                "backend": current_backend_name(),
                "n": n,
                "repetitions": int(repetitions),
                "max_rounds": int(max_rounds),
            }
        )

    # The dynamics' state is trial-major — ``(R, n, ...)`` C-order, one
    # contiguous row per trial — and holds only the still-active trials:
    # a completed trial's row is dropped, so straggler rounds touch narrow
    # arrays.  The model-facing ``(n, R)`` orientation is a free view.
    trial_ids = np.arange(repetitions, dtype=np.int64)
    completion = np.full(repetitions, np.inf)

    def settle(t: int) -> None:
        nonlocal trial_ids, rngs
        finished = dynamics.batch_finished()
        if finished.any():
            completion[trial_ids[finished]] = float(t)
            keep = ~finished
            dynamics.batch_compact(keep)
            trial_ids = trial_ids[keep]
            rngs = [rngs[r] for r in np.flatnonzero(keep)]
        if collect:
            done_trials = repetitions - int(trial_ids.size)
            complete_totals.append(dynamics.batch_complete_nodes() + done_trials * n)

    # Degenerate runs (n == 1, every source row full) finish at round 0
    # before any draw, as the serial loop's top check would.
    settle(0)
    rounds_executed = 0
    for t in range(1, max_rounds + 1):
        if trial_ids.size == 0:
            break
        rounds_executed = t
        if obs is not None:
            round_t0 = perf_counter()
            active = int(trial_ids.size)
        holders = dynamics.batch_holders()
        rounds = dynamics.batch_holder_rounds()
        mask = protocol.transmit_mask_batch(t, holders.T, rounds.T, rngs)
        rows = np.asarray(mask, dtype=bool).T
        if not rows.flags.c_contiguous:
            rows = np.ascontiguousarray(rows)
        rows = rows & holders
        step = network.step_batch(
            rows.T,
            holders.T,
            with_collided=collect,
            with_transmitters=False,
            assume_informed=True,
            with_informer=dynamics.needs_informer,
        )
        if collect:
            tx_counts.append(int(np.count_nonzero(rows)))
            coll_counts.append(int(np.count_nonzero(step.collided)))
        dynamics.batch_update(t, step, trial_ids)
        settle(t)
        if obs is not None:
            wall = perf_counter() - round_t0
            obs.inc("batch.rounds", 1, label=label)
            obs.inc("batch.transmissions", tx_counts[-1], label=label)
            obs.inc("batch.collisions", coll_counts[-1], label=label)
            obs.observe("batch.round_wall_s", wall, label=label)
            if obs.sink is not None:
                obs.emit(
                    {
                        "v": SCHEMA_VERSION,
                        "kind": "batch-round",
                        "run": run_id,
                        "engine": engine,
                        "t": t,
                        "active": active,
                        "transmitters": tx_counts[-1],
                        "collisions": coll_counts[-1],
                        "wall_s": wall,
                    }
                )

    fractions = np.ones(repetitions)
    if trial_ids.size:
        fractions[trial_ids] = dynamics.batch_fractions()
    if obs is not None:
        wall = perf_counter() - run_t0
        obs.observe("batch.wall_s", wall, label=label)
        obs.emit(
            {
                "v": SCHEMA_VERSION,
                "kind": "batch-end",
                "run": run_id,
                "engine": engine,
                "rounds": rounds_executed,
                "num_completed": int(np.count_nonzero(np.isfinite(completion))),
                "wall_s": wall,
            }
        )
    series = (lambda v: np.asarray(v, dtype=np.int64)) if collect else (lambda v: None)
    return LockstepRun(
        completion,
        fractions,
        rounds_executed,
        series(tx_counts),
        series(coll_counts),
        series(complete_totals),
    )
