"""The radio round kernel.

One communication step of the paper's model, fully vectorized: given the
transmitter mask, one pass counts how many transmissions reach each node
and sums the ids of the message-carrying senders among them
(:meth:`RadioNetwork.arrivals`), and :func:`reception_rule` classifies every
node into received / collided / silent.  Only the transmitters' edges
matter, so when they are few (:func:`gather_pays`) the pass gathers just
their neighbour lists; otherwise it is one CSR matvec over every edge.
The serial round keeps no scratch state, so threads may :meth:`~RadioNetwork.step`
one network at once.

The kernel is deliberately free of protocol logic — schedules and
distributed protocols both reduce to a sequence of transmitter masks fed to
:meth:`RadioNetwork.step`.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .._typing import BoolArray, IntArray
from ..errors import GraphError, SimulationError
from ..graphs.adjacency import Adjacency
from ..graphs.bfs import neighbor_targets
from ..obs import current_observer
from .bitslice import bits_path_pays, bitsliced_reception, scatter_work

__all__ = ["RadioNetwork", "StepResult", "BatchStepResult", "reception_rule", "gather_pays"]


@dataclass(frozen=True)
class StepResult:
    """Outcome of one radio round.

    Attributes
    ----------
    received:
        Mask of nodes that successfully received the message this round
        (listening, exactly one transmitting neighbour, and that neighbour
        informed).  May include nodes that were already informed.
    newly_informed:
        Sorted ids of nodes informed for the first time this round.
    collided:
        Mask of listening nodes with two or more transmitting neighbours
        (they hear nothing; no collision detection in this model).
    num_transmitters:
        How many nodes transmitted.
    informer:
        For every node in ``received``, the id of the unique transmitting
        neighbour it heard; ``-1`` elsewhere.  This is what broadcast-tree
        extraction reads.
    """

    received: BoolArray
    newly_informed: IntArray
    collided: BoolArray
    num_transmitters: int
    informer: IntArray

    @property
    def num_new(self) -> int:
        """Number of nodes informed for the first time this round."""
        return int(self.newly_informed.size)

    @property
    def num_collided(self) -> int:
        """Number of listeners lost to collisions this round."""
        return int(np.count_nonzero(self.collided))


@dataclass(frozen=True)
class BatchStepResult:
    """Outcome of one radio round advanced across ``R`` independent trials.

    All masks have shape ``(n, R)`` — column ``r`` is trial ``r``'s round,
    with exactly the same semantics as the corresponding
    :class:`StepResult` fields.  ``collided`` is ``None`` when the step
    was asked to skip collision accounting (the broadcast batch engine
    does; it only needs receptions), and ``informer`` is ``None`` unless
    the step was asked for it (the gossip batch engine needs the sender
    of every reception to merge knowledge rows; pure timing sweeps skip
    the extra spmm).
    """

    received: BoolArray
    collided: BoolArray | None
    num_transmitters: IntArray | None
    informer: IntArray | None = None

    @property
    def repetitions(self) -> int:
        """Number of trials advanced by this step."""
        return int(self.received.shape[1])


def reception_rule(
    listening: BoolArray, total: IntArray, sums: IntArray
) -> tuple[BoolArray, BoolArray]:
    """``(received, collided)`` under the paper's rule (Section 1.1).

    A listener receives when exactly one transmission arrives (``total ==
    1``) and it carries the message (``sums > 0``); two or more collide.
    """
    return listening & (total == 1) & (sums > 0), listening & (total >= 2)


#: Cost of one gathered neighbour-list entry (two repeats, a gather and
#: a float scatter-add), in units of one matvec entry.
GATHER_ENTRY_COST = 8
#: Fixed cost of one gather call (finding the transmitters, zeroing and
#: unpacking the ``n``-long output), in the same units.
GATHER_CALL_COST = 10_000
#: Graphs with fewer stored entries always take the matvec, and
#: :class:`RadioNetwork` decides that once, without looking at any
#: round's transmitters.  Even an empty round saves them less than half a
#: matvec, and the rounds that do not gather would still pay for finding
#: their transmitters.
GATHER_MIN_NNZ = 2 * GATHER_CALL_COST


def gather_pays(nnz: int, work: int) -> bool:
    """Whether one serial round runs the transmitter gather.

    ``work`` is the number of neighbour-list entries the gather reads
    (the transmitters' degree sum); the matvec reads all ``nnz``.
    """
    return nnz >= GATHER_MIN_NNZ and GATHER_ENTRY_COST * work + GATHER_CALL_COST < nnz


class RadioNetwork:
    """A radio network over a fixed undirected topology.

    Parameters
    ----------
    adj:
        The connectivity graph.  A message transmitted by ``v`` reaches all
        neighbours of ``v`` (its *range*), subject to collisions.
    """

    def __init__(self, adj: Adjacency):
        if adj.n == 0:
            raise GraphError("radio network needs at least one node")
        self.adj = adj
        max_degree = adj.max_degree
        bits = max_degree.bit_length()
        self._shift = bits if max_degree * (1 + (adj.n << bits)) < 2**63 else None
        self._gate_args = (adj.indices.size, max_degree, adj.n)
        self._ids = np.arange(1, adj.n + 1, dtype=np.int64)
        self._ids.flags.writeable = False
        # The gather sums float64 weights, exact while every sum is
        # below 2**53 (which implies the packing fits in int64).
        self._may_gather = (
            adj.indices.size >= GATHER_MIN_NNZ and max_degree * (1 + (adj.n << bits)) < 2**53
        )

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self.adj.n

    def _check_mask(self, mask: np.ndarray, name: str) -> BoolArray:
        mask = np.asarray(mask)
        if mask.shape != (self.n,) or mask.dtype != np.bool_:
            raise SimulationError(
                f"{name} must be a bool array of shape ({self.n},), "
                f"got shape {mask.shape} dtype {mask.dtype}"
            )
        return mask

    def step(self, transmitting: BoolArray, informed: BoolArray) -> StepResult:
        """Execute one synchronous round.

        Parameters
        ----------
        transmitting:
            Mask of nodes that transmit this round.  Uninformed
            transmitters are allowed (the Theorem 6 lower-bound proof
            reasons about arbitrary transmit sets); they occupy the channel
            and cause collisions but deliver no message.
        informed:
            Mask of nodes currently holding the message.

        Returns
        -------
        StepResult
            Per-round outcome; the caller owns updating its ``informed``
            state from ``newly_informed``.
        """
        transmitting = self._check_mask(transmitting, "transmitting")
        informed = self._check_mask(informed, "informed")
        total, sums = self.arrivals(transmitting, transmitting & informed)
        received, collided = reception_rule(~transmitting, total, sums)
        return StepResult(
            received=received,
            newly_informed=np.flatnonzero(received & ~informed).astype(np.int64),
            collided=collided,
            num_transmitters=int(np.count_nonzero(transmitting)),
            informer=np.where(received, sums - 1, np.int64(-1)),
        )

    def arrivals(self, transmitting: BoolArray, carrying: BoolArray) -> tuple[IntArray, IntArray]:
        """Per-node ``(total, sums)`` for one round, exact integers.

        ``total[v]`` counts ``v``'s transmitting neighbours and ``sums[v]``
        adds ``id + 1`` over those that carry the message (``carrying``
        must lie inside ``transmitting``): where ``total == 1`` it is the
        sender's id + 1, or 0 if the sender carries nothing.  Both ride
        in one packed weight, ``1 + (carrying * (id + 1) << b)`` with
        ``b`` bits enough for any degree, so one pass yields ``total`` in
        the low bits and ``sums`` above them.

        Only the transmitters' edges matter, so when they are few
        (:func:`gather_pays`) one ``bincount`` over the transmitters'
        neighbour lists does the round; otherwise one CSR matvec reads
        every stored entry.  Graphs where the packing could overflow take
        two matvecs.  Every path returns the same integers.
        """
        path = "matvec"
        if self._may_gather:
            tx = np.flatnonzero(transmitting)
            if gather_pays(self._gate_args[0], int(self.adj.degrees[tx].sum())):
                path = "gather"
        obs = current_observer()
        if obs is not None:
            obs.inc("kernel.serial_calls", 1, label=path)
        if path == "gather":
            return self._gather(tx, carrying)
        return self._matvec(transmitting, carrying)

    def _gather(self, tx: IntArray, carrying: BoolArray) -> tuple[IntArray, IntArray]:
        """:meth:`arrivals` over the neighbour lists of the transmitters ``tx``.

        The weights are ``float64`` and the per-node sums stay below
        ``2**53`` (checked once in ``__init__``), so the ``bincount`` is
        exact.
        """
        shift = self._shift
        targets, lens = neighbor_targets(self.adj, tx)
        weights = np.where(carrying[tx], ((tx + 1) << shift) + 1.0, 1.0)
        packed = np.bincount(
            targets, weights=np.repeat(weights, lens), minlength=self.n
        ).astype(np.int64)
        return packed & ((1 << shift) - 1), packed >> shift

    def _matvec(self, transmitting: BoolArray, carrying: BoolArray) -> tuple[IntArray, IntArray]:
        """:meth:`arrivals` as one CSR matvec over every stored entry."""
        matrix = self.adj.matrix()
        operand = np.multiply(carrying, self._ids)
        if self._shift is None:
            return matrix.dot(transmitting.astype(np.int64)), matrix.dot(operand)
        operand <<= self._shift
        operand += transmitting
        packed = matrix.dot(operand)
        return packed & ((1 << self._shift) - 1), packed >> self._shift

    def _check_mask_batch(self, mask: np.ndarray, name: str) -> BoolArray:
        mask = np.asarray(mask)
        if mask.ndim != 2 or mask.shape[0] != self.n or mask.dtype != np.bool_:
            raise SimulationError(
                f"{name} must be a bool array of shape ({self.n}, R), "
                f"got shape {mask.shape} dtype {mask.dtype}"
            )
        return mask

    def step_batch(
        self,
        transmitting: BoolArray,
        informed: BoolArray,
        *,
        with_collided: bool = True,
        with_transmitters: bool = True,
        assume_informed: bool = False,
        with_informer: bool = False,
    ) -> BatchStepResult:
        """Execute one synchronous round of ``R`` independent trials.

        Both arguments have shape ``(n, R)``: column ``r`` is the
        transmitter/informed state of trial ``r``.  The trials share the
        topology but nothing else — the reception rule is applied
        column-wise, and the per-trial sparse matvecs of :meth:`step`
        become one batched count kernel over all columns
        (:meth:`~repro.graphs.adjacency.Adjacency.neighbor_counts_batch`).

        The keyword switches let hot timing loops shed accounting they
        never read: ``with_collided=False`` skips the collision mask,
        ``with_transmitters=False`` skips the per-trial transmitter tally,
        and ``assume_informed=True`` asserts the caller already
        intersected ``transmitting`` with ``informed`` (every transmission
        carries the message), skipping the uninformed-transmitter pass.
        ``with_informer=True`` adds the batched analogue of
        :attr:`StepResult.informer` — one extra batched spmm over carrying
        transmitter ids; the gossip engine reads it to merge knowledge
        rows.

        With ``assume_informed=True`` and no informer, a round whose
        transmissions are many enough for :func:`~repro.radio.bitslice.bits_path_pays`
        runs the bit-sliced kernel
        (:func:`~repro.radio.bitslice.bitsliced_reception`) instead of
        exact counts.  Its received and collided sets are the same.

        Returns
        -------
        BatchStepResult
            Column-wise round outcome; the caller owns updating its
            per-trial ``informed`` state from ``received``.
        """
        transmitting = self._check_mask_batch(transmitting, "transmitting")
        informed = self._check_mask_batch(informed, "informed")
        num_transmitters = (
            transmitting.sum(axis=0, dtype=np.int64) if with_transmitters else None
        )
        if assume_informed and not with_informer and self._bits_pay(transmitting.T):
            received, collided = self._bitsliced(transmitting.T, with_collided)
            return BatchStepResult(
                received=received.T,
                collided=None if collided is None else collided.T,
                num_transmitters=num_transmitters,
            )
        total = self.adj.neighbor_counts_batch(transmitting)
        if assume_informed:
            carrying = transmitting
            message = total
        else:
            carrying = transmitting & informed
            if np.array_equal(carrying, transmitting):
                message = total
            else:
                message = self.adj.neighbor_counts_batch(carrying)
        listening = ~transmitting
        received = listening & (total == 1)
        if message is not total:
            received &= message == 1
        collided = listening & (total >= 2) if with_collided else None
        informer = None
        if with_informer:
            # Batched informer extraction: sum (id + 1) over carrying
            # transmitting neighbours, column-wise; where the reception
            # rule held, that sum is the unique sender's id + 1.
            ids = np.where(
                carrying,
                (np.arange(self.n, dtype=np.int64) + 1)[:, None],
                np.int64(0),
            )
            sums = self.adj.matrix().dot(ids)
            informer = np.where(received, sums - 1, np.int64(-1))
        return BatchStepResult(
            received=received,
            collided=collided,
            num_transmitters=num_transmitters,
            informer=informer,
        )

    def _bits_pay(self, rows: BoolArray) -> bool:
        """Whether the bit-sliced kernel should run on the ``(R, n)`` rows."""
        nnz, max_degree, n = self._gate_args
        reps = rows.shape[0]
        # Every pair transmitting bounds the work, so small graphs stop here.
        return bits_path_pays(nnz, max_degree, n, reps, nnz * reps) and bits_path_pays(
            nnz, max_degree, n, reps, scatter_work(self.adj, rows)
        )

    def _bitsliced(self, rows: BoolArray, with_collided: bool):
        obs = current_observer()
        if obs is None or not obs.active:
            return bitsliced_reception(self.adj, rows, with_collided=with_collided)
        t0 = perf_counter()
        out = bitsliced_reception(self.adj, rows, with_collided=with_collided)
        obs.observe("kernel.batch_wall_s", perf_counter() - t0, label="bits")
        obs.inc("kernel.batch_calls", 1, label="bits")
        return out

    def step_reference(self, transmitting: BoolArray, informed: BoolArray) -> StepResult:
        """Pure-Python reference implementation of :meth:`step`.

        Exists only as a differential-testing oracle: property tests check
        the vectorized kernel against this node-by-node transcription of
        the model definition.
        """
        transmitting = self._check_mask(transmitting, "transmitting")
        informed = self._check_mask(informed, "informed")
        n = self.n
        received = np.zeros(n, dtype=bool)
        collided = np.zeros(n, dtype=bool)
        informer = np.full(n, -1, dtype=np.int64)
        for w in range(n):
            if transmitting[w]:
                continue  # not listening
            senders = [v for v in self.adj.neighbors(w) if transmitting[v]]
            if len(senders) >= 2:
                collided[w] = True
            elif len(senders) == 1 and informed[senders[0]]:
                received[w] = True
                informer[w] = senders[0]
        newly = np.flatnonzero(received & ~informed).astype(np.int64)
        return StepResult(
            received=received,
            newly_informed=newly,
            collided=collided,
            num_transmitters=int(np.count_nonzero(transmitting)),
            informer=informer,
        )

    def __repr__(self) -> str:
        return f"RadioNetwork(n={self.n}, m={self.adj.num_edges})"
