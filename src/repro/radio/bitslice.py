"""Bit-sliced batched reception: the paper's rule on packed trial words.

The reception rule (Section 1.1) asks of each listener only whether
none, exactly one, or at least two of its neighbours transmit.  Exact
counts are not needed, so ``R`` trials are packed one bit each into
``⌈R/64⌉`` ``uint64`` words per node (bit ``r`` of word ``w`` is trial
``64 w + r``), and two saturating bit-counters per node replace the
counts: over the transmit words ``g`` of a node's neighbours,

    twos |= ones & g;  ones |= g

leaves ``ones`` set where at least one neighbour transmits and ``twos``
where at least two do.  A listener (``~x``, with ``x`` its own transmit
word) then receives where ``ones & ~twos`` and collides where ``twos``.

The neighbours are walked slot by slot over degree-sorted rows
(:meth:`~repro.graphs.adjacency.Adjacency.slot_layout`): the rows that
have a ``k``-th neighbour form a prefix, so each slot is one gather and
three bitwise operations on a prefix of the two counters.
The cost is ``nnz · ⌈R/64⌉`` word operations plus a per-slot overhead,
independent of how many nodes transmit; the scatter path of
:meth:`~repro.graphs.adjacency.Adjacency.neighbor_counts_batch` costs
one gathered endpoint per transmission instead.  :func:`bits_path_pays`
is the fixed rule that picks between them.

Received and collided sets are exact, so the choice never changes a
result.
"""

from __future__ import annotations

import numpy as np

from .._typing import BoolArray
from ..graphs.adjacency import Adjacency

__all__ = ["bits_path_pays", "bitsliced_reception", "scatter_work"]

#: One byte of ``0x01`` per lane: unpacks bit ``j`` of eight byte-wide
#: lanes at once.
_LOW_BITS = np.uint64(0x0101010101010101)

#: Costs of :func:`bits_path_pays` in units of one gathered scatter
#: endpoint, fitted to per-call timings of both kernels on G(n, p),
#: dense G(n, p) and Chung–Lu graphs (n = 64 .. 20000, R = 1 .. 130) and
#: on the rounds of batched broadcast sweeps (docs/PERFORMANCE.md).
_ENTRY_COST = 1 / 8  # bit-sliced: one stored entry, per word
_SLOT_COST = 1000  # bit-sliced: one neighbour slot, per word
_CALL_COST = 20_000  # bit-sliced: packing, unpacking and set-up
_BIT_COST = 1 / 10  # counts: each (node, trial) pair, beyond the packing's


def bits_path_pays(nnz: int, max_degree: int, n: int, repetitions: int, work: int) -> bool:
    """Whether the bit-sliced kernel beats the counts kernel on one call.

    ``work`` is the scatter path's work, the transmitters' degrees summed
    over every (node, trial) pair (:func:`scatter_work`).  The counts
    kernel costs about one unit per endpoint of work plus its passes over
    the ``n · R`` pairs; the bit-sliced kernel costs, per 64-trial word,
    a share of every stored entry (``nnz``) and a fixed overhead per
    neighbour slot (``max_degree``), plus a fixed cost per call.  The
    rule is a pure function of its arguments, so the choice is
    deterministic, and it is monotone in ``work``.  Both kernels return
    the same sets, so the choice never changes a result.
    """
    words = -(-repetitions // 64)
    bits_cost = words * (_ENTRY_COST * nnz + _SLOT_COST * max_degree) + _CALL_COST
    return work + _BIT_COST * n * repetitions >= bits_cost


def scatter_work(adj: Adjacency, rows: BoolArray) -> int:
    """Sum of the transmitters' degrees over the ``(R, n)`` transmit rows."""
    # A one-byte accumulator is the fastest, and holds up to 255 trials.
    per_node = rows.view(np.uint8).sum(axis=0, dtype=np.uint8 if len(rows) < 256 else np.intp)
    return int(per_node @ adj.degrees)


def _pack(rows: BoolArray, padded: int) -> np.ndarray:
    """``(⌈R/64⌉, padded)`` transmit words of the ``(R, n)`` bool rows.

    Built one byte plane (eight trials) at a time: a bool row read as
    ``uint64`` holds eight nodes, one per byte, so shifting row ``8b + j``
    left by ``j`` and OR-ing the eight rows puts those trials' bits into
    the byte of each node, eight nodes per word operation.
    """
    reps, n = rows.shape
    if padded != n:
        wide = np.zeros((reps, padded), dtype=bool)
        wide[:, :n] = rows
        rows = wide
    lanes = rows.view(np.uint64)
    words = np.zeros((-(-reps // 64), padded), dtype="<u8")
    planes = words.view(np.uint8).reshape(words.shape + (8,))
    acc = np.empty(padded // 8, dtype=np.uint64)
    shifted = np.empty_like(acc)
    for b in range(-(-reps // 8)):
        lo = 8 * b
        np.copyto(acc, lanes[lo])
        for j in range(1, min(8, reps - lo)):
            np.left_shift(lanes[lo + j], j, out=shifted)
            acc |= shifted
        planes[b // 8, :, b % 8] = acc.view(np.uint8)
    return words


def _unpack(words: np.ndarray, reps: int, n: int) -> BoolArray:
    """C-contiguous ``(R, n)`` bool rows of ``(⌈R/64⌉, padded)`` words."""
    padded = words.shape[1]
    out = np.empty((reps, padded), dtype=bool)
    lanes = out.view(np.uint64)
    plane = np.empty(padded, dtype=np.uint8)
    plane_lanes = plane.view(np.uint64)
    planes = words.view(np.uint8).reshape(words.shape + (8,))
    for b in range(-(-reps // 8)):
        np.copyto(plane, planes[b // 8, :, b % 8])
        lo = 8 * b
        for j in range(min(8, reps - lo)):
            row = lanes[lo + j]
            np.right_shift(plane_lanes, j, out=row)
            row &= _LOW_BITS
    return out if padded == n else np.ascontiguousarray(out[:, :n])


def bitsliced_reception(
    adj: Adjacency, rows: BoolArray, *, with_collided: bool = True
) -> tuple[BoolArray, BoolArray | None]:
    """``(received, collided)`` of one round of ``R`` trials, bit-sliced.

    ``rows`` is the ``(R, n)`` transmit mask, one row per trial (the
    lockstep driver's C-order rows are used without a copy), and every
    transmission carries the message.  Returns
    C-contiguous ``(R, n)`` bool rows: ``received`` where a listener has
    exactly one transmitting neighbour, ``collided`` (``None`` unless
    ``with_collided``) where it has two or more.
    """
    rows = np.ascontiguousarray(rows)
    reps, n = rows.shape
    position, offsets, neighbours = adj.slot_layout()
    words = _pack(rows, -(-n // 8) * 8)
    heard = np.zeros_like(words)
    crowded = np.zeros_like(words)
    for w, x in enumerate(words):
        ones = np.zeros(n, dtype=words.dtype)
        twos = np.zeros_like(ones)
        for k in range(offsets.size - 1):
            lo, hi = offsets[k], offsets[k + 1]
            # Fancy indexing into a fresh block measured faster than
            # np.take(..., out=) into a preallocated one, at every size.
            g = x[neighbours[lo:hi]]
            o = ones[: hi - lo]
            twos[: hi - lo] |= o & g
            o |= g
        # Back from degree order to node order; the padding stays zero.
        heard[w, :n] = ones[position]
        crowded[w, :n] = twos[position]
    np.invert(words, out=words)  # listeners
    crowded &= words
    heard &= words
    heard &= ~crowded
    collided = _unpack(crowded, reps, n) if with_collided else None
    return _unpack(heard, reps, n), collided
