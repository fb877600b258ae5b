"""Calendar-queue event scheduler for the simulation kernel.

:class:`CalendarQueue` replaces the single binary heap that
:class:`~repro.sim.engine.Simulator` used for its event queue.  At
datacenter scale the heap holds 10^5..10^6 pending ``(time, seq, ...)``
entries and every push/pop pays an O(log N) sift over tuple comparisons;
the dominant traffic — timeouts a few nanoseconds to microseconds ahead —
doesn't need a total order over the whole queue, only over the immediate
future.

Structure
---------
The virtual-time axis from ``t0`` is divided into ``nbuckets`` buckets of
``width`` seconds each.  An event at time ``when`` is routed by

    ``idx = int((when - t0) / width)``   (clamped to ``[0, nbuckets - 1]``)

* ``when <  limit`` (``limit = t0 + nbuckets * width``): appended to
  ``buckets[idx]`` — a plain list, O(1).
* ``when >= limit``: pushed onto the ``overflow`` binary heap (far
  timers: RTOs, keepalives, idle deadlines).

Buckets are drained in index order.  A bucket becomes *active* when the
scan reaches it: it is heapified once (O(k)) and subsequent pops/pushes
against it are heap operations over k items, where k is the bucket
population — tens of events, not millions.  When every bucket has
drained, the window *advances*: ``t0`` jumps directly to the earliest
overflow entry (no spinning through empty windows) and the overflow
entries that now land inside ``[t0, limit)`` are moved into buckets.
A far timer therefore costs one heappush + one heappop over the overflow
heap — about what the old global heap charged — while the near-future
traffic that dominates every benchmark is O(1) amortized.

Ordering contract (bit-identity)
--------------------------------
Pop order is **exactly** the old heap's ``(time, seq)`` lexicographic
order.  The routing function is monotone non-decreasing in ``when`` and
maps equal floats to equal buckets, so for any two entries in different
buckets the lower bucket strictly precedes in time, and entries that
could tie (equal time) always share a bucket, where the per-bucket heap
orders them by the same ``(time, seq)`` tuples the global heap used.
Overflow entries all have ``when >= limit`` and bucket entries
``when < limit``, so the partition never reorders either.  All existing
golden tests (fluid twins, traced figures) pin this.

Insert-below-the-scan safety: ``first`` (the lower bound on the earliest
non-empty bucket) is *lowered* whenever a push lands below it, and ``t0``
may jump above the clock at a window advance (a ``peek()`` past the end
of a ``run(until=...)`` is enough) — a push below ``t0`` then computes a
negative ``idx`` and is clamped into bucket 0, which is correct because
clamping preserves monotonicity and the per-bucket heap restores the
exact order among everything that gathers there.

Occupancy groups
----------------
``groups[g]`` counts non-empty buckets in the 128-bucket group ``g`` so
the drain scan skips empty stretches 128 buckets at a time; a sparse
tail (one timer every few ms) costs a group scan, not a 16k-bucket walk.

The queue deliberately exposes its fields (``__slots__``, no accessors):
the engine's run loops inline the hot pop fast-path against them, the
same way they used to inline ``heapq.heappop`` against the raw heap
list.  Anything that mutates the queue must preserve the invariants
spelled out above; ``tests/test_sim_wheel.py`` cross-checks the whole
surface against a reference heap on randomized schedules.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, List, Optional, Tuple

__all__ = ["CalendarQueue"]

_INF = float("inf")

#: Buckets per occupancy group (must be a power of two; see GROUP_SHIFT).
GROUP_SHIFT = 7

#: ``(time, seq, target, args)`` from the engine; the queue only ever
#: compares the first two fields (``seq`` is unique, so a comparison never
#: reaches the payload).
Item = Tuple[Any, ...]


class CalendarQueue:
    """A two-level calendar queue with an overflow heap for far timers.

    Entries are tuples led by ``(time, seq)`` — the key the old global
    heap ordered by, so per-bucket heap operations reproduce its
    comparison semantics verbatim.
    """

    __slots__ = (
        "buckets",
        "nbuckets",
        "t0",
        "width",
        "inv_width",
        "limit",
        "first",
        "active",
        "overflow",
        "bucket_count",
        "groups",
    )

    def __init__(
        self,
        start_time: float = 0.0,
        nbuckets: int = 16384,
        width: float = 8e-6,
    ) -> None:
        if nbuckets < (1 << GROUP_SHIFT) or nbuckets & (nbuckets - 1):
            raise ValueError("nbuckets must be a power of two >= 128")
        if width <= 0:
            raise ValueError("bucket width must be > 0")
        #: ``buckets[i]`` is ``None`` (never touched), ``[]`` (drained), or a
        #: list of items; heap-ordered only while ``i == active``.
        self.buckets: List[Optional[List[Item]]] = [None] * nbuckets
        self.nbuckets = nbuckets
        self.t0 = float(start_time)
        self.width = width
        self.inv_width = 1.0 / width
        self.limit = self.t0 + nbuckets * width
        #: Lower bound on the earliest non-empty bucket: everything below
        #: ``first`` is empty.  ``nbuckets`` when no bucket holds anything.
        self.first = nbuckets
        #: Index of the heapified bucket the drain scan last settled on
        #: (-1: none).  Pushes into it must heappush; pushes elsewhere append.
        self.active = -1
        #: Far timers (``when >= limit``), a plain binary heap.
        self.overflow: List[Item] = []
        #: Total items across buckets (excludes overflow).
        self.bucket_count = 0
        #: Non-empty bucket count per 128-bucket group (drain-scan skip).
        self.groups = [0] * (nbuckets >> GROUP_SHIFT)

    # -- scheduling ---------------------------------------------------------
    def push(self, item: Item) -> None:
        """Insert a ``(time, seq, ...)`` entry; O(1) unless far-future."""
        when = item[0]
        if when >= self.limit:
            heappush(self.overflow, item)
            return
        idx = int((when - self.t0) * self.inv_width)
        if idx >= self.nbuckets:  # float round-up at the boundary
            idx = self.nbuckets - 1
        elif idx < 0:  # post-advance insert below t0 (see module doc)
            idx = 0
        b = self.buckets[idx]
        if b:
            if idx == self.active:
                heappush(b, item)
            else:
                b.append(item)
        else:
            if b is None:
                self.buckets[idx] = [item]
            else:
                b.append(item)
            self.groups[idx >> GROUP_SHIFT] += 1
            if idx < self.first:
                self.first = idx
        self.bucket_count += 1

    # -- draining -----------------------------------------------------------
    def _advance(self) -> None:
        """Jump the window to the earliest overflow entry and refill.

        Caller guarantees ``bucket_count == 0`` and ``overflow`` non-empty.
        Entries are heappopped (ascending) while they land inside the new
        window, so each bucket receives an already-sorted run.
        """
        overflow = self.overflow
        t0 = self.t0 = overflow[0][0]
        limit = self.limit = t0 + self.nbuckets * self.width
        inv_width = self.inv_width
        top = self.nbuckets - 1
        buckets = self.buckets
        groups = self.groups
        lo = self.nbuckets
        moved = 0
        while overflow and overflow[0][0] < limit:
            item = heappop(overflow)
            idx = int((item[0] - t0) * inv_width)
            if idx > top:
                idx = top
            b = buckets[idx]
            if b:
                b.append(item)
            else:
                if b is None:
                    buckets[idx] = [item]
                else:
                    b.append(item)
                groups[idx >> GROUP_SHIFT] += 1
                if idx < lo:
                    lo = idx
            moved += 1
        self.bucket_count = moved
        self.first = lo
        self.active = -1

    def _head_bucket(self) -> Optional[List[Item]]:
        """The heapified bucket holding the global minimum, or ``None``.

        On return (non-None): ``first == active`` and ``buckets[first]``
        is a non-empty heap whose root is the next event.  The engine's
        run loops fast-path this state inline and only call here when a
        pop emptied the bucket or a push disturbed ``first``.
        """
        while True:
            if self.bucket_count:
                i = self.first
                b = self.buckets[i]
                if b and i == self.active:
                    return b
                groups = self.groups
                g = i >> GROUP_SHIFT
                if not groups[g]:
                    while not groups[g]:
                        g += 1
                    i = g << GROUP_SHIFT
                    b = self.buckets[i]
                while not b:
                    i += 1
                    b = self.buckets[i]
                self.first = i
                if i != self.active:
                    heapify(b)
                    self.active = i
                return b
            if not self.overflow:
                return None
            self._advance()

    def pop(self) -> Optional[Item]:
        """Remove and return the earliest item, or ``None`` when empty."""
        b = self._head_bucket()
        if b is None:
            return None
        item = heappop(b)
        if not b:
            self.groups[self.first >> GROUP_SHIFT] -= 1
        self.bucket_count -= 1
        return item

    def peek(self) -> float:
        """Earliest scheduled time, or ``inf`` when empty.

        May advance the window / activate a bucket, but never drops or
        reorders entries.
        """
        b = self._head_bucket()
        return b[0][0] if b is not None else _INF

    # -- introspection ------------------------------------------------------
    def __len__(self) -> int:
        return self.bucket_count + len(self.overflow)

    def __bool__(self) -> bool:
        return bool(self.bucket_count or self.overflow)
