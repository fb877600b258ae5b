"""Interval-set arithmetic over sequence ranges.

Used by the receiver's reassembly queue and by the sender's SACK
scoreboard.  Intervals are half-open ``[start, end)`` ranges of absolute
sequence numbers, kept sorted, disjoint and non-adjacent.

Storage is one strictly increasing list of boundaries,
``[s0, e0, s1, e1, ...]``: interval ``k`` is ``(b[2k], b[2k+1])``, so a
bisect lands on the interval a point belongs to and its parity says
whether the point is covered (odd) or in a gap (even).  Every operation
starts from a bisect instead of the head of the set, and a running byte
total makes :meth:`IntervalSet.total` free (and :meth:`IntervalSet.covered`
cost only what lies outside the range asked about).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import islice
from typing import Iterator, List, Sequence, Tuple

__all__ = ["IntervalSet", "EMPTY"]


class IntervalSet:
    """A sorted, disjoint set of half-open integer intervals."""

    # Two slots on purpose: a slotted object with one or two slots lands in
    # the same 48-byte allocator class, a third would push every set (four
    # per connection) into the 64-byte one.
    __slots__ = ("_b", "_total")

    def __init__(self) -> None:
        # The shared empty tuple stands in for "no coverage" — most
        # connections' scoreboards are empty most of the time, and at
        # large N an empty list per set is measurable memory.  Mutators
        # swap in a real list only while there is coverage.
        self._b: Sequence[int] = ()
        self._total = 0

    def __bool__(self) -> bool:
        return bool(self._b)

    def __len__(self) -> int:
        return len(self._b) >> 1

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        b = self._b
        return zip(islice(b, 0, None, 2), islice(b, 1, None, 2))

    def __getitem__(self, index: int) -> Tuple[int, int]:
        """The ``index``-th interval in ascending order."""
        b = self._b  # a negative index counts from the end here as well
        return (b[2 * index], b[2 * index + 1])

    def intervals(self) -> List[Tuple[int, int]]:
        b = self._b
        return list(zip(b[::2], b[1::2]))

    def total(self) -> int:
        """Total bytes covered."""
        return self._total

    def max_end(self) -> int:
        """Highest covered sequence number (0 when empty)."""
        return self._b[-1] if self._b else 0

    def find(self, point: int) -> int:
        """Index of the interval containing ``point``, or -1."""
        at = bisect_right(self._b, point)
        return at >> 1 if at & 1 else -1

    def add(self, start: int, end: int) -> int:
        """Insert ``[start, end)``; return the number of newly covered bytes."""
        if end <= start:
            return 0
        b = self._b
        size = end - start
        if not b:
            self._b = [start, end]
            self._total = size
            return size
        last = b[-1]
        if start >= last:
            # In-order arrival above everything held (the next packet
            # number, the segment after the last SACKed one): extend or
            # append at the tail without searching.
            if start == last:
                b[-1] = end
            else:
                b += (start, end)
            self._total += size
            return size
        # b[lo-1] < start <= b[lo] and b[hi-1] <= end < b[hi].  An odd
        # index means the point falls inside (or touches the end/start of)
        # an existing interval, which then joins the merge.
        lo = bisect_left(b, start)
        hi = bisect_right(b, end, lo)
        if lo & 1:
            lo -= 1
            start = b[lo]
        if hi & 1:
            end = b[hi]
            hi += 1
        # b[lo:hi] is now the run of whole intervals the new one swallows.
        gained = (end - start) - (sum(b[lo + 1 : hi : 2]) - sum(b[lo:hi:2]))
        b[lo:hi] = (start, end)
        self._total += gained
        return gained

    def covered(self, start: int, end: int) -> int:
        """Bytes of ``[start, end)`` the set covers.

        The running total minus the coverage outside the range: two
        bisects, then slice sums over the intervals outside ``[start,
        end)`` only (none, for a scoreboard probed over its own window).
        """
        if end <= start:
            return 0
        b = self._b
        lo = bisect_left(b, start)  # b[lo-1] < start <= b[lo]
        hi = bisect_left(b, end, lo)  # b[hi-1] < end <= b[hi]
        # An odd index means the point cuts interval (b[i-1], b[i]).
        below = sum(b[1:lo:2]) - sum(b[:lo:2]) + (start if lo & 1 else 0)
        if hi & 1:
            above = sum(b[hi::2]) - sum(b[hi + 1 :: 2]) - end
        else:
            above = sum(b[hi + 1 :: 2]) - sum(b[hi::2])
        return self._total - below - above

    def holes(self, start: int, end: int, want: int) -> List[Tuple[int, int]]:
        """The first uncovered ranges of ``[start, end)``, in order, until
        they add up to ``want`` bytes (the last one whole).

        One bisect, then only the holes returned are touched: the SACK
        sender repairs at most an MSS per ACK, so it asks for that much
        and never sweeps the rest of the scoreboard.
        """
        found: List[Tuple[int, int]] = []
        b = self._b
        n = len(b)
        at = bisect_right(b, start)  # b[at-1] <= start < b[at]
        if at & 1:  # start is covered: the first hole opens where it ends
            start = b[at]
            at += 1
        while start < end and want > 0:
            # b[at], when there, starts the next interval above ``start``.
            stop = b[at] if at < n and b[at] < end else end
            found.append((start, stop))
            want -= stop - start
            if stop == end:
                break
            start = b[at + 1]
            at += 2
        return found

    def copy(self) -> "IntervalSet":
        twin = IntervalSet()
        if self._b:
            twin._b = list(self._b)
            twin._total = self._total
        return twin

    def trim_below(self, cutoff: int) -> int:
        """Drop coverage below ``cutoff``; return the bytes dropped."""
        b = self._b
        if not b or cutoff <= b[0]:
            return 0
        if cutoff >= b[-1]:
            dropped = self._total
            self.clear()
            return dropped
        at = bisect_right(b, cutoff)  # b[at-1] <= cutoff < b[at]
        dropped = 0
        if at & 1:
            # cutoff splits interval (b[at-1], b[at]): keep its upper part.
            at -= 1
            dropped = cutoff - b[at]
            b[at] = cutoff
        dropped += sum(b[1:at:2]) - sum(b[:at:2])
        del b[:at]
        self._total -= dropped
        return dropped

    def clear(self) -> None:
        self._b = ()
        self._total = 0

    def first(self) -> Tuple[int, int]:
        if not self._b:
            raise IndexError("empty interval set")
        return (self._b[0], self._b[1])

    def __repr__(self) -> str:
        return f"IntervalSet({self.intervals()!r})"


class _SharedEmpty(IntervalSet):
    """The one empty set every idle scoreboard points at."""

    __slots__ = ()

    def add(self, start: int, end: int) -> int:
        raise TypeError(
            "the shared empty IntervalSet is read-only: "
            "give the owner its own IntervalSet() before the first add"
        )


#: An in-order flow never SACKs, retransmits or reassembles, so its four
#: scoreboards stay empty for life; they all reference this instance until
#: the first ``add`` (the owner swaps in a real set) and again after a
#: reset.  Every reader (``total``/``trim_below``/``holes``/...) works on it.
EMPTY = _SharedEmpty()
