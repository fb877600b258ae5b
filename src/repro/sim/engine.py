"""The discrete-event simulation kernel.

:class:`Simulator` owns the virtual clock and the event queue, one list
ordered by :mod:`heapq`.  Everything else in the library (links, TCP
stacks, NetKernel queues, CPU cores) is built on processes and events
scheduled here.

Time is a ``float`` in **seconds**.  Nanosecond-scale costs (memory copies,
nqe hops) are converted with :data:`NANOS`.

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> def hello(sim):
...     yield sim.timeout(1.5)
...     return "done at %.1f" % sim.now
>>> proc = sim.process(hello(sim))
>>> sim.run()
>>> proc.value
'done at 1.5'
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from itertools import count
from typing import Any, Generator, Iterable, Optional

from .events import AnyOf, Event, Timeout
from .process import Process

__all__ = ["Simulator", "Deadline", "FifoTimer", "NANOS"]

#: One nanosecond in simulator time units (seconds).
NANOS = 1e-9

_INF = float("inf")

#: Dead :class:`Deadline` entries tolerated before a purge is considered;
#: past it, a purge runs once they are a quarter of the queue.  Small
#: queues never reach it (``lan_bulk`` keeps 9-12 entries pending,
#: ``lan_bulk_quic`` <= 13, ``chaos_failover`` <= 165); connection churn
#: (``web_nk``) and a fan-in's released handshake timers cross it.
_PURGE_FLOOR = 256


class Simulator:
    """A discrete-event simulator with a monotonically advancing clock.

    Events scheduled at equal times fire in FIFO order of scheduling, which
    makes runs fully deterministic for a fixed seedless workload.  The
    queue is one binary heap of ``(when, seq, target, args)`` tuples:
    ``seq`` is unique, so a comparison never reaches the payload and the
    fire order is ``(when, seq)`` by construction.  Why nothing more
    elaborate: the ledger workloads keep ten to 40 000 entries pending
    (DESIGN.md section 7, "Why one heapq").
    """

    def __init__(self, start_time: float = 0.0) -> None:
        #: Current simulated time in seconds (plain attribute: read per hop).
        self.now = float(start_time)
        self._queue: list = []
        self._counter = count()
        # Deadline entries in the queue that can only pop as no-ops.
        self._dead_entries = 0
        #: Events processed since construction (the perf ledger's
        #: ``sim.events``; see ``benchmarks/ledger/layers.py``).
        self.events_processed = 0
        #: Hybrid fidelity: the installed
        #: :class:`~repro.sim.fluid.FidelityController`, or None for pure
        #: packet fidelity (the default — and the bit-identical path: with
        #: no controller installed every hook that calls it is a single
        #: attribute test that takes the packet branch).
        self.fidelity = None

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a new process running ``generator`` immediately."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event that fires when any of ``events`` fires."""
        return AnyOf(self, events)

    # -- scheduling -----------------------------------------------------------
    # Queue entries are ``(when, seq, target, args)``.  ``args is None``:
    # ``target`` is an Event whose waiters run.  Otherwise the loop calls
    # ``target(*args)`` — a scheduled call is nothing but its entry, and a
    # Deadline or FifoTimer entry is ``(when, seq, timer, ())``.
    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        heappush(self._queue, (self.now + delay, next(self._counter), event, None))

    def schedule_call(self, delay: float, func, *args) -> None:
        """Schedule ``func(*args)`` to run after ``delay`` seconds.

        Fire-and-forget: nothing is returned and nothing is allocated
        beyond the queue entry.  Use :meth:`timeout` for something to
        wait on.
        """
        if not delay >= 0:  # also refuses NaN, which would corrupt the heap
            raise ValueError(f"negative or NaN schedule_call delay: {delay!r}")
        heappush(self._queue, (self.now + delay, next(self._counter), func, args))

    def wake(self, waiter, value: Any = None) -> None:
        """Fire a waiter now: an Event succeeds with ``value``; a
        continuation ``(func, args)`` becomes the bare queue entry
        ``func(*args)`` at the ``(now, seq)`` ``Event.succeed`` would take."""
        if waiter.__class__ is tuple:
            func, args = waiter
            heappush(self._queue, (self.now, next(self._counter), func, args))
        else:
            waiter.succeed(value)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, so measurements spanning
        ``[0, until]`` are well defined.
        """
        if until is None:
            self._run_through(_INF)
            return
        if until < self.now:
            raise ValueError(f"run(until={until}) is in the past (now={self.now})")
        self._run_through(until)
        self.now = until

    def _run_through(self, bound: float) -> int:
        """Process every entry with ``time <= bound``; return how many.

        The one event-loop body: one heappop, then the call or the
        event's waiters (none, one, or a list; see ``Event.callbacks``).
        """
        q = self._queue
        heappop_ = heappop
        processed = 0
        try:
            while q and q[0][0] <= bound:
                when, _seq, target, args = heappop_(q)
                self.now = when
                processed += 1
                if args is not None:
                    target(*args)
                else:
                    callbacks, target.callbacks = target.callbacks, None
                    if callbacks:
                        if callbacks.__class__ is list:
                            for callback in callbacks:
                                callback(target)
                        else:
                            callbacks(target)
        finally:
            self.events_processed += processed
        return processed

    def _entry_died(self) -> None:
        """A :class:`Deadline` entry was retired or released; purge the
        dead ones once they reach the floor and a quarter of the queue."""
        dead = self._dead_entries = self._dead_entries + 1
        q = self._queue
        if dead >= _PURGE_FLOOR and 4 * dead >= len(q):
            # In place: the event loop holds this list.  Survivors keep
            # their ``(when, seq)``, so the fire order cannot move.
            q[:] = [entry for entry in q if not _is_dead(entry)]
            heapify(q)
            self._dead_entries = 0


class Deadline:
    """A restartable one-shot timer with at most one live queue entry.

    Protocol timers (TCP's RTO, persist and delayed ACK, QUIC's PTO, the
    RDMA transport's RTO) are re-armed on nearly every ACK and every
    transmission.  Pushing a fresh entry per arm and retiring the old one
    with a generation token floods the queue with stale no-ops, so arming
    is lazy: a deadline that moves *later* only moves :attr:`when`, and
    the pending entry, when it pops, pushes itself again at the new
    deadline.  A deadline that moves *earlier* than the pending entry
    pushes one new entry and retires the old one — otherwise a data RTO
    of ``min_rto`` (200 ms) armed under the SYN's 1 s initial RTO would
    fire up to 800 ms late and stall loss recovery.  Entries are pushed
    at the absolute deadline, so ``func`` runs at exactly the float a push
    on every arm would have fired at.

    The deadline is its own queue target: an entry is ``(when, seq,
    deadline, ())`` and the loop calls the deadline.  The live entry is
    the one whose ``when`` is the very float object in :attr:`_at`, and
    the loop sets ``sim.now`` to the popped entry's own float, so a pop
    tells live from retired by ``sim.now is _at``.  Identity, not
    equality: a re-arm may land on exactly the value of a retired entry
    still queued, which pops first (lower ``seq``) and must stay a no-op.

    Retired entries and the entry of a released deadline are dead: the
    simulator counts them and, once they reach :data:`_PURGE_FLOOR` and
    a quarter of the queue, drops them from the queue in one pass
    (asyncio does the same with cancelled timer handles).  A cancelled
    deadline that still has an owner keeps its entry, which a re-arm may
    reuse.

    The queue entry references the deadline, never a bound method of the
    owner: after :meth:`release` a pending entry keeps nothing but this
    small object alive, and a closed connection is garbage at close
    instead of an RTO later.  ``func`` is called as ``func(owner)``; a
    released deadline must not be armed again.
    """

    __slots__ = ("sim", "owner", "func", "when", "_at")

    def __init__(self, sim: Simulator, owner, func) -> None:
        self.sim = sim
        self.owner = owner
        self.func = func
        #: Absolute time ``func`` is due, or None while disarmed.
        self.when: Optional[float] = None
        # The ``when`` float object of the live queue entry, or None.
        self._at: Optional[float] = None

    @property
    def armed(self) -> bool:
        return self.when is not None

    def arm(self, delay: float) -> None:
        """(Re)arm to fire ``delay`` seconds from now."""
        when = self.when = self.sim.now + delay
        at = self._at
        if at is None:
            self._push(when)
        elif when < at:
            self._push(when)
            self.sim._entry_died()  # the old entry is retired

    def cancel(self) -> None:
        self.when = None

    def release(self) -> None:
        """Cancel and drop the owner; a pending entry is dead from now on."""
        self.when = None
        if self.owner is not None:
            self.owner = None
            if self._at is not None:
                self.sim._entry_died()

    def _push(self, when: float) -> None:
        sim = self.sim
        self._at = when
        heappush(sim._queue, (when, next(sim._counter), self, ()))

    def __call__(self) -> None:
        """Pop of one of this deadline's queue entries."""
        sim = self.sim
        if sim.now is not self._at:
            sim._dead_entries -= 1
            return  # retired when the deadline moved earlier
        self._at = None
        when = self.when
        if when is None:
            if self.owner is None:
                sim._dead_entries -= 1  # released
            return  # cancelled or released
        if when > sim.now:
            self._push(when)  # moved later since this entry was pushed
            return
        self.when = None
        self.func(self.owner)


class FifoTimer:
    """Items that each fall due ``delay`` seconds after they were added,
    in the order added, behind one queue entry.

    A fixed delay means the items fall due in the order they were added,
    so the queue needs an entry for the head only: the entry ``(when,
    seq, fifo, ())`` is pushed when the FIFO goes from empty to one item,
    and its pop (a call of the FIFO) pushes the next head's.  Each item
    is stamped at :meth:`add` with the ``(when, seq)`` a
    ``schedule_call(delay, ...)`` at that instant would have taken, and
    the head's entry carries that stamp, so ``func(item)`` runs at
    exactly the same float and in exactly the same order as with one
    entry per item, and each pop still expires one item.  The stamp is
    kept on the item itself, in its ``fifo_when`` and ``fifo_seq``
    attributes, so the FIFO holds the items and nothing else.  TCP's
    TIME_WAIT expiry is the user: thousands of records wait out 2 MSL
    under connection churn.
    """

    __slots__ = ("sim", "delay", "func", "_items")

    def __init__(self, sim: Simulator, delay: float, func) -> None:
        if not delay >= 0:  # also refuses NaN, as schedule_call does
            raise ValueError(f"negative or NaN FifoTimer delay: {delay!r}")
        self.sim = sim
        self.delay = delay
        self.func = func
        #: The items in the order added (so ``fifo_when`` ascending).
        self._items: deque = deque()

    def add(self, item) -> None:
        """``func(item)`` is due ``delay`` seconds from now."""
        sim = self.sim
        item.fifo_when = when = sim.now + self.delay
        item.fifo_seq = seq = next(sim._counter)
        items = self._items
        items.append(item)
        if len(items) == 1:
            heappush(sim._queue, (when, seq, self, ()))

    def __call__(self) -> None:
        """Pop of the head's queue entry: expire the head."""
        items = self._items
        item = items.popleft()
        if items:
            head = items[0]
            heappush(self.sim._queue, (head.fifo_when, head.fifo_seq, self, ()))
        self.func(item)


def _is_dead(entry) -> bool:
    """Whether a queue entry is a retired or released :class:`Deadline`'s."""
    deadline = entry[2]
    if deadline.__class__ is not Deadline:
        return False
    return entry[0] is not deadline._at or deadline.owner is None
