"""Shared-memory nqe rings between VM, CoreEngine and NSM.

The prototype implements these as IVSHMEM ring buffers (§4.1).  We model a
ring as a bounded queue with:

* ``push`` — producer side; returns an event that fires once the element is
  in the ring (immediately unless full — full rings backpressure).
* ``try_pop`` / ``pop_batch`` — consumer side.
* ``wait_nonempty`` — the doorbell used by poll-loop consumers.

:class:`PriorityNqeRing` implements §3.2's head-of-line-blocking fix: it
keeps connection events and data events in separate internal queues and
always serves connection events first, so a connection-setup nqe is never
stuck behind a burst of bulk-data nqes.

:class:`RingPump` is the consumer side of every ring CoreEngine, GuestLib
and ServiceLib drain one-to-one (the six rings of the paper's Figure 3):
the per-nqe cost is its parameter, the layers supply three hooks, and
:func:`soft_interrupt` turns a :class:`NotifyMode` into its wake-up cost.
Consumers that schedule *across* rings or tenants (the CoreEngine quota
scheduler, ServiceLib's multi-queue classifier) are different algorithms
and read the rings directly.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, List, Optional, Tuple

from ..obs import runtime as obs_runtime
from ..sim import NANOS, Event, Simulator
from .nqe import Nqe

__all__ = [
    "NotifyMode",
    "NqeRing",
    "PriorityNqeRing",
    "RingPump",
    "QueueTimeout",
    "soft_interrupt",
]


class QueueTimeout(Exception):
    """A blocked ``push`` waited longer than its timeout for ring space.

    Raised through the push event so a backpressured producer can abort
    instead of hanging forever behind a dead consumer.
    """


class NotifyMode(enum.Enum):
    """How a consumer learns the ring became non-empty.

    The prototype uses polling "for simplicity" (§4.1); §5 proposes batched
    soft interrupts to save CPU at some latency cost.  Both are modelled;
    the notification ablation quantifies the tradeoff.
    """

    POLLING = "polling"
    BATCHED_INTERRUPT = "interrupt"


#: Soft-interrupt coalescing window and per-interrupt CPU cost.
INTERRUPT_DELAY = 10e-6
INTERRUPT_COST_NS = 2000.0


def soft_interrupt(mode: NotifyMode, cost_multiplier: float = 1.0):
    """A consumer's ``wake`` under ``mode``: ``None`` when polling, else the
    ``(delay, cost)`` seconds it pays per doorbell before draining.
    ``cost_multiplier`` is the consuming core's per-op CPU multiplier."""
    if mode is NotifyMode.POLLING:
        return None
    return INTERRUPT_DELAY, INTERRUPT_COST_NS * cost_multiplier * NANOS


class NqeRing:
    """A bounded FIFO ring of nqes in shared memory."""

    def __init__(self, sim: Simulator, capacity: int = 4096, name: str = "ring") -> None:
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        #: Ring kind ("job"/"cq"/"rq" by convention) — groups the per-kind
        #: observability histograms across VMs and NSMs.
        self.kind = name.rsplit(".", 1)[-1]
        self.tracer = obs_runtime.get_tracer()
        self._traced = self.tracer.enabled
        # Traced-path names, formatted once: pushes/pops are the hottest
        # instrumented sites in a run, and an f-string per nqe is pure
        # allocator churn in the drain loops.  The wait-latency histogram
        # object is cached on first pop for the same reason.
        self._ctr_pushed = f"queue.{self.kind}.pushed"
        self._ctr_popped = f"queue.{self.kind}.popped"
        self._ctr_full = f"queue.{self.kind}.full_waits"
        self._hwm_name = f"queue.hwm.{self.name}"
        self._wait_span_op = f"queue.{self.kind}.wait"
        self._wait_hist = None
        self._items: Deque[Nqe] = deque()
        # The deque's C methods: no frame per nqe (PriorityNqeRing rebinds).
        self._enqueue = self._items.append
        self._dequeue = self._items.popleft
        self._putters: Deque[Tuple[Event, Nqe]] = deque()
        self._doorbells: List[Event] = []
        #: Mirrors the queued-element count so the hot paths read one int
        #: attribute instead of dispatching ``__len__`` (PriorityNqeRing
        #: splits elements over two deques).
        self._count = 0
        self._pump_notify = None
        self.total_pushed = 0
        self.total_popped = 0
        self.high_watermark = 0
        self.push_timeouts = 0
        #: Fault injection: elements destroyed / duplicated in place.
        self.dropped_corrupt = 0
        self.duplicated_corrupt = 0

    def __len__(self) -> int:
        return self._count

    @property
    def is_full(self) -> bool:
        return self._count >= self.capacity

    # -- producer -----------------------------------------------------------
    def push(self, nqe: Nqe, timeout: Optional[float] = None) -> Event:
        """Enqueue; the event fires when the ring has accepted the element.

        With ``timeout`` set, a push still waiting for space after that
        many simulated seconds fails with :class:`QueueTimeout` instead of
        blocking forever (counted as ``queue.*.push_timeouts``).
        """
        event = Event(self.sim)
        if self._count < self.capacity:
            self._accept(nqe)
            event.succeed()
        else:
            if self._traced:
                self.tracer.count(self._ctr_full)
            entry = (event, nqe)
            self._putters.append(entry)
            if timeout is not None:
                self.sim.schedule_call(timeout, self._putter_timeout, entry)
        return event

    def _putter_timeout(self, entry) -> None:
        """Fail a still-blocked putter; a no-op if it was admitted."""
        try:
            self._putters.remove(entry)
        except ValueError:
            return  # already admitted (or ring torn down)
        self.push_timeouts += 1
        if self._traced:
            self.tracer.count(f"queue.{self.kind}.push_timeouts")
        entry[0].fail(
            QueueTimeout(f"push to full ring {self.name!r} timed out")
        )

    def try_push(self, nqe: Nqe) -> bool:
        """Non-blocking push; False when the ring is full."""
        if self._count >= self.capacity:
            return False
        self._accept(nqe)
        return True

    def offer(self, nqe: Nqe) -> None:
        """Fire-and-forget push: like :meth:`push` with the event discarded.

        The element is accepted immediately, or queued behind the ring's
        backpressure list when full — identical ordering to ``push`` —
        without allocating and scheduling a completion event nobody waits
        on.  This is the fast path for producers that cannot usefully
        block (completion/receive callbacks).
        """
        if self._count < self.capacity:
            self._accept(nqe)
        else:
            if self._traced:
                self.tracer.count(self._ctr_full)
            self._putters.append((None, nqe))

    def _accept(self, nqe: Nqe) -> None:
        self._enqueue(nqe)
        count = self._count + 1
        self._count = count
        self.total_pushed += 1
        if count > self.high_watermark:
            self.high_watermark = count
        if self._traced:
            tracer = self.tracer
            nqe.enqueued_at = self.sim.now
            tracer.count(self._ctr_pushed)
            tracer.high_water(self._hwm_name, count)
        if self._doorbells:
            doorbells, self._doorbells = self._doorbells, []
            for doorbell in doorbells:
                doorbell.succeed()
        notify = self._pump_notify
        if notify is not None:
            notify()

    # -- consumer ---------------------------------------------------------------
    def try_pop(self) -> Optional[Nqe]:
        if self._count == 0:
            return None
        nqe = self._dequeue()
        self._count -= 1
        self.total_popped += 1
        if self._traced:
            self._record_pop(nqe)
        if self._putters:
            self._admit_waiting_putters()
        return nqe

    def pop_batch(self, max_items: int = 64) -> List[Nqe]:
        """Drain up to ``max_items`` (batched-interrupt consumers)."""
        take = self._count
        if take > max_items:
            take = max_items
        batch: List[Nqe] = []
        traced = self._traced
        for _ in range(take):
            nqe = self._dequeue()
            if traced:
                self._record_pop(nqe)
            batch.append(nqe)
        self._count -= take
        self.total_popped += take
        if self._putters:
            self._admit_waiting_putters()
        return batch

    def _record_pop(self, nqe: Nqe) -> None:
        """Observability at dequeue: ring-wait latency and residency span."""
        tracer = self.tracer
        tracer.count(self._ctr_popped)
        if nqe.enqueued_at is None:
            return
        now = self.sim.now
        hist = self._wait_hist
        if hist is None:
            hist = self._wait_hist = tracer.histogram(f"queue.wait_ns.{self.kind}")
        hist.record((now - nqe.enqueued_at) * 1e9)
        if nqe.span is not None:
            tracer.record_span(
                self._wait_span_op,
                "queue",
                start=nqe.enqueued_at,
                finish=now,
                tenant=nqe.vm_id,
                parent=nqe.span,
            )
        nqe.enqueued_at = None

    def wait_nonempty(self) -> Event:
        """Doorbell: fires when at least one element is (or becomes) queued."""
        event = Event(self.sim)
        if self._count > 0:
            event.succeed()
        else:
            self._doorbells.append(event)
        return event

    def attach_pump(self, notify) -> None:
        """Register an event-driven consumer (:class:`RingPump`).

        ``notify`` is invoked synchronously from ``_accept`` whenever an
        element lands in the ring; the pump ignores the call unless it is
        idle.  One pump per ring; doorbells still work alongside it.
        """
        self._pump_notify = notify
        if self._count:
            notify()

    def _admit_waiting_putters(self) -> None:
        while self._putters and not self.is_full:
            event, nqe = self._putters.popleft()
            self._accept(nqe)
            if event is not None:
                event.succeed()

    # -- fault injection ------------------------------------------------------
    def corrupt_drop(self, count: int = 1) -> int:
        """Destroy up to ``count`` queued elements (ring corruption fault).

        Any huge-page descriptor riding a destroyed nqe is released so the
        region does not leak; the consumer simply never sees the element —
        recovery is the producer's timeout/retry machinery.
        """
        dropped = 0
        while dropped < count and self._count > 0:
            nqe = self._dequeue()
            self._count -= 1
            dropped += 1
            chunk = nqe.data_desc
            if chunk is not None and not chunk.freed:
                chunk.free()
        self.dropped_corrupt += dropped
        if dropped and self._traced:
            self.tracer.count(f"queue.{self.kind}.corrupt_dropped", dropped)
        if self._putters:
            self._admit_waiting_putters()
        return dropped

    def corrupt_duplicate(self, count: int = 1) -> int:
        """Re-enqueue copies of up to ``count`` queued elements at the tail.

        Only descriptor-free nqes are duplicated (a shared huge-page chunk
        would be freed twice); duplicates keep their token, so consumers
        dedup them — ServiceLib by token memory, GuestLib by the pending
        map.  Stops early when the ring fills.
        """
        from dataclasses import replace

        candidates = [n for n in self._snapshot() if n.data_desc is None]
        duplicated = 0
        for nqe in candidates:
            if duplicated >= count or self.is_full:
                break
            self._accept(replace(nqe))
            duplicated += 1
        self.duplicated_corrupt += duplicated
        if duplicated and self._traced:
            self.tracer.count(f"queue.{self.kind}.corrupt_duplicated", duplicated)
        return duplicated

    def drain(self) -> List[Nqe]:
        """Empty the ring (failover cleanup), releasing ridden descriptors.

        Returns the drained elements.  Blocked putters are admitted into
        the now-empty ring (their nqes will hit the dead-NSM error paths
        downstream rather than strand their producers).
        """
        drained: List[Nqe] = []
        while self._count > 0:
            nqe = self._dequeue()
            self._count -= 1
            chunk = nqe.data_desc
            if chunk is not None and not chunk.freed:
                chunk.free()
            drained.append(nqe)
        if self._putters:
            self._admit_waiting_putters()
        return drained

    def _snapshot(self) -> List[Nqe]:
        return list(self._items)


class PriorityNqeRing(NqeRing):
    """Two-class ring: connection events are served before data events."""

    def __init__(self, sim: Simulator, capacity: int = 4096, name: str = "pring") -> None:
        super().__init__(sim, capacity, name)
        self._conn_items: Deque[Nqe] = deque()
        self._data_items: Deque[Nqe] = deque()
        self._enqueue = self._enqueue_by_class
        self._dequeue = self._dequeue_by_class

    def _enqueue_by_class(self, nqe: Nqe) -> None:
        if nqe.is_connection_event:
            self._conn_items.append(nqe)
        else:
            self._data_items.append(nqe)

    def _dequeue_by_class(self) -> Nqe:
        if self._conn_items:
            return self._conn_items.popleft()
        return self._data_items.popleft()

    def _snapshot(self) -> List[Nqe]:
        return list(self._conn_items) + list(self._data_items)


class RingPump:
    """The one consumer of an nqe ring: pop an nqe, charge it, handle it.

    For each nqe, ``begin(nqe) -> token`` runs at pop time (count it, open
    its span); the core is then charged ``cost`` seconds, the prototype's
    one fixed charge per nqe (§4.1); then ``handle(nqe, token)`` and
    ``end(token)`` run.  ``handle`` returns ``None``, or a generator when
    it has to block (a full destination ring, an inline copy): the
    consumer waits for it before touching the next nqe and calls ``end``
    once it is through.  ``cost`` is a plain attribute: a slowdown fault
    rescales it on a live consumer.

    Two drives run those same steps; the constructor picks one from what
    the consumer was given, and ``event_driven`` says which:

    * **Event-driven** (no ``wake``, handlers that normally do not
      block): the ring calls :meth:`notify` on the push that makes it
      non-empty and the consumer chains itself through
      ``core.execute_call`` — charge, handle, pop the next.  The core's
      FIFO accounting serializes the charges exactly as a poll loop
      would, without a doorbell Event per wakeup or a generator resume
      per nqe.  A handler that does block is finished in a throwaway
      process.  ``stopped`` may be cleared again (live migration freezes
      a tenant this way): nqes wait in the ring until the next
      :meth:`notify`.
    * **Poll loop** (``wake=(delay, cost)`` soft interrupts, or
      ``blocking`` handlers): one process that waits on the ring's
      doorbell, pays ``wake`` once per doorbell, pops up to 64 nqes and
      works through them one charge at a time.  It is a separate drive
      because a held loop and a chained call order same-instant charges
      on a shared core differently and re-arm the interrupt coalescing
      window at different instants: folding it into the chain moves
      simulated results.
    """

    __slots__ = (
        "ring", "core", "cost", "handle", "begin", "end",
        "event_driven", "idle", "stopped",
    )

    def __init__(
        self, ring, core, cost, handle,
        begin=None, end=None, wake=None, blocking=False, name="ringpump",
    ):
        self.ring = ring
        self.core = core
        self.cost = cost
        self.handle = handle
        self.begin = begin
        self.end = end
        self.event_driven = wake is None and not blocking
        self.idle = True
        self.stopped = False
        if self.event_driven:
            ring.attach_pump(self.notify)
        else:
            ring.sim.process(self._loop(wake), name=name)

    def stop(self) -> None:
        """Fault injection: the consumer died; stop draining."""
        self.stopped = True

    # -- event-driven drive ---------------------------------------------------
    # ``notify`` and ``_charged`` each pop and charge in their own frame.
    def notify(self) -> None:
        """Start draining if idle; a no-op on an empty ring (resume)."""
        ring = self.ring
        if self.idle and not self.stopped and ring._count:
            self.idle = False
            nqe = ring.try_pop()
            begin = self.begin
            self.core.execute_call(
                self.cost, self._charged, nqe, None if begin is None else begin(nqe)
            )

    def _charged(self, nqe, token) -> None:
        blocked = self.handle(nqe, token)
        if blocked is not None:
            self.ring.sim.process(self._unblock(blocked, token))
            return
        end = self.end
        if end is not None:
            end(token)
        ring = self.ring
        if self.stopped or not ring._count:
            self.idle = True
            return
        nqe = ring.try_pop()
        begin = self.begin
        self.core.execute_call(
            self.cost, self._charged, nqe, None if begin is None else begin(nqe)
        )

    def _unblock(self, blocked, token):
        """The handler blocked: wait it out, then pop the next nqe."""
        yield from blocked
        if self.end is not None:
            self.end(token)
        self.idle = True
        self.notify()

    # -- poll-loop drive ------------------------------------------------------
    def _loop(self, wake):
        ring = self.ring
        core = self.core
        handle = self.handle
        begin = self.begin
        end = self.end
        while not self.stopped:
            yield ring.wait_nonempty()
            if self.stopped:
                return
            if wake is not None:
                delay, cost = wake
                yield ring.sim.timeout(delay)
                yield core.execute(cost)
            for nqe in ring.pop_batch():
                token = begin(nqe) if begin is not None else None
                yield core.execute(self.cost)
                blocked = handle(nqe, token)
                if blocked is not None:
                    yield from blocked
                if end is not None:
                    end(token)
