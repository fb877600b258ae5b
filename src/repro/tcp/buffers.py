"""Send/receive buffering over a *virtual* byte stream.

No payload bytes are stored; buffers track counts and sequence intervals.
The invariants (never deliver a byte twice, never deliver out of order,
never exceed capacity) are what the tests and the protocol rely on.
"""

from __future__ import annotations

from functools import cache
from typing import Any, List, Optional, Tuple

from ..sim import Event, Simulator
from .intervals import IntervalSet

__all__ = ["SendBuffer", "OutOfOrder", "NOTHING_HELD", "ReceiveBuffer"]


class SendBuffer:
    """Backpressured staging area between the application and the sender.

    The application "writes" byte counts; writes block (the returned event
    stays pending) while the unacknowledged backlog exceeds capacity.
    """

    __slots__ = ("sim", "capacity", "written", "acked", "fin_requested", "_waiters")

    #: True only on a stack's shared instance (``TcpStack.shared_send_buffer``).
    read_only = False

    def __init__(self, sim: Simulator, capacity: int = 4 * 1024 * 1024) -> None:
        if capacity <= 0:
            raise ValueError("send buffer capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.written = 0  # total bytes accepted from the app
        self.acked = 0  # total bytes cumulatively acknowledged
        self.fin_requested = False
        # None unless a write is blocked: at large N nearly every
        # buffer's waiter list is empty, and the empty lists add up.
        self._waiters: Optional[List[Tuple[int, Any]]] = None

    @property
    def backlog(self) -> int:
        """Bytes accepted but not yet acknowledged."""
        return self.written - self.acked

    @property
    def free_space(self) -> int:
        return max(0, self.capacity - self.backlog)

    def write(self, nbytes: int) -> Event:
        """Accept ``nbytes`` from the app; event fires when buffered."""
        event = Event(self.sim)
        self.admit(nbytes, event)
        return event

    def admit(self, nbytes: int, waiter) -> None:
        """:meth:`write` for any waiter (see :meth:`Simulator.wake`)."""
        if nbytes < 0:
            raise ValueError("cannot write a negative byte count")
        if self.fin_requested:
            raise RuntimeError("write after close()")
        if nbytes <= self.free_space:
            self.written += nbytes
            self.sim.wake(waiter, nbytes)
        elif self._waiters is None:
            self._waiters = [(nbytes, waiter)]
        else:
            self._waiters.append((nbytes, waiter))

    def on_ack(self, new_acked: int) -> None:
        """Advance the acknowledged watermark and admit blocked writes."""
        if new_acked < 0:
            raise ValueError("negative ack amount")
        self.acked += new_acked
        waiters = self._waiters
        while waiters and waiters[0][0] <= self.free_space:
            nbytes, waiter = waiters.pop(0)
            self.written += nbytes
            self.sim.wake(waiter, nbytes)
        if not waiters:
            self._waiters = None

    def close(self) -> None:
        self.fin_requested = True


class OutOfOrder(IntervalSet):
    """Received ranges held above ``rcv_nxt`` until the gap below them
    fills; they double as the SACK blocks advertised back to the sender.

    The owner (a TCP connection or a QUIC stream) keeps ``rcv_nxt`` and
    starts on the shared :data:`NOTHING_HELD`, which only an out-of-order
    arrival writes: the owner builds its own at its first one, so an
    in-order stream never does.
    """

    __slots__ = ("_last_touched", "_rotate")

    #: True only on :data:`NOTHING_HELD`.
    read_only = False

    def __init__(self) -> None:
        super().__init__()
        self._last_touched: Optional[int] = None  # start of freshest interval
        self._rotate = 0

    def receive(self, rcv_nxt: int, seq: int, end: int) -> int:
        """Register received range ``[seq, end)``; return the new ``rcv_nxt``.

        Writes only when ``seq > rcv_nxt`` or something is held already.
        """
        if end < seq:
            raise ValueError("negative segment length")
        if end <= rcv_nxt:
            return rcv_nxt  # entirely duplicate
        b = self._b
        if seq <= rcv_nxt and not b:
            # In order with nothing held: the common case touches no set.
            # (_last_touched is only ever compared against held ranges,
            # all above rcv_nxt, so a stale value below it is as good.)
            return end
        seq = max(seq, rcv_nxt)
        self.add(seq, end)
        self._last_touched = seq
        # Held ranges are disjoint and non-adjacent: at most the first one
        # joins up with rcv_nxt.
        if self._b:
            start, stop = self.first()
            if start <= rcv_nxt:
                rcv_nxt = max(rcv_nxt, stop)
                self.trim_below(rcv_nxt)
        return rcv_nxt

    def sack_blocks(self, limit: int = 3) -> Tuple[Tuple[int, int], ...]:
        """Out-of-order ranges to advertise.

        Per RFC 2018 the block containing the most recently received
        segment goes first; the remaining slots rotate through the other
        ranges so that a sender accumulating blocks across ACKs eventually
        learns the whole scoreboard.
        """
        held = len(self._b) >> 1
        if not held:
            return ()  # every ACK of an in-order flow
        if held <= limit:
            return tuple(self)
        blocks: list[Tuple[int, int]] = []
        fresh = -1  # index of the range holding the freshest segment
        if self._last_touched is not None:
            fresh = self.find(self._last_touched)
        if fresh >= 0:
            blocks.append(self[fresh])
            held -= 1
        # The other ranges, in order, are self[k] with ``fresh`` skipped.
        for i in range(limit - len(blocks)):
            k = (self._rotate + i) % held
            blocks.append(self[k + 1 if 0 <= fresh <= k else k])
        self._rotate = (self._rotate + limit - 1) % held
        return tuple(blocks)


class ReceiveBuffer:
    """In-order bytes awaiting the application, bounding the offered window."""

    __slots__ = ("sim", "capacity", "available", "eof", "_readers", "_watchers")

    #: True only on a stack's shared instance (``TcpStack.shared_recv_buffer``).
    read_only = False

    def __init__(self, sim: Simulator, capacity: int = 4 * 1024 * 1024) -> None:
        if capacity <= 0:
            raise ValueError("receive buffer capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.available = 0  # in-order bytes not yet read by the app
        self.eof = False
        # None while empty (see SendBuffer._waiters).
        self._readers: Optional[List[Tuple[int, Event]]] = None
        # Event.callbacks' shape: None, the one waiter (an Event or a
        # continuation tuple), or a list of two or more in attach order.
        self._watchers: Any = None

    def window(self, out_of_order_bytes: int = 0) -> int:
        """Receive window to advertise: ``capacity`` itself while nothing
        is held, so idle endpoints share it instead of an equal new int."""
        used = self.available + out_of_order_bytes
        return max(0, self.capacity - used) if used else self.capacity

    def deliver(self, nbytes: int) -> None:
        """Hand newly in-order bytes to the buffer; wakes pending readers."""
        if nbytes < 0:
            raise ValueError("negative delivery")
        self.available += nbytes
        self._wake()

    def deliver_eof(self) -> None:
        self.eof = True
        self._wake()

    def read(self, max_bytes: int) -> Event:
        """Event fires with the byte count read (0 means EOF)."""
        if max_bytes <= 0:
            raise ValueError("read size must be positive")
        event = Event(self.sim)
        if self._readers is None:
            self._readers = [(max_bytes, event)]
        else:
            self._readers.append((max_bytes, event))
        self._wake()
        return event

    def try_read(self, max_bytes: int) -> Optional[int]:
        """Non-blocking read; None if nothing is available and not EOF."""
        if self.available > 0:
            taken = min(max_bytes, self.available)
            self.available -= taken
            return taken
        if self.eof:
            return 0
        return None

    def watch(self, waiter) -> None:
        """Wake ``waiter`` (see :meth:`Simulator.wake`) once data or EOF is
        available, without consuming: the readiness primitive behind
        epoll's EPOLLIN."""
        watchers = self._watchers
        if self.available > 0 or self.eof:
            self.sim.wake(waiter)
        elif watchers is None:
            self._watchers = waiter
        elif watchers.__class__ is list:
            watchers.append(waiter)
        else:
            self._watchers = [watchers, waiter]

    def _wake(self) -> None:
        watchers = self._watchers
        if watchers is not None and (self.available > 0 or self.eof):
            self._watchers = None
            wake = self.sim.wake
            if watchers.__class__ is list:
                for waiter in watchers:
                    wake(waiter)
            else:
                wake(watchers)
        readers = self._readers
        while readers and (self.available > 0 or self.eof):
            max_bytes, event = readers.pop(0)
            taken = min(max_bytes, self.available)
            self.available -= taken
            event.succeed(taken)
        if not readers:
            self._readers = None


# Shared read-only parts ---------------------------------------------------
# A part every new owner would build equal starts as one shared instance
# whose stores raise; the owner builds its own at its first write of it
# (DESIGN.md section 16, "An idle endpoint builds nothing").


def _refuse_store(part, name: str, value) -> None:
    raise AttributeError(
        f"{type(part).__name__} is shared read-only: its owner builds "
        f"its own before it sets {name} = {value!r}"
    )


@cache
def _read_only_class(cls: type) -> type:
    """``cls`` with every attribute store refused and ``read_only`` True
    (no slots of its own, so an instance can switch to it in place)."""
    return type(
        f"Shared{cls.__name__}",
        (cls,),
        {
            "__slots__": (),
            "__module__": cls.__module__,
            "__setattr__": _refuse_store,
            "read_only": True,
        },
    )


def make_read_only(part):
    """Turn ``part`` into its read-only twin, in place; return it."""
    part.__class__ = _read_only_class(part.__class__)
    return part


#: What every owner's out-of-order queue is while it holds nothing and
#: never held anything: an in-order stream's for life.
NOTHING_HELD = make_read_only(OutOfOrder())
