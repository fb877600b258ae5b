"""Send/receive buffering over a *virtual* byte stream.

No payload bytes are stored; buffers track counts and sequence intervals.
The invariants (never deliver a byte twice, never deliver out of order,
never exceed capacity) are what the tests and the protocol rely on.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..sim import Event, Simulator
from .intervals import EMPTY, IntervalSet

__all__ = ["SendBuffer", "ReassemblyQueue", "ReceiveBuffer"]


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


class ReassemblyQueue:
    """Tracks out-of-order received sequence ranges past ``rcv_nxt``.

    ``add`` returns how many new in-order bytes became available (i.e. how
    far ``rcv_nxt`` advanced).  The out-of-order intervals double as the
    SACK blocks advertised back to the sender.
    """

    __slots__ = ("rcv_nxt", "_ooo", "_last_touched", "_rotate")

    def __init__(self, rcv_nxt: int = 0) -> None:
        self.rcv_nxt = rcv_nxt
        self._ooo: IntervalSet = EMPTY  # own set from the first ooo segment
        self._last_touched: Optional[int] = None  # start of freshest interval
        self._rotate = 0

    def reset(self, rcv_nxt: int = 0) -> None:
        """Reinitialize in place (a SYN names the first sequence number)."""
        self.rcv_nxt = rcv_nxt
        self._ooo = EMPTY
        self._last_touched = None
        self._rotate = 0

    @property
    def out_of_order_bytes(self) -> int:
        return self._ooo.total()

    def add(self, seq: int, length: int) -> int:
        """Register received range ``[seq, seq+length)``; return new bytes."""
        if length < 0:
            raise ValueError("negative segment length")
        end = seq + length
        rcv_nxt = self.rcv_nxt
        if end <= rcv_nxt:
            return 0  # entirely duplicate
        if seq <= rcv_nxt and not self._ooo:
            # In order with nothing held: the common case touches no set.
            # (_last_touched is only ever compared against held ranges,
            # all above rcv_nxt, so a stale value below it is as good.)
            self.rcv_nxt = end
            return end - rcv_nxt
        seq = max(seq, rcv_nxt)
        if self._ooo is EMPTY:
            self._ooo = IntervalSet()
        self._ooo.add(seq, end)
        self._last_touched = seq
        return self._advance()

    def sack_blocks(self, limit: int = 3) -> Tuple[Tuple[int, int], ...]:
        """Out-of-order ranges to advertise.

        Per RFC 2018 the block containing the most recently received
        segment goes first; the remaining slots rotate through the other
        ranges so that a sender accumulating blocks across ACKs eventually
        learns the whole scoreboard.
        """
        ooo = self._ooo
        if not ooo:
            return ()  # every ACK of an in-order flow
        held = len(ooo)
        if held <= limit:
            return tuple(ooo)
        blocks: list[Tuple[int, int]] = []
        fresh = -1  # index of the range holding the freshest segment
        if self._last_touched is not None:
            fresh = ooo.find(self._last_touched)
        if fresh >= 0:
            blocks.append(ooo[fresh])
            held -= 1
        # The other ranges, in order, are ooo[k] with ``fresh`` skipped.
        for i in range(limit - len(blocks)):
            k = (self._rotate + i) % held
            blocks.append(ooo[k + 1 if 0 <= fresh <= k else k])
        self._rotate = (self._rotate + limit - 1) % held
        return tuple(blocks)

    def _advance(self) -> int:
        ooo = self._ooo
        before = self.rcv_nxt
        while ooo:
            start, end = ooo.first()
            if start > self.rcv_nxt:
                break
            if end > self.rcv_nxt:
                self.rcv_nxt = end
            ooo.trim_below(self.rcv_nxt)
        return self.rcv_nxt - before


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
