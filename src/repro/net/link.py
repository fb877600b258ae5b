"""Links: serialization, propagation, queueing, loss and ECN marking.

A :class:`Link` is unidirectional.  It owns a drop-tail byte queue; a pump
process serializes packets at the link rate and delivers each one
``propagation_delay`` later.  :class:`DuplexLink` bundles two opposite
links, optionally with asymmetric rates (e.g. Figure 5's 12 Mbps uplink).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Deque, Optional

from ..sim import Simulator
from .loss import LossModel, NoLoss
from .packet import Packet

__all__ = ["DropTailQueue", "Link", "DuplexLink", "LinkStats"]

Receiver = Callable[[Packet], None]


class LinkStats:
    """Counters a link maintains; read by experiments and tests."""

    __slots__ = (
        "tx_packets",
        "tx_bytes",
        "tx_wire_bytes",
        "dropped_overflow",
        "dropped_random",
    )

    def __init__(self) -> None:
        self.tx_packets = 0
        self.tx_bytes = 0
        self.tx_wire_bytes = 0
        self.dropped_overflow = 0
        self.dropped_random = 0


class DropTailQueue:
    """Byte-bounded FIFO with optional ECN marking above a threshold."""

    def __init__(
        self,
        capacity_bytes: int,
        ecn_threshold_bytes: Optional[int] = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self._queue: Deque[Packet] = deque()
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def backlog_bytes(self) -> int:
        return self._bytes

    def offer(self, packet: Packet) -> bool:
        """Enqueue if room; returns False when the packet must be dropped."""
        if self._bytes + packet.payload_bytes > self.capacity_bytes and self._queue:
            return False
        if (
            self.ecn_threshold_bytes is not None
            and packet.ecn_capable
            and self._bytes >= self.ecn_threshold_bytes
        ):
            packet.ecn_ce = True
        self._queue.append(packet)
        self._bytes += packet.payload_bytes
        return True

    def poll(self) -> Optional[Packet]:
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self._bytes -= packet.payload_bytes
        return packet


class Link:
    """A unidirectional link: rate + propagation delay + queue + loss.

    ``deliver`` is the downstream receiver (switch port, NIC, ...).  Random
    loss is applied on the wire (after serialization), queue overflow at
    enqueue — matching where real paths drop.
    """

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        propagation_delay: float,
        deliver: Optional[Receiver] = None,
        queue_bytes: int = 512 * 1024,
        ecn_threshold_bytes: Optional[int] = None,
        loss: Optional[LossModel] = None,
        jitter: float = 0.0,
        name: str = "link",
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if propagation_delay < 0:
            raise ValueError("propagation delay must be >= 0")
        if jitter < 0:
            raise ValueError("jitter must be >= 0")
        self.sim = sim
        self.rate_bps = rate_bps
        self.propagation_delay = propagation_delay
        self.deliver = deliver
        self.queue = DropTailQueue(queue_bytes, ecn_threshold_bytes)
        self.loss = loss or NoLoss()
        #: Uniform extra delivery delay in [0, jitter] applied per packet
        #: *independently*, so a jittery link reorders (multipath-style).
        #: Seeded from the name: a run replays its delays exactly.
        self.jitter = jitter
        self._jitter_rng = random.Random(name)
        self.name = name
        self.stats = LinkStats()
        self._busy = False

    def send(self, packet: Packet) -> None:
        """Entry point for upstream devices."""
        if not self.queue.offer(packet):
            self.stats.dropped_overflow += 1
            return
        if not self._busy:
            self._busy = True
            self._transmit_next()

    def _transmit_next(self) -> None:
        packet = self.queue.poll()
        if packet is None:
            self._busy = False
            return
        wire = packet.wire_bytes()
        tx_time = wire * 8.0 / self.rate_bps
        self.sim.schedule_call(tx_time, self._on_serialized, packet, wire)

    def _on_serialized(self, packet: Packet, wire: int) -> None:
        self.stats.tx_packets += 1
        self.stats.tx_bytes += packet.payload_bytes
        self.stats.tx_wire_bytes += wire
        if self.loss.should_drop(self.sim.now):
            self.stats.dropped_random += 1
        else:
            delay = self.propagation_delay
            if self.jitter > 0:
                delay += self._jitter_rng.uniform(0.0, self.jitter)
            self.sim.schedule_call(delay, self._deliver, packet)
        self._transmit_next()

    def _deliver(self, packet: Packet) -> None:
        if self.deliver is None:
            raise RuntimeError(f"link {self.name!r} has no receiver attached")
        self.deliver(packet)


class DuplexLink:
    """Two opposite :class:`Link` halves between endpoints A and B."""

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        propagation_delay: float,
        rate_bps_reverse: Optional[float] = None,
        queue_bytes: int = 512 * 1024,
        ecn_threshold_bytes: Optional[int] = None,
        loss: Optional[LossModel] = None,
        loss_reverse: Optional[LossModel] = None,
        name: str = "duplex",
    ) -> None:
        self.a_to_b = Link(
            sim,
            rate_bps,
            propagation_delay,
            queue_bytes=queue_bytes,
            ecn_threshold_bytes=ecn_threshold_bytes,
            loss=loss,
            name=f"{name}:a->b",
        )
        self.b_to_a = Link(
            sim,
            rate_bps_reverse if rate_bps_reverse is not None else rate_bps,
            propagation_delay,
            queue_bytes=queue_bytes,
            ecn_threshold_bytes=ecn_threshold_bytes,
            loss=loss_reverse,
            name=f"{name}:b->a",
        )

    def attach(self, receiver_a: Receiver, receiver_b: Receiver) -> None:
        """Wire endpoint receive callbacks: A hears b_to_a, B hears a_to_b."""
        self.a_to_b.deliver = receiver_b
        self.b_to_a.deliver = receiver_a
