"""Per-tenant QoS inside a shared NSM (§5 research agenda).

"The resource allocation and scheduling of the NSMs also needs to be
strategically managed and optimized when we use a NSM to serve multiple
VMs concurrently while providing QoS guarantees."

The lever is a per-tenant egress rate cap.  CoreEngine keeps the caps
(``CoreEngine.rate_caps``, vm_id -> bits/s); ServiceLib gives each capped
tenant a :class:`TokenBucket`, and a SEND that exceeds the tenant's rate
waits for tokens before entering the stack, which backpressures cleanly
through the send-completion path.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from ..sim import Event, Simulator

__all__ = ["TokenBucket"]


class TokenBucket:
    """A classic token bucket in bytes.

    ``take(nbytes)`` returns an event that fires when ``nbytes`` of tokens
    are available (waiters are served FIFO, so one large request cannot be
    starved by a stream of small ones).
    """

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        burst_bytes: Optional[int] = None,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.rate_bytes_per_s = rate_bps / 8.0
        self.burst_bytes = (
            burst_bytes if burst_bytes is not None else int(self.rate_bytes_per_s / 100)
        )
        self.burst_bytes = max(self.burst_bytes, 65536)
        self._tokens = float(self.burst_bytes)
        self._updated_at = sim.now
        self._waiters: Deque[Tuple[int, Event]] = deque()
        self._refill_armed = False

    def _refill(self) -> None:
        now = self.sim.now
        self._tokens += (now - self._updated_at) * self.rate_bytes_per_s
        # The burst cap applies while idle; with waiters pending, tokens
        # keep accruing so a request larger than one burst still completes
        # (at the configured long-run rate).
        if not self._waiters:
            self._tokens = min(self._tokens, float(self.burst_bytes))
        self._updated_at = now

    def take(self, nbytes: int) -> Event:
        """Event fires when ``nbytes`` of tokens have been consumed."""
        if nbytes < 0:
            raise ValueError("cannot take negative tokens")
        event = Event(self.sim)
        self._waiters.append((nbytes, event))
        self._drain()
        return event

    def _drain(self) -> None:
        self._refill()
        while self._waiters and self._waiters[0][0] <= self._tokens:
            nbytes, event = self._waiters.popleft()
            self._tokens -= nbytes
            event.succeed()
        if self._waiters and not self._refill_armed:
            nbytes = self._waiters[0][0]
            wait = (nbytes - self._tokens) / self.rate_bytes_per_s
            # Floor the re-check delay: float rounding must not degenerate
            # into sub-nanosecond self-rescheduling.
            wait = max(wait, 100e-9)
            self._refill_armed = True
            self.sim.schedule_call(wait, self._on_refill)

    def _on_refill(self) -> None:
        self._refill_armed = False
        self._drain()
