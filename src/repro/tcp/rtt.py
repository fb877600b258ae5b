"""RTT estimation and retransmission timeout per RFC 6298.

The minimum RTO defaults to Linux's 200 ms rather than the RFC's 1 s; the
prototype in the paper runs Linux 4.9 on both ends.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["RttEstimator"]


class RttEstimator:
    """Keeps SRTT/RTTVAR and derives the RTO (RFC 6298)."""

    ALPHA = 1.0 / 8.0
    BETA = 1.0 / 4.0
    K = 4.0
    #: Clock granularity (RFC 6298's G): the floor of the variance term.
    G = 1e-3
    #: True only on a stack's shared instance (``TcpStack.shared_rtt``).
    read_only = False

    __slots__ = (
        "min_rto",
        "max_rto",
        "srtt",
        "rttvar",
        "latest_rtt",
        "min_rtt",
        "_rto",
        "_backoff",
    )

    def __init__(
        self,
        min_rto: float = 0.2,
        max_rto: float = 60.0,
        initial_rto: float = 1.0,
    ) -> None:
        if min_rto <= 0 or max_rto < min_rto:
            raise ValueError("require 0 < min_rto <= max_rto")
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.latest_rtt: Optional[float] = None
        self.min_rtt: Optional[float] = None
        self._rto = initial_rto
        self._backoff = 1

    @property
    def rto(self) -> float:
        """Current retransmission timeout, including exponential backoff."""
        return min(self._rto * self._backoff, self.max_rto)

    def on_sample(self, rtt: float) -> None:
        """Feed one RTT measurement (seconds)."""
        if rtt <= 0:
            raise ValueError(f"non-positive RTT sample: {rtt}")
        self.latest_rtt = rtt
        if self.min_rtt is None or rtt < self.min_rtt:
            self.min_rtt = rtt
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            assert self.rttvar is not None
            self.rttvar = (1 - self.BETA) * self.rttvar + self.BETA * abs(
                self.srtt - rtt
            )
            self.srtt = (1 - self.ALPHA) * self.srtt + self.ALPHA * rtt
        # Like Linux, floor the variance *term* (not just the total) at
        # min_rto: RTO >= srtt + min_rto, so a quiet round-trip during loss
        # recovery does not race the repair ACK into a spurious timeout.
        variance_term = max(self.G, self.K * self.rttvar, self.min_rto)
        self._rto = max(self.min_rto, self.srtt + variance_term)
        self._backoff = 1

    def on_timeout(self) -> None:
        """Apply Karn's exponential backoff after a retransmission timeout."""
        self._backoff = min(self._backoff * 2, 64)

    def reset_backoff(self) -> None:
        self._backoff = 1
