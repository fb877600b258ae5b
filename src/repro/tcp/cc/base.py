"""Congestion-control plug-in interface.

A :class:`CongestionControl` owns the congestion window (bytes) and an
optional pacing rate.  The connection calls the ``on_*`` hooks; the sender
consults :attr:`cwnd` and :meth:`pacing_rate` before each transmission.

A registry maps algorithm names ("cubic", "bbr", "ctcp", ...) to classes so
scenarios can select stacks by name — exactly the knob NetKernel exposes to
tenants when they pick an NSM.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Dict, Optional, Type

__all__ = ["RateSample", "CongestionControl", "register", "make", "available"]

_INF = float("inf")


@cache
def _initial_cwnd(segments: int, mss: int) -> int:
    """One int per (IW, mss), shared by every connection starting there."""
    return segments * mss


@dataclass(slots=True)
class RateSample:
    """Per-ACK delivery information (the BBR 'rate sample' abstraction).

    ``delivery_rate`` is bytes/second measured over the sampled segment's
    flight; ``rtt`` the fresh round-trip sample; ``newly_acked`` the bytes
    this ACK advanced; ``ce_marked`` whether the ACK echoed an ECN mark;
    ``is_app_limited`` whether the flight was application-limited.
    """

    newly_acked: int
    rtt: Optional[float] = None
    delivery_rate: Optional[float] = None
    delivered_total: int = 0
    #: ``delivered`` at the time the sampled packet was *sent* (round counting).
    prior_delivered: int = 0
    in_flight: int = 0
    ce_marked: bool = False
    is_app_limited: bool = False
    now: float = 0.0


class CongestionControl:
    """Base class: a Reno-shaped default that subclasses override."""

    name = "base"
    #: True for algorithms that need per-ACK ECN echo (DCTCP-style receiver).
    wants_accurate_ecn = False
    #: True only on a stack's shared instance (``TcpStack.shared_cc``).
    read_only = False

    __slots__ = ("mss", "cwnd", "ssthresh", "in_recovery")

    def __init__(self, mss: int = 1448, initial_window_segments: int = 10) -> None:
        if mss <= 0:
            raise ValueError("mss must be positive")
        self.mss = mss
        self.cwnd = _initial_cwnd(initial_window_segments, mss)
        self.ssthresh = _INF
        self.in_recovery = False

    # -- hooks ---------------------------------------------------------------
    def on_ack(self, sample: RateSample) -> None:
        """Cumulative ACK advanced; adjust cwnd / internal model."""

    def on_loss_event(self, in_flight: int) -> None:
        """Fast-retransmit-detected loss (once per loss event, not per drop)."""

    def on_rto(self) -> None:
        """Retransmission timeout fired: collapse to loss-window."""
        self.ssthresh = max(2 * self.mss, self.cwnd / 2)
        self.cwnd = self.mss

    def on_ecn(self, in_flight: int) -> None:
        """Classic ECN echo: treat as a loss event by default (RFC 3168)."""
        self.on_loss_event(in_flight)

    def on_recovery_exit(self) -> None:
        """All loss repaired; leave fast recovery."""
        self.in_recovery = False

    def pacing_rate(self) -> Optional[float]:
        """Bytes/second to pace at, or None for pure window-based sending."""
        return None

    # -- introspection ---------------------------------------------------------
    def window(self) -> int:
        """Current congestion window in bytes (integral, >= 1 MSS)."""
        return max(self.mss, int(self.cwnd))

    def steady_state_rate(self, srtt: float) -> Optional[float]:
        """Steady-state throughput (bytes/s) this algorithm sustains.

        The fluid fidelity model (repro.sim.fluid) uses this as a
        per-flow rate cap.  The window-based default is cwnd/RTT; model
        algorithms (BBR) override with their explicit bandwidth estimate.
        Returns None when no estimate is available (flow is uncapped and
        takes its max-min share of the bottleneck).
        """
        if srtt <= 0:
            return None
        return self.window() / srtt

    def __repr__(self) -> str:
        return f"<{type(self).__name__} cwnd={self.cwnd:.0f}B>"


_REGISTRY: Dict[str, Type[CongestionControl]] = {}


def register(cls: Type[CongestionControl]) -> Type[CongestionControl]:
    """Class decorator adding the algorithm to the by-name registry."""
    if not cls.name or cls.name in _REGISTRY:
        raise ValueError(f"bad or duplicate CC name: {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def make(name: str, mss: int = 1448) -> CongestionControl:
    """Instantiate a registered algorithm by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown congestion control {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return cls(mss=mss)


def available() -> list[str]:
    """Names of all registered congestion-control algorithms."""
    return sorted(_REGISTRY)
