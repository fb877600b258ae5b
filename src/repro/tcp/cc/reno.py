"""Reno / NewReno congestion control (RFC 5681) — the canonical baseline."""

from __future__ import annotations

from .base import CongestionControl, RateSample, register

__all__ = ["Reno"]


@register
class Reno(CongestionControl):
    """Slow start + AIMD congestion avoidance + multiplicative decrease."""

    name = "reno"

    __slots__ = ("_avoidance_acc",)

    def __init__(self, mss: int = 1448, initial_window_segments: int = 10) -> None:
        super().__init__(mss, initial_window_segments)
        self._avoidance_acc = 0  # byte-counting for congestion avoidance

    def on_ack(self, sample: RateSample) -> None:
        if self.in_recovery:
            return
        if self.cwnd < self.ssthresh:
            # Slow start: one MSS per MSS acknowledged.
            self.cwnd += sample.newly_acked
            if self.cwnd > self.ssthresh:
                self.cwnd = self.ssthresh
        else:
            # Congestion avoidance: one MSS per cwnd of acknowledged data.
            self._avoidance_acc += sample.newly_acked
            if self._avoidance_acc >= self.cwnd:
                self._avoidance_acc -= int(self.cwnd)
                self.cwnd += self.mss

    def on_loss_event(self, in_flight: int) -> None:
        self.ssthresh = max(2 * self.mss, in_flight / 2)
        self.cwnd = self.ssthresh
        self.in_recovery = True

    def on_rto(self) -> None:
        self.ssthresh = max(2 * self.mss, self.cwnd / 2)
        self.cwnd = self.mss
        self._avoidance_acc = 0
        self.in_recovery = False
