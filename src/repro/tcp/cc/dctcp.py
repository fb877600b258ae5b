"""DCTCP (Alizadeh et al., SIGCOMM 2010).

The §5 container scenario's motivating example: a Spark-like task wants
DCTCP inside the datacenter while a web container on the same host wants
BBR/Cubic — NSaaS lets each pick its stack.  DCTCP keeps queues short by
reacting *proportionally* to the fraction of ECN-marked bytes instead of
halving on any mark.
"""

from __future__ import annotations

from .base import CongestionControl, RateSample, register

__all__ = ["Dctcp"]


@register
class Dctcp(CongestionControl):
    """DCTCP: ECN-fraction-proportional multiplicative decrease."""

    name = "dctcp"
    wants_accurate_ecn = True

    G = 1.0 / 16.0  # EWMA gain for alpha

    __slots__ = (
        "alpha",
        "_acked_bytes",
        "_marked_bytes",
        "_window_end_acked",
        "_total_acked",
        "_avoidance_acc",
    )

    def __init__(self, mss: int = 1448) -> None:
        super().__init__(mss)
        self.alpha = 1.0  # start conservative, as the Linux implementation does
        self._acked_bytes = 0
        self._marked_bytes = 0
        self._window_end_acked = 0
        self._total_acked = 0
        self._avoidance_acc = 0

    def on_ack(self, sample: RateSample) -> None:
        self._total_acked += sample.newly_acked
        self._acked_bytes += sample.newly_acked
        if sample.ce_marked:
            self._marked_bytes += sample.newly_acked

        # Once per window of data: refresh alpha and apply any reduction.
        if self._total_acked >= self._window_end_acked:
            if self._acked_bytes > 0:
                fraction = self._marked_bytes / self._acked_bytes
                self.alpha = (1 - self.G) * self.alpha + self.G * fraction
            if self._marked_bytes > 0:
                self.cwnd = max(2 * self.mss, self.cwnd * (1 - self.alpha / 2.0))
                self.ssthresh = self.cwnd
            self._acked_bytes = 0
            self._marked_bytes = 0
            self._window_end_acked = self._total_acked + int(self.cwnd)

        if self.in_recovery:
            return
        if self.cwnd < self.ssthresh:
            self.cwnd += sample.newly_acked
            if self.cwnd > self.ssthresh:
                self.cwnd = self.ssthresh
        else:
            self._avoidance_acc += sample.newly_acked
            if self._avoidance_acc >= self.cwnd:
                self._avoidance_acc -= int(self.cwnd)
                self.cwnd += self.mss

    def on_ecn(self, in_flight: int) -> None:
        # Per-ACK marks arrive through RateSample.ce_marked; nothing extra.
        pass

    def on_loss_event(self, in_flight: int) -> None:
        self.ssthresh = max(2 * self.mss, in_flight / 2)
        self.cwnd = self.ssthresh
        self.in_recovery = True

    def on_rto(self) -> None:
        super().on_rto()
        self._avoidance_acc = 0
        self.in_recovery = False
