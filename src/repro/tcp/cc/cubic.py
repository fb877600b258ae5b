"""CUBIC congestion control (RFC 8312).

This is the Linux default and the NSM used for Figure 4; it is also the
loss-limited laggard in Figure 5's lossy WAN (2.61 Mbps of a 12 Mbps link),
which is precisely the behaviour its cubic-in-time-since-loss window growth
plus multiplicative decrease on every loss produces.
"""

from __future__ import annotations

from .base import CongestionControl, RateSample, register

__all__ = ["Cubic"]


@register
class Cubic(CongestionControl):
    """RFC 8312 CUBIC with fast convergence, the TCP-friendly region, and
    HyStart (Ha & Rhee) — Linux's default early slow-start exit, which
    leaves slow start when round-trip delay starts climbing instead of
    waiting to blow the bottleneck queue over."""

    name = "cubic"

    C = 0.4  # cubic scaling constant (segments/s^3)
    BETA = 0.7  # multiplicative decrease factor
    #: HyStart delay-increase thresholds (seconds), per the Linux bounds.
    HYSTART_MIN_ETA = 0.004
    HYSTART_MAX_ETA = 0.016
    HYSTART_MIN_SAMPLES = 8
    HYSTART_LOW_WINDOW = 16  # segments: no early exit below this

    __slots__ = (
        "w_max",
        "k",
        "epoch_start",
        "w_est",
        "fast_convergence",
        "hystart",
        "hystart_fired",
        "_round_base_rtt",
        "_round_min_rtt",
        "_round_samples",
        "_round_end_delivered",
    )

    def __init__(self, mss: int = 1448, hystart: bool = True) -> None:
        super().__init__(mss)
        self.w_max = 0.0  # window (segments) before the last reduction
        self.k = 0.0  # time to regrow to w_max
        self.epoch_start: float | None = None
        self.w_est = 0.0  # TCP-friendly (Reno-equivalent) estimate, segments
        self.fast_convergence = True
        # --- HyStart state ---
        self.hystart = hystart
        self.hystart_fired = False
        self._round_base_rtt: float | None = None  # min rtt of previous round
        self._round_min_rtt: float | None = None  # min rtt of current round
        self._round_samples = 0
        self._round_end_delivered = 0

    # -- helpers in segment units ------------------------------------------------
    @property
    def _cwnd_seg(self) -> float:
        return self.cwnd / self.mss

    def _set_cwnd_seg(self, seg: float) -> None:
        self.cwnd = max(2.0, seg) * self.mss

    def _w_cubic(self, t: float) -> float:
        return self.C * (t - self.k) ** 3 + self.w_max

    def _hystart_update(self, sample: RateSample) -> None:
        """Exit slow start when this round's min RTT exceeds the previous
        round's by the eta threshold (delay-increase detection)."""
        rtt = sample.rtt
        if rtt is None:
            return
        # Round boundary: an ACK for data sent after the last boundary.
        if sample.prior_delivered >= self._round_end_delivered:
            self._round_end_delivered = sample.delivered_total
            self._round_base_rtt = self._round_min_rtt
            self._round_min_rtt = None
            self._round_samples = 0
        self._round_samples += 1
        if self._round_min_rtt is None or rtt < self._round_min_rtt:
            self._round_min_rtt = rtt
        if (
            self._round_base_rtt is not None
            and self._round_min_rtt is not None
            and self._round_samples >= self.HYSTART_MIN_SAMPLES
            and self.cwnd >= self.HYSTART_LOW_WINDOW * self.mss
        ):
            eta = min(
                self.HYSTART_MAX_ETA,
                max(self.HYSTART_MIN_ETA, self._round_base_rtt / 8.0),
            )
            if self._round_min_rtt >= self._round_base_rtt + eta:
                self.hystart_fired = True
                self.ssthresh = self.cwnd

    def on_ack(self, sample: RateSample) -> None:
        if self.in_recovery:
            return
        if self.cwnd < self.ssthresh:
            if self.hystart and not self.hystart_fired:
                self._hystart_update(sample)
            self.cwnd += sample.newly_acked
            if self.cwnd > self.ssthresh:
                self.cwnd = self.ssthresh
            return
        rtt = sample.rtt
        if rtt is None or rtt <= 0:
            return
        now = sample.now
        if self.epoch_start is None:
            self.epoch_start = now
            if self.w_max < self._cwnd_seg:
                self.w_max = self._cwnd_seg
                self.k = 0.0
            else:
                self.k = ((self.w_max - self._cwnd_seg) / self.C) ** (1.0 / 3.0)
            self.w_est = self._cwnd_seg

        t = now - self.epoch_start
        target = self._w_cubic(t + rtt)
        cwnd_seg = self._cwnd_seg
        if target > cwnd_seg:
            # Window increment spread over the current window's ACKs.
            increment = (target - cwnd_seg) / cwnd_seg
        else:
            increment = 0.01 / cwnd_seg  # minimal probing in the TCP-unfair region

        # TCP-friendly region (RFC 8312 §4.2): emulate Reno's growth.
        alpha = 3.0 * (1.0 - self.BETA) / (1.0 + self.BETA)
        self.w_est = self.w_est + alpha * (sample.newly_acked / self.cwnd)
        if self.w_est > cwnd_seg + increment:
            self._set_cwnd_seg(self.w_est)
        else:
            self._set_cwnd_seg(cwnd_seg + increment)

    def on_loss_event(self, in_flight: int) -> None:
        self.epoch_start = None
        cwnd_seg = self._cwnd_seg
        if cwnd_seg < self.w_max and self.fast_convergence:
            self.w_max = cwnd_seg * (1.0 + self.BETA) / 2.0
        else:
            self.w_max = cwnd_seg
        self._set_cwnd_seg(cwnd_seg * self.BETA)
        self.ssthresh = self.cwnd
        self.in_recovery = True

    def on_rto(self) -> None:
        self.epoch_start = None
        self.w_max = self._cwnd_seg
        self.ssthresh = max(2 * self.mss, self.cwnd * self.BETA)
        self.cwnd = self.mss
        self.in_recovery = False
