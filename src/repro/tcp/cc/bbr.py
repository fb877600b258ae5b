"""BBR congestion control (v1, Cardwell et al., CACM 2017).

This is the stack the paper ports into its NSM: a Windows VM using the BBR
NSM reaches ~11 Mbps on a lossy 12 Mbps / 350 ms path where loss-based
Cubic manages ~2.6 Mbps (Figure 5).  BBR achieves that by building an
explicit model — bottleneck bandwidth (windowed max of delivery-rate
samples) and min RTT — and pacing at the model's rate instead of reacting
to individual losses.

The implementation follows the published v1 state machine: STARTUP/DRAIN/
PROBE_BW (8-phase gain cycle)/PROBE_RTT, round counting, and the 10-RTT max
bandwidth and 10-second min-RTT filters.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .base import CongestionControl, RateSample, register

__all__ = ["Bbr"]

#: 2/ln(2): fills the pipe in the same number of RTTs as slow start.
STARTUP_GAIN = 2.885
DRAIN_GAIN = 1.0 / STARTUP_GAIN
PROBE_BW_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
CWND_GAIN = 2.0
BW_FILTER_ROUNDS = 10
MIN_RTT_WINDOW = 10.0  # seconds
PROBE_RTT_DURATION = 0.2  # seconds
MIN_CWND_SEGMENTS = 4


@register
class Bbr(CongestionControl):
    """BBR v1: model-based congestion control with pacing."""

    name = "bbr"

    __slots__ = (
        "state",
        "pacing_gain",
        "cwnd_gain",
        "_bw_samples",
        "btl_bw",
        "min_rtt",
        "_min_rtt_stamp",
        "round_count",
        "_round_end_delivered",
        "_full_bw",
        "_full_bw_rounds",
        "full_pipe",
        "_cycle_index",
        "_cycle_stamp",
        "_probe_rtt_done_at",
        "_cwnd_before_probe_rtt",
        "_initial_cwnd",
    )

    def __init__(self, mss: int = 1448) -> None:
        super().__init__(mss)
        self.state = "STARTUP"
        self.pacing_gain = STARTUP_GAIN
        self.cwnd_gain = STARTUP_GAIN
        # Bottleneck-bandwidth filter: (round, bw) candidates for the
        # windowed max, oldest and largest first (see _update_bw).
        self._bw_samples: List[Tuple[int, float]] = []
        self.btl_bw = 0.0
        # Min-RTT filter.
        self.min_rtt: Optional[float] = None
        self._min_rtt_stamp = 0.0
        # Round counting.
        self.round_count = 0
        self._round_end_delivered = 0
        # STARTUP full-pipe detection.
        self._full_bw = 0.0
        self._full_bw_rounds = 0
        self.full_pipe = False
        # PROBE_BW cycle.
        self._cycle_index = 0
        self._cycle_stamp = 0.0
        # PROBE_RTT bookkeeping.
        self._probe_rtt_done_at: Optional[float] = None
        self._cwnd_before_probe_rtt = self.cwnd
        self._initial_cwnd = self.cwnd

    # -- model ------------------------------------------------------------------
    @property
    def bdp(self) -> float:
        """Bandwidth-delay product of the current model, in bytes."""
        if self.btl_bw <= 0 or self.min_rtt is None:
            return self._initial_cwnd
        return self.btl_bw * self.min_rtt

    def _update_round(self, sample: RateSample) -> bool:
        # A round ends when we get an ACK for a packet sent after the
        # previous round ended (packet-timed rounds, per the BBR draft).
        if sample.prior_delivered >= self._round_end_delivered:
            self.round_count += 1
            self._round_end_delivered = sample.delivered_total
            return True
        return False

    def _update_bw(self, sample: RateSample) -> None:
        rate = sample.delivery_rate
        if rate is None:
            return
        if sample.is_app_limited and rate <= self.btl_bw:
            return  # app-limited samples can only raise the estimate
        # Windowed max as a monotone queue: a sample no larger than the new
        # one can never be the maximum again (it is also older), so rates
        # strictly decrease from head to tail and the head is the maximum.
        samples = self._bw_samples
        while samples and samples[-1][1] <= rate:
            samples.pop()
        samples.append((self.round_count, rate))
        horizon = self.round_count - BW_FILTER_ROUNDS
        if samples[0][0] <= horizon:
            # The head only goes stale when a round ends, so this shift
            # runs at most once a round over what ten rounds left behind.
            stale = 1
            while samples[stale][0] <= horizon:
                stale += 1
            del samples[:stale]
        self.btl_bw = samples[0][1]

    def _update_min_rtt(self, sample: RateSample) -> None:
        if sample.rtt is None:
            return
        expired = sample.now - self._min_rtt_stamp > MIN_RTT_WINDOW
        if self.min_rtt is None or sample.rtt < self.min_rtt or expired:
            self.min_rtt = sample.rtt
            self._min_rtt_stamp = sample.now

    # -- state machine ------------------------------------------------------------
    def _check_full_pipe(self, round_start: bool) -> None:
        if self.full_pipe or not round_start:
            return
        if self.btl_bw >= self._full_bw * 1.25:
            self._full_bw = self.btl_bw
            self._full_bw_rounds = 0
            return
        self._full_bw_rounds += 1
        if self._full_bw_rounds >= 3:
            self.full_pipe = True

    def _advance_cycle(self, now: float) -> None:
        if self.min_rtt is None:
            return
        if now - self._cycle_stamp > self.min_rtt:
            self._cycle_index = (self._cycle_index + 1) % len(PROBE_BW_GAINS)
            self._cycle_stamp = now
            self.pacing_gain = PROBE_BW_GAINS[self._cycle_index]

    def _maybe_enter_probe_rtt(self, now: float) -> None:
        min_rtt_stale = (
            self.min_rtt is not None
            and now - self._min_rtt_stamp > MIN_RTT_WINDOW
            and self.state not in ("PROBE_RTT", "STARTUP")
        )
        if min_rtt_stale:
            self.state = "PROBE_RTT"
            self.pacing_gain = 1.0
            self.cwnd_gain = 1.0
            self._cwnd_before_probe_rtt = self.cwnd
            self._probe_rtt_done_at = now + PROBE_RTT_DURATION

    def on_ack(self, sample: RateSample) -> None:
        now = sample.now
        round_start = self._update_round(sample)
        self._update_bw(sample)
        self._update_min_rtt(sample)

        if self.state == "STARTUP":
            self._check_full_pipe(round_start)
            if self.full_pipe:
                self.state = "DRAIN"
                self.pacing_gain = DRAIN_GAIN
                self.cwnd_gain = CWND_GAIN
        elif self.state == "DRAIN":
            if sample.in_flight <= self.bdp:
                self.state = "PROBE_BW"
                self._cycle_index = 0
                self._cycle_stamp = now
                self.pacing_gain = PROBE_BW_GAINS[0]
        elif self.state == "PROBE_BW":
            self._advance_cycle(now)
        elif self.state == "PROBE_RTT":
            assert self._probe_rtt_done_at is not None
            if now >= self._probe_rtt_done_at:
                self._min_rtt_stamp = now
                self.state = "PROBE_BW" if self.full_pipe else "STARTUP"
                gain = PROBE_BW_GAINS[0] if self.full_pipe else STARTUP_GAIN
                self.pacing_gain = gain
                self.cwnd_gain = CWND_GAIN if self.full_pipe else STARTUP_GAIN
                self.cwnd = max(self.cwnd, self._cwnd_before_probe_rtt)

        self._maybe_enter_probe_rtt(now)
        self._set_cwnd()

    def _set_cwnd(self) -> None:
        if self.state == "PROBE_RTT":
            self.cwnd = MIN_CWND_SEGMENTS * self.mss
            return
        target = self.cwnd_gain * self.bdp
        self.cwnd = max(MIN_CWND_SEGMENTS * self.mss, target)

    # -- loss handling: BBR v1 mostly ignores loss --------------------------------
    def on_loss_event(self, in_flight: int) -> None:
        # v1 does not reduce on isolated loss; fast recovery is entered by
        # the connection, but the model window stands.
        self.in_recovery = True

    def on_ecn(self, in_flight: int) -> None:
        # v1 ignores ECN signals entirely.
        self.in_recovery = True

    def on_rto(self) -> None:
        # Conservation on timeout: one packet, then the model rebuilds.
        self.cwnd = self.mss

    def on_recovery_exit(self) -> None:
        self.in_recovery = False
        self._set_cwnd()

    def pacing_rate(self) -> Optional[float]:
        if self.btl_bw <= 0:
            return None  # no model yet: window-limited slow start
        return self.pacing_gain * self.btl_bw

    def steady_state_rate(self, srtt: float) -> Optional[float]:
        # The model's long-run rate IS the bottleneck-bandwidth estimate
        # (gain cycling averages out to 1.0 over a PROBE_BW cycle).
        if self.btl_bw > 0:
            return self.btl_bw
        return super().steady_state_rate(srtt)
