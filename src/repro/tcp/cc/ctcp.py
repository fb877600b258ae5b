"""Compound TCP (Tan et al., INFOCOM 2006) — Windows' default ("C-TCP").

Figure 5's Windows VM runs C-TCP natively at 8.60 Mbps on the lossy WAN
path: far better than Cubic's TCP-friendly mode (its scalable delay-based
window regrows quickly between random losses) but worse than BBR (it still
halves its sending window on every loss event).

The window is ``win = cwnd + dwnd``: a Reno-managed loss component plus a
delay-managed component.  Once per RTT (one window of acknowledged data):

* queueing backlog ``diff = win * (rtt - base_rtt) / rtt`` (in segments);
* if ``diff < gamma`` the path is uncongested: ``dwnd += alpha*win^k - 1``
  (the scalable increase, net of the loss component's +1);
* else the delay component backs off: ``dwnd -= zeta * diff``.

On a loss event: ``cwnd`` halves and ``dwnd = win*(1-beta) - cwnd/2``.
"""

from __future__ import annotations

from typing import Optional

from .base import CongestionControl, RateSample, register

__all__ = ["CompoundTcp"]


@register
class CompoundTcp(CongestionControl):
    """Compound TCP: loss component + scalable delay component."""

    name = "ctcp"

    ALPHA = 0.125
    BETA = 0.5
    K = 0.8  # the exponent Microsoft documents for production C-TCP
    GAMMA = 30  # segments of queueing backlog tolerated before backing off
    ZETA = 1.0

    __slots__ = ("dwnd", "base_rtt", "_loss_cwnd", "_acked_this_window", "_last_rtt")

    def __init__(self, mss: int = 1448) -> None:
        super().__init__(mss)
        self.dwnd = 0.0  # delay window, bytes
        self.base_rtt: Optional[float] = None
        self._loss_cwnd = float(self.cwnd)  # Reno component, bytes
        # Once-per-window bookkeeping.
        self._acked_this_window = 0
        self._last_rtt: Optional[float] = None

    @property
    def _win_seg(self) -> float:
        return (self._loss_cwnd + self.dwnd) / self.mss

    def _recompute(self) -> None:
        self.cwnd = max(2 * self.mss, self._loss_cwnd + self.dwnd)

    def on_ack(self, sample: RateSample) -> None:
        if self.in_recovery:
            return
        if sample.rtt is not None:
            self._last_rtt = sample.rtt
            if self.base_rtt is None or sample.rtt < self.base_rtt:
                self.base_rtt = sample.rtt

        if self._loss_cwnd < self.ssthresh:
            # Standard slow start on the loss component.
            self._loss_cwnd += sample.newly_acked
            if self._loss_cwnd > self.ssthresh:
                self._loss_cwnd = self.ssthresh
            self._recompute()
            return

        self._acked_this_window += sample.newly_acked
        if self._acked_this_window < self.cwnd:
            return
        self._acked_this_window = 0

        # --- one round-trip of data acknowledged: run the control laws ---
        self._loss_cwnd += self.mss  # Reno: +1 segment per RTT

        rtt = self._last_rtt
        if rtt is not None and self.base_rtt is not None and rtt > 0:
            win = self._win_seg
            diff = win * (rtt - self.base_rtt) / rtt  # segments queued
            if diff < self.GAMMA:
                increment = self.ALPHA * (win**self.K) - 1.0
                if increment > 0:
                    self.dwnd += increment * self.mss
            else:
                self.dwnd = max(0.0, self.dwnd - self.ZETA * diff * self.mss)
        self._recompute()

    def on_loss_event(self, in_flight: int) -> None:
        win = self._loss_cwnd + self.dwnd
        self._loss_cwnd = max(2 * self.mss, self._loss_cwnd / 2.0)
        # dwnd = win*(1 - beta) - cwnd/2, floored at zero (Tan et al. eq. 6).
        self.dwnd = max(0.0, win * (1.0 - self.BETA) - self._loss_cwnd)
        self.ssthresh = self._loss_cwnd
        self._recompute()
        self.in_recovery = True

    def on_rto(self) -> None:
        self.ssthresh = max(2 * self.mss, self.cwnd / 2)
        self._loss_cwnd = float(self.mss)
        self.dwnd = 0.0
        self._acked_this_window = 0
        self._recompute()
        self.cwnd = self.mss
        self.in_recovery = False
