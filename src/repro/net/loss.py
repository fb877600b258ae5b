"""Stochastic loss models applied by links.

Used to emulate the paper's Beijing→California WAN path in Figure 5, where
random loss is what separates loss-based (Cubic), hybrid (Compound) and
model-based (BBR) congestion control.
"""

from __future__ import annotations

import random
from typing import Optional

__all__ = ["LossModel", "NoLoss", "IIDLoss", "EpisodicLoss"]


class LossModel:
    """Decides, per packet, whether the wire drops it.

    ``should_drop`` receives the current simulation time so that models can
    be time-driven (cross-traffic congestion episodes) as well as
    packet-driven.
    """

    def should_drop(self, now: float = 0.0) -> bool:  # pragma: no cover
        raise NotImplementedError


class NoLoss(LossModel):
    """A perfect wire (datacenter fabric default)."""

    def should_drop(self, now: float = 0.0) -> bool:
        return False


class IIDLoss(LossModel):
    """Independent, identically distributed random loss at rate ``p``."""

    def __init__(self, p: float, seed: Optional[int] = None) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"loss probability must be in [0, 1], got {p}")
        self.p = p
        self._rng = random.Random(seed)

    def should_drop(self, now: float = 0.0) -> bool:
        return self._rng.random() < self.p


class EpisodicLoss(LossModel):
    """Congestion episodes from cross traffic at a remote bottleneck.

    Loss on long Internet paths is dominated by *episodes*: a distant
    queue overflows for a moment and a few consecutive packets of every
    flow through it are dropped, with episodes spaced in wall-clock time
    (driven by cross traffic, not by this flow's rate).  Episode arrivals
    are Poisson with ``mean_interval`` seconds; each drops the next
    ``burst_len`` packets.  Optional ``background_p`` adds iid noise loss.

    This is the model behind the Figure 5 WAN path: time-spaced episodes
    are what separate Compound TCP's fast delay-window regrowth from
    Cubic's slower cubic-in-time regrowth, while BBR ignores both.
    """

    def __init__(
        self,
        mean_interval: float,
        burst_len: int = 2,
        background_p: float = 0.0,
        seed: Optional[int] = None,
    ) -> None:
        if mean_interval <= 0:
            raise ValueError("mean_interval must be positive")
        if burst_len < 1:
            raise ValueError("burst_len must be >= 1")
        if not 0.0 <= background_p < 1.0:
            raise ValueError("background_p must be in [0, 1)")
        self.mean_interval = mean_interval
        self.burst_len = burst_len
        self.background_p = background_p
        self._rng = random.Random(seed)
        self._next_episode = self._rng.expovariate(1.0 / mean_interval)
        self._burst_left = 0

    def should_drop(self, now: float = 0.0) -> bool:
        if now >= self._next_episode:
            self._burst_left = self.burst_len
            self._next_episode = now + self._rng.expovariate(
                1.0 / self.mean_interval
            )
        if self._burst_left > 0:
            self._burst_left -= 1
            return True
        return self.background_p > 0 and self._rng.random() < self.background_p
