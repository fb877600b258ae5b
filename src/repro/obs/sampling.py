"""Head-based sampling: decide at root-span creation whether to record.

Sampling is *head-based* — the decision is made when a root span would be
created, and every child inherits it for free (an unsampled root attaches
no span to the nqe, so downstream layers never see one).  This is how full
runs stay fast: a 1-in-N sampler turns per-operation tracing cost into
1/N of itself without biasing sim-time behaviour (samplers never yield,
never charge CPU).

:class:`HeadSampler` is deterministic (it counts arrivals), so two runs of
the same workload sample the same operations.
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = ["HeadSampler"]


class HeadSampler:
    """Deterministic 1-in-N: arrivals 0, N, 2N, ... are sampled.

    The per-tenant arrival counters make the decision stable under
    interleaving: each tenant sees exactly every Nth of *its own*
    operations, regardless of how the scheduler mixes tenants.
    """

    def __init__(self, every: int = 64) -> None:
        if every < 1:
            raise ValueError("sampling period must be >= 1")
        self.every = every
        self._seen: Dict[Optional[int], int] = {}

    def sample(self, tenant: Optional[int] = None) -> bool:
        seen = self._seen.get(tenant, 0)
        self._seen[tenant] = seen + 1
        return seen % self.every == 0
