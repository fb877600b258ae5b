"""Cost model for draining nqe rings: burst size and burst cost per layer.

The HotNets paper's prototype moves one nqe at a time; its NSDI follow-up
("NetKernel: Making Network Stack Part of the Virtualized Infrastructure",
PAPERS.md) gets its multi-10G results from *batching*: CoreEngine and
ServiceLib drain their shared-memory rings in bursts, touching the ring
head/tail pointers and warming the descriptor cache lines once per burst
instead of once per element.  We model that with a two-term linear cost:

    burst of N nqes  =  per_batch_ns + N * per_nqe_ns

charged as a *single* ``core.execute`` when the consumer drains a burst.
``per_batch_ns`` covers the fixed work (doorbell check, head/tail read,
prefetch, function-call overhead of entering the drain loop);
``per_nqe_ns`` is the marginal cost of one descriptor once the loop is
hot.  Every ring consumer (:class:`~repro.netkernel.queues.RingPump`)
runs on one such policy; the only dial is ``CoreEngineConfig.batch_size``,
which :func:`drain_policy` turns into each layer's numbers.  Size 1 is
the prototype: bursts of one, no fixed part, the layer's own per-nqe
constant — the same consumer code with different numbers, so it cannot
drift from the batched path.

Calibration
-----------
The per-layer constants keep each layer's *unbatched* cost as the
single-element intercept (a burst of one costs what the unbatched model
charges, so tiny bursts are never cheaper) and approach the amortized
regime the NSDI paper reports — CoreEngine sustains on the order of 100M
nqe switches/s/core when batched, versus ~83M/s implied by the 12 ns
per-copy figure of the HotNets prototype (§4.2), with the bigger win being
the removal of per-nqe queue round-trips:

* CoreEngine: 12 ns unbatched copy (``NQE_COPY_NS``, §4.2) becomes
  ``8 + N*4`` ns — break-even at N=2, 3x switch capacity asymptotically.
* GuestLib: 200 ns per op (``GUESTLIB_OP_NS``) becomes ``140 + N*60`` ns
  — the fixed part is the wakeup/dispatch; descriptor handling is cheap.
* ServiceLib: 300 ns per op (``SERVICELIB_OP_NS``) becomes
  ``210 + N*90`` ns, scaled by the NSM form's cpu multiplier as the
  unbatched path already does.

When it matters: only where rings queue.  On the paper's own figures
99.999 % of bursts are one nqe (docs/PERFORMANCE.md has the measured
burst-size table), so ``batch_size`` is a model dial for the web-style and
ring-flood regimes, not a speed-up of the headline runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..sim import NANOS

__all__ = [
    "BatchPolicy",
    "drain_policy",
    "CE_PER_BATCH_NS",
    "CE_PER_NQE_NS",
    "GL_PER_BATCH_NS",
    "GL_PER_NQE_NS",
    "SL_PER_BATCH_NS",
    "SL_PER_NQE_NS",
    "DEFAULT_BATCH_SIZE",
]

#: Default burst size when batching is turned on (the NSDI prototype
#: drains up to 64 descriptors per doorbell; 64 also matches the ring
#: consumers' historical ``pop_batch`` limit).
DEFAULT_BATCH_SIZE = 64

#: CoreEngine nqe switch: fixed burst entry + amortized per-element copy.
CE_PER_BATCH_NS = 8.0
CE_PER_NQE_NS = 4.0
#: GuestLib completion/receive handling.
GL_PER_BATCH_NS = 140.0
GL_PER_NQE_NS = 60.0
#: ServiceLib op dequeue+dispatch (before the NSM form cpu multiplier).
SL_PER_BATCH_NS = 210.0
SL_PER_NQE_NS = 90.0

_BATCHED_NS = {
    "coreengine": (CE_PER_BATCH_NS, CE_PER_NQE_NS),
    "guestlib": (GL_PER_BATCH_NS, GL_PER_NQE_NS),
    "servicelib": (SL_PER_BATCH_NS, SL_PER_NQE_NS),
}


@dataclass(frozen=True)
class BatchPolicy:
    """One layer's drain size and burst cost: ``n`` nqes drained together
    charge ``per_batch_ns + n * per_nqe_ns``."""

    batch_size: int
    per_batch_ns: float
    per_nqe_ns: float

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.per_batch_ns < 0 or self.per_nqe_ns < 0:
            raise ValueError("batch cost terms must be non-negative")

    def seconds(self, cpu_multiplier: float = 1.0) -> Tuple[int, float, float]:
        """``(burst, per_batch, per_nqe)`` as a ring consumer takes them:
        seconds on a core whose per-op CPU multiplier is ``cpu_multiplier``."""
        return (
            self.batch_size,
            self.per_batch_ns * cpu_multiplier * NANOS,
            self.per_nqe_ns * cpu_multiplier * NANOS,
        )


def drain_policy(batch_size: int, layer: str, unbatched_ns: float) -> BatchPolicy:
    """``layer``'s policy for ``CoreEngineConfig.batch_size``.

    ``unbatched_ns`` is the layer's own one-nqe-at-a-time constant
    (``nqe_copy_ns``, ``GUESTLIB_OP_NS``, ``SERVICELIB_OP_NS``): the whole
    cost at size 1, replaced by the amortized pair above it.
    """
    if batch_size == 1:
        return BatchPolicy(1, 0.0, unbatched_ns)
    return BatchPolicy(batch_size, *_BATCHED_NS[layer])
