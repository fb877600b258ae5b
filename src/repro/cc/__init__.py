"""Stack-neutral congestion-control registry.

The by-name CC registry was born inside :mod:`repro.tcp.cc` because TCP
was the only stack family.  Now that stacks are pluggable per tenant
(see :mod:`repro.quic` and the family registry in
:mod:`repro.netkernel.nsm`), non-TCP stacks need ``make("cubic")``
without importing TCP internals.  This shim re-exports the registry
surface from its home module — there is exactly one registry, shared by
every family, so ``available()`` reports registrations from all of them.

Importing this module also imports :mod:`repro.tcp.cc` for its
registration side effects, so ``make()`` finds the built-in algorithms
(cubic, bbr, ctcp, ...) no matter which family asks first.
"""

from ..tcp import cc as _tcp_cc  # noqa: F401  (registers built-in algorithms)
from ..tcp.cc.base import (
    CongestionControl,
    RateSample,
    available,
    make,
    register,
)

__all__ = [
    "CongestionControl",
    "RateSample",
    "register",
    "make",
    "available",
]
