"""Process-wide id counters and their per-run reset.

Several modules keep module-level ``itertools.count`` allocators for ids
that must be unique within one simulation — NSM ids, packet ids, nqe
tokens, huge-page chunk ids.  A module-global is the cheapest correct
allocator for one run, but it makes a run's output a function of
*process history*: the second simulation in a process sees higher ids
than the first, and generated names ("nsm3") leak into results such as
failover records.

:func:`reset_run_ids` rewinds every such allocator to its boot state.
The parallel runner calls it before each run, so ``jobs=1``, ``jobs=N``
and a fresh interpreter all produce bit-identical output for the same
run spec.  Only call it *between* simulations — two live simulators in
one process would start minting duplicate ids after a reset (no code
compares ids across simulators, but there is no reason to go there).
"""

from __future__ import annotations

import sys
from itertools import count

__all__ = ["reset_run_ids"]

#: Module (relative to this package) -> its module-level id allocators.
_ALLOCATORS = {
    "net.packet": ("_packet_ids",),
    "netkernel.hugepages": ("_chunk_ids",),
    "netkernel.nsm": ("_nsm_ids",),
    "netkernel.rdma_nsm": ("_rdma_nsm_ids",),
    "rdma.transport": ("_msg_ids",),
    "quic.stack": ("_cid_ids", "_ticket_ids"),
}


def reset_run_ids() -> None:
    """Rewind the id allocators of every loaded module to their boot state.

    A module that is not loaded yet starts at its boot state when it is,
    so the reset touches only modules already in ``sys.modules`` and
    imports nothing.
    """
    for name, allocators in _ALLOCATORS.items():
        module = sys.modules.get(f"{__package__}.{name}")
        if module is not None:
            for allocator in allocators:
                setattr(module, allocator, count(1))
    nqe = sys.modules.get(f"{__package__}.netkernel.nqe")
    if nqe is not None:
        nqe.reset_tokens()
