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

from itertools import count

__all__ = ["reset_run_ids"]


def reset_run_ids() -> None:
    """Rewind all module-level id allocators to their boot state."""
    from .net import packet
    from .netkernel import hugepages, nqe, nsm, rdma_nsm
    from .quic import stack as quic_stack
    from .rdma import transport, verbs

    packet._packet_ids = count(1)
    nqe.reset_tokens()
    hugepages._chunk_ids = count(1)
    nsm._nsm_ids = count(1)
    rdma_nsm._rdma_nsm_ids = count(1)
    transport._msg_ids = count(1)
    verbs._wr_ids = count(1)
    quic_stack._cid_ids = count(1)
    quic_stack._ticket_ids = count(1)
