"""NetKernel Queue Elements (nqes).

The nqe is the unit of communication between GuestLib, CoreEngine and
ServiceLib (§3.2): a small fixed-size (64-byte) descriptor carrying an
operation ID plus ``<VM ID, fd>`` on the tenant side or ``<NSM ID, cID>``
on the NSM side, and optionally a huge-page data descriptor.  Copying one
nqe between queues costs the CoreEngine ~12 ns (§4.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from itertools import count
from typing import Any, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.spans import Span
    from .hugepages import HugeChunk

__all__ = [
    "NqeOp",
    "NqeStatus",
    "Nqe",
    "NQE_COPY_NS",
]

#: Measured cost of CoreEngine copying one nqe between queues (§4.2).
NQE_COPY_NS = 12.0

#: ``next(count)`` called from C: no Python frame per nqe token.  The
#: dataclass binds this object, so :func:`reset_tokens` rewinds it in place.
_next_token = partial(next, count(1))


def reset_tokens() -> None:
    """Restart tokens at 1 (:func:`repro.runstate.reset_run_ids`)."""
    _next_token.__setstate__((next, (count(1),), None, None))


class NqeOp(enum.Enum):
    """Operations carried by nqes."""

    # VM -> NSM (job queue)
    SOCKET = "socket"
    BIND = "bind"
    LISTEN = "listen"
    CONNECT = "connect"
    SEND = "send"
    CLOSE = "close"
    SETSOCKOPT = "setsockopt"
    # NSM -> VM (completion queue)
    COMPLETION = "completion"
    # NSM -> VM (receive queue)
    DATA = "data"  # nk_new_data_callback
    ACCEPT_EVENT = "accept"  # nk_new_accept_callback
    EOF = "eof"
    # CoreEngine -> NSM liveness probe; answered with a normal COMPLETION
    # whose ``args`` is HEARTBEAT (intercepted by CoreEngine, never
    # forwarded to a VM).
    HEARTBEAT = "heartbeat"
    # CoreEngine -> VM (receive queue): the backend connection died with
    # its NSM; GuestLib surfaces ECONNRESET on the fd.
    RESET = "reset"
    # Migration coordinator -> NSM: a sequence-numbered marker pushed
    # through the frozen datapath; its COMPLETION proves every nqe ahead
    # of it has been pumped out of the pipeline (intercepted by
    # CoreEngine like HEARTBEAT, never forwarded to a VM).
    DRAIN_MARKER = "drain-marker"


class NqeStatus(enum.Enum):
    OK = "ok"
    ERROR = "error"


#: Operations that are connection events rather than data events; the
#: priority-queue variant (§3.2) services these first to avoid head-of-line
#: blocking of connection setup behind bulk data.
CONNECTION_EVENT_OPS = frozenset(
    {
        NqeOp.SOCKET,
        NqeOp.BIND,
        NqeOp.LISTEN,
        NqeOp.CONNECT,
        NqeOp.CLOSE,
        NqeOp.SETSOCKOPT,
        NqeOp.ACCEPT_EVENT,
        NqeOp.COMPLETION,
        NqeOp.HEARTBEAT,
        NqeOp.RESET,
        NqeOp.DRAIN_MARKER,
    }
)


@dataclass(slots=True)
class Nqe:
    """One queue element.

    ``token`` correlates a completion with the call that issued it (the
    real prototype uses the queue slot; an explicit token is clearer).
    Slotted: millions of nqes flow through a long run, and the fixed-size
    descriptor matches the prototype's fixed-size queue element anyway.
    """

    op: NqeOp
    vm_id: Optional[int] = None
    fd: Optional[int] = None
    nsm_id: Optional[int] = None
    cid: Optional[int] = None
    #: Huge-page descriptor for bulk data (SEND / DATA).
    data_desc: Optional["HugeChunk"] = None
    #: Operation arguments (port, remote endpoint, byte counts, cc name...).
    args: Any = None
    status: NqeStatus = NqeStatus.OK
    #: Correlates completions with requests.
    token: int = field(default_factory=_next_token)
    #: Result payload for completions.
    result: Any = None
    #: Observability: the root span riding this nqe across layers
    #: (None when tracing is off or the root was not sampled).
    span: Optional["Span"] = None
    #: Observability: when the nqe entered its current ring (set by the
    #: ring itself while tracing, consumed at dequeue for wait latency).
    enqueued_at: Optional[float] = None
    #: Invariant checking: the emitting backend's stable flow identity
    #: (survives migration cID changes) and per-flow monotonic DATA
    #: sequence number; stamped by ServiceLib on DATA nqes.
    flow_uid: Optional[int] = None
    rx_seq: Optional[int] = None

    @property
    def is_connection_event(self) -> bool:
        return self.op in CONNECTION_EVENT_OPS

    def completion(self, status: NqeStatus = NqeStatus.OK, result: Any = None) -> "Nqe":
        """Build the completion nqe answering this request."""
        return Nqe(
            op=NqeOp.COMPLETION,
            vm_id=self.vm_id,
            fd=self.fd,
            nsm_id=self.nsm_id,
            cid=self.cid,
            args=self.op,
            status=status,
            token=self.token,
            result=result,
            span=self.span,
        )
