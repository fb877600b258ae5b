"""RDMA as a service: the "customized stack (say RDMA)" of §2.1.

The paper names Verbs as the second guest-facing interface NetKernel
preserves.  RDMA's defining property is kernel bypass: once a queue pair
is set up, data-path verbs (post_send/post_recv/poll_cq) touch doorbell
registers and completion rings mapped straight into the application — no
per-operation kernel (or NSM) round trip.  The NetKernel translation:

* **control verbs** (device open, QP creation, QP connection) go through
  the provider, which owns the RDMA stack in an :class:`RdmaNsm`;
* **data verbs** operate on shared-memory rings between guest and NSM —
  modelled as a direct call plus a small doorbell CPU cost on the guest's
  core, the moral equivalent of GuestLib's huge pages for the RDMA world.

Tenants therefore get RDMA in *any* guest OS, with the provider free to
place and meter the underlying RC transport.
"""

from __future__ import annotations

from itertools import count
from typing import List, Optional

from ..host.cpu import Core
from ..host.machine import PhysicalHost
from ..rdma import CompletionQueue, QueuePair, RdmaDevice, RdmaFabric
from ..sim import NANOS, Simulator

__all__ = ["RdmaNsm", "TenantRdma", "DOORBELL_NS"]

#: Guest-side cost of ringing a doorbell / polling a mapped CQ.
DOORBELL_NS = 120.0

_rdma_nsm_ids = count(1)


class RdmaNsm:
    """A provider-run RDMA stack module (one RC device on an SR-IOV VF)."""

    def __init__(
        self,
        sim: Simulator,
        host: PhysicalHost,
        fabric: RdmaFabric,
    ) -> None:
        self.sim = sim
        self.host = host
        self.fabric = fabric
        self.nsm_id = next(_rdma_nsm_ids)
        self.name = f"rdma-nsm{self.nsm_id}"
        self.cores: List[Core] = host.allocate_cores(1)
        host.reserve_memory(0.25)  # container-class footprint
        self.nic = host.create_vf(f"{self.name}.vf")
        self.device = RdmaDevice(sim, fabric, self.nic)

    @property
    def ip(self) -> str:
        return self.nic.ip


class TenantRdma:
    """The guest's Verbs handle, produced at VM boot.

    Control verbs round-trip to the provider conceptually; data verbs cost
    one doorbell on the guest core and then run against the NSM device
    directly (kernel bypass through shared mappings).
    """

    def __init__(self, sim: Simulator, nsm: RdmaNsm, guest_core: Core) -> None:
        self.sim = sim
        self.nsm = nsm
        self.core = guest_core
        self.qps: List[QueuePair] = []

    @property
    def ip(self) -> str:
        return self.nsm.ip

    # ------------------------------------------------------------- control --
    def create_cq(self, depth: int = 1024) -> CompletionQueue:
        return self.nsm.device.create_cq(depth)

    def create_qp(
        self,
        send_cq: Optional[CompletionQueue] = None,
        recv_cq: Optional[CompletionQueue] = None,
        window_segments: int = 64,
    ) -> QueuePair:
        qp = self.nsm.device.create_qp(send_cq, recv_cq, window_segments)
        self.qps.append(qp)
        return qp

    def connect_qp(self, qp: QueuePair, remote_ip: str, remote_qpn: int) -> None:
        qp.connect(remote_ip, remote_qpn)

    # ---------------------------------------------------------------- data --
    def post_send(self, qp: QueuePair, nbytes: int) -> None:
        self.core.execute(DOORBELL_NS * NANOS)
        qp.post_send(nbytes)

    def post_recv(self, qp: QueuePair, max_len: int = 1 << 20) -> None:
        self.core.execute(DOORBELL_NS * NANOS)
        qp.post_recv(max_len)

    def poll_cq(self, cq: CompletionQueue):
        self.core.execute(DOORBELL_NS * NANOS)
        return cq.poll()
