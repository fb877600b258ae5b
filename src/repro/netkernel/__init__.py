"""NetKernel: network stack as a service (the paper's contribution).

Components, mirroring §3:

* :class:`Nqe` / :class:`NqeRing` — queue elements and shared-memory rings.
* :class:`HugePageRegion` — per-(VM, NSM) bulk-data shared memory.
* :class:`GuestLib` — guest-side socket-API interception.
* :class:`ServiceLib` — NSM-side execution against the network stack.
* :class:`CoreEngine` — hypervisor daemon: nqe switching + connection table.
* :class:`NSM` — the provider-run network stack module (VM/container/module).
* :class:`Hypervisor` — boots VMs (legacy or NetKernel) and NSMs.

Fastpass arbitration (:mod:`.arbiter`), the RDMA NSM (:mod:`.rdma_nsm`)
and live migration (:mod:`.migration`) are imported from their modules,
so a run that uses none of them does not load them.
"""

from .conntable import ConnectionTable
from .coreengine import CoreEngine, CoreEngineConfig, VmAttachment
from .guestlib import GUESTLIB_OP_NS, GuestLib
from .hugepages import CHUNK_SIZE, DEFAULT_PAGES, PAGE_SIZE, HugeChunk, HugePageRegion
from .nqe import NQE_COPY_NS, Nqe, NqeOp, NqeStatus
from .nsm import NSM, STACK_FAMILIES, NsmForm, NsmSpec, register_stack_family
from .provision import Hypervisor
from .qos import TokenBucket
from .queues import NotifyMode, NqeRing, PriorityNqeRing, QueueTimeout
from .servicelib import SERVICELIB_OP_NS, ServiceLib

__all__ = [
    "Nqe",
    "NqeOp",
    "NqeStatus",
    "NQE_COPY_NS",
    "NqeRing",
    "PriorityNqeRing",
    "NotifyMode",
    "QueueTimeout",
    "HugeChunk",
    "HugePageRegion",
    "CHUNK_SIZE",
    "DEFAULT_PAGES",
    "PAGE_SIZE",
    "ConnectionTable",
    "GuestLib",
    "GUESTLIB_OP_NS",
    "ServiceLib",
    "SERVICELIB_OP_NS",
    "CoreEngine",
    "CoreEngineConfig",
    "VmAttachment",
    "NSM",
    "NsmForm",
    "NsmSpec",
    "STACK_FAMILIES",
    "register_stack_family",
    "Hypervisor",
    "TokenBucket",
]
