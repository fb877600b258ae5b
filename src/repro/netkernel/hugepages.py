"""Per-(VM, NSM) huge-page shared memory for bulk data.

The prototype uses QEMU IVSHMEM with 40 × 2 MB pages (§4.1).  Each VM/NSM
pair gets a private region (isolation, §3.1); data moves by memcpy whose
latency follows the Table 1 calibration (:class:`MemcpyModel`).

Data is virtual — a :class:`HugeChunk` is a sized token.  Copies charge
CPU time to the core performing them, which is how the §4.2 channel
throughput (~64 Gbps @ 64 B, ~81 Gbps @ 8 KB per core) emerges.
"""

from __future__ import annotations

from itertools import count
from typing import Optional

from ..host.cpu import Core
from ..host.memory import MemcpyModel
from ..obs import runtime as obs_runtime
from ..sim import Event, Simulator

__all__ = ["HugeChunk", "HugePageRegion", "DEFAULT_PAGES", "PAGE_SIZE", "CHUNK_SIZE"]

#: The prototype's region: 40 pages of 2 MB.
DEFAULT_PAGES = 40
PAGE_SIZE = 2 * 1024 * 1024
#: Figure 4's chunk size for huge-page operations.
CHUNK_SIZE = 8192

_chunk_ids = count(1)


class HugeChunk:
    """A sized allocation inside a huge-page region."""

    __slots__ = ("region", "size", "chunk_id", "freed", "eof")

    def __init__(self, region: "HugePageRegion", size: int) -> None:
        self.region = region
        self.size = size
        self.chunk_id = next(_chunk_ids)
        self.freed = False
        self.eof = False

    def free(self) -> None:
        self.region.free(self)

    def __repr__(self) -> str:
        return f"<HugeChunk #{self.chunk_id} {self.size}B{' freed' if self.freed else ''}>"


class HugePageRegion:
    """Byte-accounted allocator over a fixed huge-page budget."""

    def __init__(
        self,
        sim: Simulator,
        memcpy: Optional[MemcpyModel] = None,
        pages: int = DEFAULT_PAGES,
        page_size: int = PAGE_SIZE,
        name: str = "hugepages",
    ) -> None:
        if pages < 1 or page_size < 4096:
            raise ValueError("need at least one huge page of >= 4 KB")
        self.sim = sim
        self.memcpy = memcpy or MemcpyModel()
        #: One full chunk's copy latency, the same float on every copy.
        self._chunk_latency = self.memcpy.copy_latency(CHUNK_SIZE)
        self.capacity = pages * page_size
        self.name = name
        self.tracer = obs_runtime.get_tracer()
        self._traced = self.tracer.enabled
        self.used = 0
        self.peak_used = 0
        self.alloc_failures = 0
        self._waiters: list[tuple[int, Event]] = []

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.used

    def try_alloc(self, size: int) -> Optional[HugeChunk]:
        """Allocate immediately or return None (caller backs off)."""
        if size <= 0:
            raise ValueError("chunk size must be positive")
        if size > self.free_bytes:
            self.alloc_failures += 1
            return None
        self.used += size
        self.peak_used = max(self.peak_used, self.used)
        return HugeChunk(self, size)

    def alloc(self, size: int) -> Event:
        """Allocate, blocking (event) until space is available."""
        if size > self.capacity:
            raise ValueError(f"chunk of {size}B exceeds region of {self.capacity}B")
        event = Event(self.sim)
        chunk = self.try_alloc(size)
        if chunk is not None:
            event.succeed(chunk)
        else:
            if self._traced:
                self.tracer.count("hugepage.blocked_allocs")
            self._waiters.append((size, event))
        return event

    def free(self, chunk: HugeChunk) -> None:
        if chunk.freed:
            raise RuntimeError(f"double free of {chunk!r}")
        if chunk.region is not self:
            raise ValueError("chunk belongs to another region")
        chunk.freed = True
        self.used -= chunk.size
        self._drain_waiters()

    def _drain_waiters(self) -> None:
        while self._waiters and self._waiters[0][0] <= self.free_bytes:
            size, event = self._waiters.pop(0)
            chunk = self.try_alloc(size)
            assert chunk is not None
            event.succeed(chunk)

    # -- data movement -------------------------------------------------------
    def copy(self, core: Core, nbytes: int, chunk_size: int = CHUNK_SIZE) -> Event:
        """Charge the memcpy of ``nbytes`` (in ``chunk_size`` pieces) to a core.

        Returns an event firing when the copy completes.  This is the
        GuestLib↔huge-page↔ServiceLib data movement of §3.2.
        """
        return core.execute(self._copy_cost(nbytes, chunk_size))

    def copy_call(self, core: Core, nbytes: int, func, *args) -> Event:
        """:meth:`copy`, then ``func(*args)`` — no closure, no process.

        The continuation rides the timeout's direct-call slot (the same
        fast path as ``Core.execute_call``); use it when the caller has
        nothing else to do while the memcpy completes.
        """
        return core.execute_call(self._copy_cost(nbytes, CHUNK_SIZE), func, *args)

    def _copy_cost(self, nbytes: int, chunk_size: int) -> float:
        if nbytes < 0:
            raise ValueError("negative copy size")
        full, rest = divmod(nbytes, chunk_size)
        cost = full * (self._chunk_latency if chunk_size == CHUNK_SIZE
                       else self.memcpy.copy_latency(chunk_size))
        if rest:
            cost += self.memcpy.copy_latency(rest)
        if self._traced:
            tracer = self.tracer
            tracer.count("hugepage.copies")
            tracer.count("hugepage.bytes", nbytes)
            tracer.histogram("hugepage.copy_ns").record(cost * 1e9)
            tracer.high_water(f"hugepage.peak_used.{self.name}", self.peak_used)
        return cost
