"""§4.2 microbenchmarks: nqe copy cost and shared-memory channel rate.

The paper reports:

* copying one nqe between VM and NSM queues via CoreEngine costs ~12 ns;
* the GuestLib<->ServiceLib channel sustains ~64 Gbps at 64 B chunks and
  ~81 Gbps at 8 KB chunks per core.

Both are measured here on the real simulated machinery: nqes are pushed
through a CoreEngine mover and the CE core's busy time is read back; the
channel rate comes from timing back-to-back chunk copies on one core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..host import MemcpyModel
from ..host.cpu import Core
from ..netkernel import HugePageRegion, NQE_COPY_NS, Nqe, NqeOp, NqeRing
from ..sim import NANOS, Simulator

__all__ = ["ChannelRow", "MicrobenchResult", "run_microbench"]

PAPER_NQE_COPY_NS = 12.0


@dataclass
class ChannelRow:
    chunk_bytes: int
    gbps: float


@dataclass
class MicrobenchResult:
    nqe_copy_ns: float
    channel: List[ChannelRow]

    def table(self) -> str:
        lines = [
            "NetKernel communication microbenchmarks (§4.2)",
            f"nqe copy via CoreEngine: {self.nqe_copy_ns:.1f} ns/event "
            f"(paper: ~{PAPER_NQE_COPY_NS:.0f} ns)",
            f"{'chunk':>8} {'channel rate':>14}",
        ]
        for row in self.channel:
            chunk = (
                f"{row.chunk_bytes}B"
                if row.chunk_bytes < 1024
                else f"{row.chunk_bytes // 1024}KB"
            )
            lines.append(f"{chunk:>8} {row.gbps:>10.1f} Gbps")
        return "\n".join(lines)


def measure_nqe_copy_ns() -> float:
    """Time CoreEngine-style nqe shuttling (1000 nqes) on a dedicated core."""
    count = 1000
    sim = Simulator()
    core = Core(sim, "ce-core")
    source = NqeRing(sim, capacity=count + 1, name="vmq")
    sink = NqeRing(sim, capacity=count + 1, name="nsmq")

    def mover():
        moved = 0
        while moved < count:
            yield source.wait_nonempty()
            for nqe in source.pop_batch():
                yield core.execute(NQE_COPY_NS * NANOS)
                sink.try_push(nqe)
                moved += 1

    def producer():
        for _ in range(count):
            yield source.push(Nqe(op=NqeOp.SEND, vm_id=1, fd=3))

    sim.process(producer())
    sim.process(mover())
    sim.run()
    return core.busy_seconds / count * 1e9


def measure_channel_gbps(chunk_bytes: int) -> float:
    """Per-core huge-page channel throughput for a given chunk size,
    measured over 64 MB."""
    total_bytes = 64 * 1024 * 1024
    sim = Simulator()
    core = Core(sim, "channel-core")
    region = HugePageRegion(sim, MemcpyModel())
    chunks = max(1, total_bytes // chunk_bytes)
    done = {}

    def proc():
        for _ in range(chunks):
            yield region.copy(core, chunk_bytes, chunk_size=chunk_bytes)
        done["elapsed"] = sim.now

    sim.process(proc())
    sim.run()
    return chunks * chunk_bytes * 8.0 / done["elapsed"] / 1e9


def run_microbench(
    chunk_sizes: Sequence[int] = (64, 512, 1024, 2048, 4096, 8192),
) -> MicrobenchResult:
    """Regenerate the §4.2 communication microbenchmarks."""
    return MicrobenchResult(
        nqe_copy_ns=measure_nqe_copy_ns(),
        channel=[
            ChannelRow(chunk_bytes=size, gbps=measure_channel_gbps(size))
            for size in chunk_sizes
        ],
    )
