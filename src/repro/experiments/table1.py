"""Table 1: memory-copying latency in NetKernel.

The paper measures the latency of copying data chunks between GuestLib
and ServiceLib through the huge pages (random-address reads):

64 B -> 8 ns, 512 B -> 64 ns, 1 KB -> 117 ns, 2 KB -> 214 ns,
4 KB -> 425 ns, 8 KB -> 809 ns.

We reproduce it two ways: (1) the calibrated model directly, and (2) a
simulated measurement — performing the copies on a simulated core and
reading the elapsed virtual time — to prove the full machinery charges
exactly these costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..host import MemcpyModel, PAPER_TABLE1_POINTS
from ..host.cpu import Core
from ..netkernel import HugePageRegion
from ..sim import Simulator

__all__ = ["Table1Row", "Table1Result", "run_table1"]


@dataclass
class Table1Row:
    chunk_bytes: int
    paper_ns: float
    model_ns: float
    simulated_ns: float

    @property
    def matches_paper(self) -> bool:
        return abs(self.model_ns - self.paper_ns) < 1e-6


@dataclass
class Table1Result:
    rows: List[Table1Row]

    def table(self) -> str:
        lines = [
            "Table 1: memory copying latency in NetKernel",
            f"{'chunk':>8} {'paper':>8} {'model':>8} {'simulated':>10}",
        ]
        for row in self.rows:
            chunk = (
                f"{row.chunk_bytes}B"
                if row.chunk_bytes < 1024
                else f"{row.chunk_bytes // 1024}KB"
            )
            lines.append(
                f"{chunk:>8} {row.paper_ns:>6.0f}ns {row.model_ns:>6.0f}ns "
                f"{row.simulated_ns:>8.0f}ns"
            )
        return "\n".join(lines)


def _simulate_copy_ns(size: int) -> float:
    """Measure one copy by running it 32 times on a simulated core."""
    repetitions = 32
    sim = Simulator()
    core = Core(sim, "bench-core")
    region = HugePageRegion(sim, MemcpyModel())
    done = {}

    def proc():
        for _ in range(repetitions):
            yield region.copy(core, size, chunk_size=size)
        done["elapsed"] = sim.now

    sim.process(proc())
    sim.run()
    return done["elapsed"] / repetitions * 1e9


def run_table1() -> Table1Result:
    """Regenerate Table 1 for the paper's six chunk sizes."""
    model = MemcpyModel()
    rows = []
    for size, paper_ns in PAPER_TABLE1_POINTS:
        rows.append(
            Table1Row(
                chunk_bytes=size,
                paper_ns=paper_ns,
                model_ns=model.copy_latency_ns(size),
                simulated_ns=_simulate_copy_ns(size),
            )
        )
    return Table1Result(rows=rows)
