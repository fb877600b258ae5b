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

from ..host import MemcpyModel, PAPER_TABLE1_POINTS
from ..host.cpu import Core
from ..netkernel import HugePageRegion
from ..sim import Simulator
from .registry import Experiment
from .table import Column, Table, size_label

__all__ = ["TABLE1", "EXPERIMENT", "run_table1"]

#: One row per chunk size; ``matches_paper`` is the model's exact hit.
TABLE1 = Table(
    "Table 1: memory copying latency in NetKernel",
    (
        Column("chunk", "chunk", 8, ">8", derive=lambda r: size_label(r["chunk_bytes"])),
        Column("paper_ns", "paper", 8, ">6.0f", "ns"),
        Column("model_ns", "model", 8, ">6.0f", "ns"),
        Column("simulated_ns", "simulated", 10, ">8.0f", "ns"),
    ),
)


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


def _measure(size: int, paper_ns: float) -> dict:
    model_ns = MemcpyModel().copy_latency_ns(size)
    return dict(
        chunk_bytes=size,
        paper_ns=paper_ns,
        model_ns=model_ns,
        simulated_ns=_simulate_copy_ns(size),
        matches_paper=abs(model_ns - paper_ns) < 1e-6,
    )


#: Table 1 for the paper's six chunk sizes.
EXPERIMENT = Experiment(
    points=lambda: [(f"table1:{size}B", (size, paper_ns))
                    for size, paper_ns in PAPER_TABLE1_POINTS],
    measure=_measure,
    result=lambda values: TABLE1.fill(values),
)
run_table1 = EXPERIMENT.run
