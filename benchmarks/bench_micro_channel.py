"""§4.2 microbenchmarks: nqe copy cost + GuestLib<->ServiceLib channel rate.

Paper: ~12 ns per nqe copy; ~64 Gbps (64 B) and ~81 Gbps (8 KB) per core.
"""

import pytest

from repro.experiments.microbench import run_microbench

from conftest import emit


def test_bench_micro_channel():
    result = run_microbench()
    emit("§4.2 — NetKernel communication microbenchmarks", result.table())
    assert result.nqe_copy_ns == pytest.approx(12.0, rel=0.01)
    rates = {row.chunk_bytes: row.gbps for row in result.channel}
    assert rates[64] == pytest.approx(64.0, rel=0.05)
    assert rates[8192] == pytest.approx(81.0, rel=0.05)
