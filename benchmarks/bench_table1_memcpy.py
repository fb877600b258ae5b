"""Table 1: memory copying latency in NetKernel (paper §4.2).

Paper: 64B->8ns, 512B->64ns, 1KB->117ns, 2KB->214ns, 4KB->425ns, 8KB->809ns.
"""

from repro.experiments.table1 import run_table1

from conftest import emit


def test_bench_table1():
    result = run_table1()
    emit("Table 1 — memory copying latency", result.text())
    for row in result.rows:
        assert row["matches_paper"]
