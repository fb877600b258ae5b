#!/usr/bin/env python
"""Scale benchmark: simulator host performance at large connection counts.

This measures the simulator *itself* — wall seconds, events per wall
second, workload progress — in the many-connection regime the perf
ledger (``benchmarks/ledger/``) has no workload for yet: ``epoll_N``
sparse-activity sinks (100 → 10k connections) and short-connection
``churn_N``, plus a serial-vs-``--jobs`` sweep of independent runs.  Results go to BENCH_scale.json with the
committed pre-PR baseline embedded for an honest before/after.

Two entry points:

* ``python benchmarks/bench_scale.py [--smoke] [--out F] [--check REF]``
  — the CI smoke path; ``--check`` exits non-zero if the headline point
  regresses >25 % events/s vs the committed reference JSON.
* ``pytest benchmarks/bench_scale.py --benchmark-only -s`` — the
  pytest-benchmark convention used by the other files here.
"""

import sys
from pathlib import Path

# Allow running as a plain script from a checkout (CI uses PYTHONPATH=src,
# an installed package needs nothing; this covers the bare invocation).
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.experiments.bench_scale import main, render, run_bench  # noqa: E402

from conftest import emit  # noqa: E402


def test_bench_scale(benchmark):
    result = benchmark.pedantic(
        run_bench, kwargs=dict(smoke=True), rounds=1, iterations=1
    )
    emit("Scale — simulator performance at large N (smoke)", render(result))
    for key, row in result["points"].items():
        assert row["events"] > 0, key
        assert row["wall_s"] > 0, key
    # Every epoll point delivered its full message schedule and the
    # parallel sweep merged bit-identically to serial.
    for key, row in result["points"].items():
        if row["workload"] == "epoll":
            assert row["messages_delivered"] == row["messages_expected"], key
    assert result["sweep"]["result_mismatches"] == 0
    assert result["sweep"]["failures"] == 0


if __name__ == "__main__":
    sys.exit(main())
