"""Figure 5: a Windows VM uses BBR via the NetKernel BBR NSM on a lossy
transpacific path (12 Mbps uplink, 350 ms RTT).

Paper: BBR NSM 11.12 / Linux BBR 11.14 / Windows C-TCP 8.60 / Linux
Cubic 2.61 Mbps.  The architectural claim — the Windows VM with the BBR
NSM matches native Linux BBR, and both far exceed the loss-limited
defaults — must hold; the absolute CTCP-vs-Cubic gap depended on live
Internet weather (see EXPERIMENTS.md).
"""

import pytest

from repro.experiments.figure5 import run_figure5

from conftest import emit


def test_bench_figure5():
    result = run_figure5(duration=40.0, warmup=5.0)
    emit("Figure 5 — WAN throughput by sender configuration", result.text())
    measured = {row["label"]: row["mbps"] for row in result.rows}
    # The headline: BBR-via-NSM from a Windows guest == native Linux BBR.
    assert measured["BBR NSM"] == pytest.approx(measured["Linux BBR"], rel=0.05)
    # Both BBR configurations approach the 12 Mbps uplink.
    assert measured["BBR NSM"] > 8.0
    # And dominate the loss-based defaults by a large factor.
    assert measured["BBR NSM"] > 2.0 * measured["Linux Cubic"]
    assert measured["BBR NSM"] > 2.0 * measured["Windows CTCP"]
