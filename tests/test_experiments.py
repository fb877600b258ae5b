"""Experiment harnesses: structure, rendering, and fast invariants.

The full regenerations live in benchmarks/; these tests pin the harness
plumbing (result shapes, table rendering, paper constants) and run the
cheap experiments outright.
"""

import pytest

from repro.experiments.common import (
    FIG4_SOCKET_BUF,
    LAN_LINE_RATE_GBPS,
    WAN_RTT,
    WAN_UPLINK_BPS,
    default_wan_loss,
    make_cluster_testbed,
    make_lan_testbed,
    make_wan_testbed,
)
from repro.experiments.figure4 import FIGURE4
from repro.experiments.figure5 import CONFIGS, PAPER_MBPS
from repro.experiments.microbench import run_microbench
from repro.experiments.table1 import run_table1


def test_lan_testbed_is_wired_both_ways():
    testbed = make_lan_testbed()
    assert testbed.host_a.pnic.wire is not None
    assert testbed.host_b.pnic.wire is not None
    assert testbed.wire.a_to_b.deliver is not None
    assert testbed.wire.b_to_a.deliver is not None


def test_lan_testbed_matches_paper_hardware():
    testbed = make_lan_testbed()
    assert len(testbed.host_a.cpu) == 8
    assert testbed.host_a.memory_gb == 192
    assert testbed.wire.a_to_b.rate_bps == 40e9
    assert testbed.host_a.sriov


def test_wan_testbed_matches_figure5_path():
    testbed = make_wan_testbed()
    assert testbed.wire.a_to_b.rate_bps == WAN_UPLINK_BPS
    assert testbed.wire.a_to_b.propagation_delay == pytest.approx(WAN_RTT / 2)
    assert testbed.wire.b_to_a.rate_bps > WAN_UPLINK_BPS  # asymmetric
    # TSO off on WAN hosts.
    assert not testbed.server_host.offload.tso


def test_wan_loss_is_seeded_and_reproducible():
    a = default_wan_loss(seed=5)
    b = default_wan_loss(seed=5)
    picks_a = [a.should_drop(now=t * 0.01) for t in range(5000)]
    picks_b = [b.should_drop(now=t * 0.01) for t in range(5000)]
    assert picks_a == picks_b
    assert any(picks_a)


def test_figure5_configs_cover_the_paper():
    labels = {label for label, *_ in CONFIGS}
    assert labels == set(PAPER_MBPS)
    modes = {mode for _l, mode, *_ in CONFIGS}
    assert modes == {"native", "netkernel"}


def test_figure4_row_ratio():
    (row,) = FIGURE4.fill([dict(flows=1, native_gbps=20.0, nsm_gbps=22.0)]).rows
    assert row["ratio"] == pytest.approx(1.1)
    (idle,) = FIGURE4.fill([dict(flows=1, native_gbps=0.0, nsm_gbps=1.0)]).rows
    assert idle["ratio"] == 0.0


def test_figure4_table_renders():
    table = FIGURE4.fill([dict(flows=1, native_gbps=22.0, nsm_gbps=23.0)]).text()
    assert "CUBIC NSM" in table and "22.00" in table


def test_table1_runs_fast_and_matches():
    result = run_table1()
    assert [row["chunk_bytes"] for row in result.rows] == [
        64, 512, 1024, 2048, 4096, 8192,
    ]
    assert all(row["matches_paper"] for row in result.rows)
    assert "809" in result.text()


def test_microbench_runs_fast_and_matches():
    result = run_microbench(chunk_sizes=(64, 8192))
    assert result.values["nqe_copy_ns"] == pytest.approx(12.0)
    assert "12.0 ns" in result.text()


def test_fig4_socket_buffer_below_line_rate_bdp():
    """The calibration invariant behind the single-flow dip."""
    # If the buffer covered line-rate BDP at the path RTT with margin,
    # one flow would saturate the wire and the dip would vanish.
    line_rate_bytes_per_s = LAN_LINE_RATE_GBPS * 1e9 / 8
    effective_rtt = 40e-6  # serialization + propagation + stack latency
    assert FIG4_SOCKET_BUF < 1.5 * line_rate_bytes_per_s * effective_rtt


def test_cluster_testbed_prefixes_are_disjoint():
    testbed = make_cluster_testbed(3)
    prefixes = {host.addresses.prefix for host in testbed.hosts}
    assert len(prefixes) == 3
