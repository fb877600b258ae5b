"""Integration tests pinning the paper's quantitative claims.

These are the fast, assertable forms of what benchmarks/ regenerates in
full — each maps to a table, figure or §4.2 statement.
"""

import pytest

from repro.experiments.common import make_lan_testbed
from repro.experiments.figure4 import measure_lan_throughput
from repro.experiments.microbench import run_microbench
from repro.experiments.table1 import run_table1
from repro.host import MemcpyModel
from repro.netkernel import NQE_COPY_NS


def test_table1_model_matches_every_published_number():
    result = run_table1()
    for row in result.rows:
        assert row["matches_paper"], (
            f"{row['chunk_bytes']}B: {row['model_ns']} != {row['paper_ns']}"
        )
        assert row["simulated_ns"] == pytest.approx(row["paper_ns"], rel=1e-6)


def test_nqe_copy_cost_is_12ns():
    result = run_microbench(chunk_sizes=(64,))
    assert result.values["nqe_copy_ns"] == pytest.approx(NQE_COPY_NS, rel=1e-6)


def test_channel_throughput_matches_section_4_2():
    """~64 Gbps at 64 B and ~81 Gbps at 8 KB per core."""
    result = run_microbench(chunk_sizes=(64, 8192))
    rates = {row["chunk_bytes"]: row["gbps"] for row in result.rows}
    assert rates[64] == pytest.approx(64.0, rel=0.02)
    assert rates[8192] == pytest.approx(81.0, rel=0.02)


def test_memcpy_8kb_under_one_microsecond():
    """§4.2: 'even a large chunk of 8KB costs less than 0.81us to copy'."""
    assert MemcpyModel().copy_latency(8192) < 0.81e-6


@pytest.mark.slow
def test_figure4_shape_nsm_matches_native():
    """Figure 4: NSM within ~15% of native at 1 flow; line rate at 2."""
    native_1 = measure_lan_throughput("native", 1, duration=0.25, warmup=0.08)
    nsm_1 = measure_lan_throughput("netkernel", 1, duration=0.25, warmup=0.08)
    assert nsm_1 == pytest.approx(native_1, rel=0.25)
    assert native_1 < 30.0  # single flow below line rate

    native_2 = measure_lan_throughput("native", 2, duration=0.25, warmup=0.08)
    nsm_2 = measure_lan_throughput("netkernel", 2, duration=0.25, warmup=0.08)
    assert native_2 > 35.0  # ~line rate
    assert nsm_2 > 35.0


@pytest.mark.slow
def test_one_core_nsm_sustains_line_rate_with_two_flows():
    """§4.2's implicit claim: the 1-core NSM is not the bottleneck."""
    nsm_2 = measure_lan_throughput("netkernel", 2, duration=0.25, warmup=0.08)
    assert nsm_2 > 35.0


def test_sriov_vs_vswitch_host_cpu():
    """§3.1: SR-IOV bypasses host CPU; a software vSwitch burns it."""
    from repro.apps import BulkReceiver, BulkSender
    from repro.net import Endpoint

    def run(sriov):
        testbed = make_lan_testbed(sriov=sriov)
        vm_a = testbed.hypervisor_a.boot_legacy_vm("a", use_sriov=sriov)
        vm_b = testbed.hypervisor_b.boot_legacy_vm("b", use_sriov=sriov)
        BulkReceiver(testbed.sim, vm_b.api, 5000)
        BulkSender(
            testbed.sim, vm_a.api, Endpoint(vm_b.api.ip, 5000), total_bytes=20_000_000
        )
        testbed.sim.run(until=0.2)
        return testbed.host_b.hypervisor_core.busy_seconds

    assert run(sriov=False) > run(sriov=True) * 10


@pytest.mark.slow
def test_figure5_bbr_nsm_equals_native_bbr():
    """The Figure 5 headline at test scale: a Windows VM on the BBR NSM is
    indistinguishable from native Linux BBR on the same WAN path."""
    from repro.experiments.figure5 import measure_wan_throughput
    from repro.host.vm import GuestOS

    nsm = measure_wan_throughput(
        "netkernel", GuestOS.WINDOWS, "bbr", duration=25.0, warmup=5.0, seed=1
    )
    native = measure_wan_throughput(
        "native", GuestOS.LINUX, "bbr", duration=25.0, warmup=5.0, seed=1
    )
    assert nsm == pytest.approx(native, rel=0.1)
    assert nsm > 7.0  # most of the 12 Mbps uplink


@pytest.mark.slow
def test_figure5_bbr_dominates_loss_based_defaults():
    from repro.experiments.figure5 import measure_wan_throughput
    from repro.host.vm import GuestOS

    bbr = measure_wan_throughput(
        "native", GuestOS.LINUX, "bbr", duration=25.0, warmup=5.0, seed=1
    )
    cubic = measure_wan_throughput(
        "native", GuestOS.LINUX, "cubic", duration=25.0, warmup=5.0, seed=1
    )
    assert bbr > 2.0 * cubic
