"""Pingmesh-as-NSM: latency mesh, failure detection, localization.

Also covers the multi-host cluster fabric these tests run on.
"""

import pytest

from repro.experiments.common import make_cluster_testbed, make_lan_testbed
from repro.mgmt import PingmeshMesh
from repro.net import Packet
from repro.net.fabric import CoreSwitch
from repro.netkernel import NsmForm


def make_mesh(n_hosts=3, interval=0.05):
    testbed = make_cluster_testbed(n_hosts)
    mesh = PingmeshMesh(testbed.sim, probe_interval=interval)
    for index, hypervisor in enumerate(testbed.hypervisors):
        mesh.add_agent(f"host{index}", hypervisor)
    return testbed, mesh


def test_mesh_measures_every_pair():
    testbed, mesh = make_mesh(3)
    testbed.sim.run(until=1.0)
    assert len(mesh.latency) == 6  # 3 * 2 ordered pairs
    assert all(len(rec) >= 2 for rec in mesh.latency.values())
    assert mesh.suspected_failures() == []


def test_mesh_latency_is_physically_plausible():
    testbed, mesh = make_mesh(2)
    testbed.sim.run(until=1.0)
    p50 = mesh.pair_p50_us("host0", "host1")
    # Two 5 us uplinks each way plus handshake/stack overheads.
    assert 20 < p50 < 500


def test_mesh_agents_are_hypervisor_module_nsms():
    testbed, mesh = make_mesh(2)
    for hypervisor in testbed.hypervisors:
        nsm = hypervisor.nsms[0]
        assert nsm.form is NsmForm.HYPERVISOR_MODULE
        assert nsm.name.startswith("pingmesh-")


def test_nic_failure_detected_and_localized():
    testbed, mesh = make_mesh(4)
    testbed.sim.run(until=1.0)
    testbed.hypervisors[2].nsms[0].nic.fail()
    testbed.sim.run(until=4.5)
    suspected = mesh.suspected_failures(window=1.5)
    assert suspected  # something is wrong
    assert all("host2" in pair for pair in suspected)
    assert mesh.localize(window=1.5) == ["host2"]


def test_recovery_clears_suspicion():
    testbed, mesh = make_mesh(2, interval=0.05)
    nic = testbed.hypervisors[1].nsms[0].nic
    testbed.sim.run(until=0.5)
    nic.fail()
    testbed.sim.run(until=3.0)
    assert mesh.suspected_failures(window=1.0)
    nic.repair()
    testbed.sim.run(until=6.5)
    assert mesh.suspected_failures(window=1.0) == []


def test_duplicate_agent_rejected():
    testbed, mesh = make_mesh(2)
    with pytest.raises(ValueError):
        mesh.add_agent("host0", testbed.hypervisors[0])


def test_mesh_report_renders():
    testbed, mesh = make_mesh(2)
    testbed.sim.run(until=0.5)
    report = mesh.report()
    assert "host0->host1" in report


# ------------------------------------------------------------- cluster fabric --
def test_cluster_routes_between_all_hosts():
    testbed = make_cluster_testbed(3)
    # Tenant traffic host0 -> host2 through the core.
    vm_a = testbed.hypervisors[0].boot_legacy_vm("a")
    vm_b = testbed.hypervisors[2].boot_legacy_vm("b")
    from repro.apps import BulkReceiver, BulkSender
    from repro.net import Endpoint

    receiver = BulkReceiver(testbed.sim, vm_b.api, 5000)
    BulkSender(
        testbed.sim, vm_a.api, Endpoint(vm_b.api.ip, 5000), total_bytes=500_000
    )
    testbed.sim.run(until=1.0)
    assert receiver.meter.bytes == 500_000
    assert testbed.core.forwarded > 0


def test_core_switch_drops_unroutable():
    from repro.sim import Simulator

    sim = Simulator()
    core = CoreSwitch(sim)
    core._ingress(Packet(src="10.1.0.1", dst="99.9.9.9", payload_bytes=10))
    assert core.dropped_unroutable == 1


def test_core_switch_duplicate_prefix_rejected():
    testbed = make_cluster_testbed(2)
    with pytest.raises(ValueError):
        testbed.core.attach_host(testbed.hosts[0])


def test_cluster_validates_size():
    with pytest.raises(ValueError):
        make_cluster_testbed(1)


def test_failed_nic_blackholes_instead_of_raising(sim):
    from repro.net import VirtualNIC

    nic = VirtualNIC(sim, "10.0.0.1")
    nic.fail()
    nic.transmit(Packet(src="10.0.0.1", dst="x", payload_bytes=5))  # no raise
    nic.receive(Packet(src="x", dst="10.0.0.1", payload_bytes=5))
    assert nic.dropped_failed == 2
    assert nic.rx_packets == 0
