"""Coverage for small validation paths and reprs across packages."""

import pytest

from repro.host import CpuSet, GuestOS, PhysicalHost
from repro.net import AddressAllocator
from repro.sim import Simulator
from repro.tcp.cc import CongestionControl, register
from repro.tcp.cc.base import RateSample, make


def test_cc_duplicate_registration_rejected():
    class Dupe(CongestionControl):
        name = "cubic"  # already taken

    with pytest.raises(ValueError):
        register(Dupe)


def test_cc_empty_name_rejected():
    class Anon(CongestionControl):
        name = ""

    with pytest.raises(ValueError):
        register(Anon)


def test_cc_base_defaults_behave():
    cc = make("reno")
    assert cc.window() >= cc.mss
    assert cc.pacing_rate() is None
    assert "cwnd" in repr(cc)


def test_cc_base_validates_mss():
    with pytest.raises(ValueError):
        CongestionControl(mss=0)


def test_base_on_rto_halves_and_collapses():
    cc = CongestionControl(mss=1000, initial_window_segments=10)
    cc.on_rto()
    assert cc.cwnd == 1000
    assert cc.ssthresh == 5000


def test_cpuset_validates_count(sim):
    with pytest.raises(ValueError):
        CpuSet(sim, 0)


def test_host_requires_two_cores(sim):
    with pytest.raises(ValueError):
        PhysicalHost(sim, "h", "10.0.0.1", cores=1,
                     addresses=AddressAllocator("10.0"))


def test_host_allocate_cores_validates(sim):
    host = PhysicalHost(sim, "h", "10.9.255.1", addresses=AddressAllocator("10.9"))
    with pytest.raises(ValueError):
        host.allocate_cores(0)


def test_host_repr(sim):
    host = PhysicalHost(sim, "h", "10.9.255.1", addresses=AddressAllocator("10.9"))
    assert "h" in repr(host)


def test_guest_os_cc_sets_are_disjoint_where_expected():
    assert "bbr" not in GuestOS.FREEBSD.available_cc
    assert "ctcp" not in GuestOS.LINUX.available_cc
    assert GuestOS.FREEBSD.default_cc in GuestOS.FREEBSD.available_cc


def test_rate_sample_defaults():
    sample = RateSample(newly_acked=100)
    assert sample.rtt is None
    assert not sample.ce_marked
    assert sample.delivered_total == 0


def test_vm_repr_and_ip_fallbacks(sim):
    from repro.host import NetworkMode, VM

    host = PhysicalHost(sim, "h", "10.9.255.1", addresses=AddressAllocator("10.9"))
    vm = VM(sim, "t", GuestOS.LINUX, host.allocate_cores(1), 1.0,
            NetworkMode.LEGACY)
    assert vm.ip is None  # nothing attached yet
    assert "legacy" in repr(vm)


def test_nsm_repr():
    from repro.experiments.common import make_lan_testbed
    from repro.netkernel import NsmSpec

    testbed = make_lan_testbed()
    nsm = testbed.hypervisor_a.boot_nsm(NsmSpec())
    assert "cubic" in repr(nsm)
    assert "vm" in repr(nsm)


def test_hypervisor_repr():
    from repro.experiments.common import make_lan_testbed

    testbed = make_lan_testbed()
    assert "hostA" in repr(testbed.hypervisor_a)


def test_interval_set_repr():
    from repro.tcp.intervals import IntervalSet

    ivs = IntervalSet()
    ivs.add(1, 5)
    assert "(1, 5)" in repr(ivs)


def test_hugechunk_repr(sim):
    from repro.host import MemcpyModel
    from repro.netkernel import HugePageRegion

    region = HugePageRegion(sim, MemcpyModel(), pages=1, page_size=8192)
    chunk = region.try_alloc(100)
    assert "100B" in repr(chunk)
    chunk.free()
    assert "freed" in repr(chunk)


def test_connection_repr():
    from conftest import make_linked_stacks
    from repro.net import Endpoint

    rig = make_linked_stacks()
    rig.stack_b.listen(5000)
    conn = rig.stack_a.connect(Endpoint("10.0.0.2", 5000))
    assert "cubic" in repr(conn)
