"""Host substrate: cores, memory model, machines, VMs."""

import pytest

from repro.host import (
    PAPER_TABLE1_POINTS,
    Core,
    CpuSet,
    GuestOS,
    MemcpyModel,
    NetworkMode,
    PhysicalHost,
    VM,
)
from repro.net import AddressAllocator
from repro.sim import Simulator


# ----------------------------------------------------------------------- Core --
def test_core_serializes_work(sim):
    core = Core(sim, "c0")
    finish_times = []
    core.execute(1.0).add_callback(lambda ev: finish_times.append(sim.now))
    core.execute(2.0).add_callback(lambda ev: finish_times.append(sim.now))
    sim.run()
    assert finish_times == [1.0, 3.0]


def test_core_busy_time_accumulates(sim):
    core = Core(sim, "c0")
    core.execute(0.5)
    core.execute(0.25)
    sim.run()
    assert core.busy_seconds == pytest.approx(0.75)
    assert core.ops == 2


def test_core_idle_gap_not_counted(sim):
    core = Core(sim, "c0")

    def body(sim):
        yield core.execute(1.0)
        yield sim.timeout(10.0)
        yield core.execute(1.0)

    sim.process(body(sim))
    sim.run()
    assert core.busy_seconds == pytest.approx(2.0)
    assert core.utilization() == pytest.approx(2.0 / 12.0)


def test_core_backlog_reported(sim):
    core = Core(sim, "c0")
    core.execute(5.0)
    behind = core.execute(1.0)  # queues behind the 5 s backlog
    sim.run()
    assert behind.processed and sim.now == pytest.approx(6.0)


def test_core_busy_poll_reports_full_utilization(sim):
    core = Core(sim, "c0")
    core.busy_poll = True
    sim.timeout(10.0)
    sim.run()
    assert core.utilization() == 1.0


def test_core_rejects_negative_cost(sim):
    with pytest.raises(ValueError):
        Core(sim).execute(-1.0)


def test_cpuset_utilization_averages(sim):
    cpus = CpuSet(sim, 2)
    cpus[0].execute(1.0)
    sim.run()
    sim.run(until=2.0)
    assert cpus.utilization() == pytest.approx(0.25)


# ---------------------------------------------------------------- MemcpyModel --
def test_memcpy_matches_every_table1_point():
    model = MemcpyModel()
    for size, latency_ns in PAPER_TABLE1_POINTS:
        assert model.copy_latency_ns(size) == pytest.approx(latency_ns)


def test_memcpy_interpolates_between_points():
    model = MemcpyModel()
    mid = model.copy_latency_ns(768)  # between 512 (64ns) and 1024 (117ns)
    assert 64 < mid < 117


def test_memcpy_extrapolates_above_8kb():
    model = MemcpyModel()
    assert model.copy_latency_ns(16384) > 809


def test_memcpy_monotonic():
    model = MemcpyModel()
    values = [model.copy_latency_ns(s) for s in range(64, 16384, 64)]
    assert values == sorted(values)


def test_memcpy_zero_bytes_is_free():
    assert MemcpyModel().copy_latency_ns(0) == 0.0


def test_memcpy_channel_throughput_matches_paper():
    """size/latency gives the paper's ~64 Gbps @64B and ~81 Gbps @8KB."""
    model = MemcpyModel()
    assert model.throughput_gbps(64) == pytest.approx(64.0, rel=0.01)
    assert model.throughput_gbps(8192) == pytest.approx(81.0, rel=0.01)


def test_memcpy_validates_calibration():
    with pytest.raises(ValueError):
        MemcpyModel(points=[(64, 8.0)])
    with pytest.raises(ValueError):
        MemcpyModel(points=[(64, 8.0), (64, 9.0)])
    with pytest.raises(ValueError):
        MemcpyModel(points=[(64, 0.0), (128, 9.0)])


# --------------------------------------------------------------- PhysicalHost --
def make_host(sim, **kwargs):
    return PhysicalHost(
        sim, "h0", "10.0.255.1", addresses=AddressAllocator("10.0"), **kwargs
    )


def test_host_reserve_memory_refuses_overcommit(sim):
    host = make_host(sim, memory_gb=10)
    host.reserve_memory(6)
    with pytest.raises(RuntimeError):
        host.reserve_memory(6)
    host.reserve_memory(4)


def test_host_core_allocation_skips_hypervisor_core(sim):
    host = make_host(sim, cores=4)
    allocated = host.allocate_cores(3)
    assert host.hypervisor_core not in allocated


def test_host_core_allocation_wraps(sim):
    host = make_host(sim, cores=3)
    allocated = host.allocate_cores(4)  # more than guest cores available
    assert len(allocated) == 4


def test_host_sriov_gives_embedded_switch(sim):
    host = make_host(sim, sriov=True)
    vf = host.create_vf("vf0")
    assert vf.ip in host.switch.table


def test_host_without_sriov_rejects_vf(sim):
    host = make_host(sim, sriov=False)
    with pytest.raises(RuntimeError):
        host.create_vf("vf0")
    host.create_vnic("vnic0")  # vNIC still fine


def test_host_nics_get_unique_addresses(sim):
    host = make_host(sim)
    a = host.create_vf("a")
    b = host.create_vf("b")
    assert a.ip != b.ip


# -------------------------------------------------------------------- GuestOS --
def test_windows_cannot_run_bbr_natively():
    assert "bbr" not in GuestOS.WINDOWS.available_cc
    assert GuestOS.WINDOWS.default_cc == "ctcp"


def test_linux_ships_bbr():
    assert "bbr" in GuestOS.LINUX.available_cc
    assert GuestOS.LINUX.default_cc == "cubic"


def test_vm_knows_native_cc_support(sim):
    host = make_host(sim)
    vm = VM(sim, "w", GuestOS.WINDOWS, host.allocate_cores(1), 2.0, NetworkMode.LEGACY)
    assert "bbr" not in vm.guest_os.available_cc
    assert "ctcp" in vm.guest_os.available_cc


def test_vm_requires_cores(sim):
    with pytest.raises(ValueError):
        VM(sim, "x", GuestOS.LINUX, [], 1.0, NetworkMode.LEGACY)
