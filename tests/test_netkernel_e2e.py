"""NetKernel end-to-end: GuestLib -> CoreEngine -> ServiceLib -> stack.

These exercise the full §3.2 op flows over a real two-host testbed.
"""

import pytest

from repro.api.errors import SocketError
from repro.experiments.common import make_lan_testbed
from repro.host.vm import GuestOS, NetworkMode
from repro.net import Endpoint
from repro.netkernel import CoreEngineConfig, NotifyMode, NsmForm, NsmSpec


def make_rig(cc="cubic", ce_config=None, nsm_kwargs=None, guest_os=GuestOS.LINUX):
    testbed = make_lan_testbed(coreengine_config=ce_config)
    kwargs = dict(congestion_control=cc)
    kwargs.update(nsm_kwargs or {})
    nsm_a = testbed.hypervisor_a.boot_nsm(NsmSpec(**kwargs))
    nsm_b = testbed.hypervisor_b.boot_nsm(NsmSpec(**kwargs))
    vm_a = testbed.hypervisor_a.boot_netkernel_vm("client", nsm_a, guest_os=guest_os)
    vm_b = testbed.hypervisor_b.boot_netkernel_vm("server", nsm_b, guest_os=guest_os)
    return testbed, vm_a, vm_b, nsm_a, nsm_b


def run_echo(testbed, api_a, api_b, payload=10_000, port=5000):
    """Server echoes payload size back; returns dict of observations."""
    out = {}

    def server(sim):
        fd = yield api_b.socket()
        yield api_b.bind(fd, port)
        yield api_b.listen(fd)
        conn_fd = yield api_b.accept(fd)
        got = 0
        while got < payload:
            n = yield api_b.recv(conn_fd, payload)
            if n == 0:
                break
            got += n
        out["server_got"] = got
        yield api_b.send(conn_fd, payload)
        yield api_b.close(conn_fd)

    def client(sim):
        yield sim.timeout(0.01)  # let the server finish bind/listen
        fd = yield api_a.socket()
        yield api_a.connect(fd, Endpoint(api_b.ip, port))
        yield api_a.send(fd, payload)
        got = 0
        while got < payload:
            n = yield api_a.recv(fd, payload)
            if n == 0:
                break
            got += n
        out["client_got"] = got
        yield api_a.close(fd)
        out["done_at"] = sim.now

    testbed.sim.process(server(testbed.sim))
    testbed.sim.process(client(testbed.sim))
    testbed.sim.run(until=testbed.sim.now + 5.0)
    return out


def test_full_echo_roundtrip():
    testbed, vm_a, vm_b, *_ = make_rig()
    out = run_echo(testbed, vm_a.api, vm_b.api)
    assert out["server_got"] == 10_000
    assert out["client_got"] == 10_000


def test_socket_fd_assigned_by_coreengine():
    testbed, vm_a, *_ = make_rig()
    fds = []

    def proc(sim):
        for _ in range(3):
            fd = yield vm_a.api.socket()
            fds.append(fd)

    testbed.sim.process(proc(testbed.sim))
    testbed.sim.run(until=1.0)
    assert fds == [3, 4, 5]


def test_connection_table_populated_and_cleaned():
    testbed, vm_a, vm_b, *_ = make_rig()
    ce_a = testbed.hypervisor_a.coreengine
    assert len(ce_a.table) == 0
    out = run_echo(testbed, vm_a.api, vm_b.api)
    assert out["client_got"] == 10_000
    testbed.sim.run(until=testbed.sim.now + 2.0)
    # The client's data socket was closed: its mapping is gone.
    assert len(ce_a.table) == 0


def test_guest_has_no_nic_vm_identity_is_nsm_ip():
    testbed, vm_a, _vm_b, nsm_a, _ = make_rig()
    assert vm_a.mode is NetworkMode.NETKERNEL
    assert vm_a.api.ip == nsm_a.ip
    assert vm_a.guest_stack is None  # §2.2: no stack, no NIC in the guest


def test_windows_vm_uses_bbr_via_nsm():
    """The paper's §4.3 headline: a Windows guest runs BBR."""
    testbed, vm_a, vm_b, nsm_a, _ = make_rig(cc="bbr", guest_os=GuestOS.WINDOWS)
    assert "bbr" not in vm_a.guest_os.available_cc  # kernel says no...
    out = run_echo(testbed, vm_a.api, vm_b.api)
    assert out["client_got"] == 10_000  # ...NetKernel says yes
    assert nsm_a.spec.congestion_control == "bbr"


def test_setsockopt_selects_cc_in_nsm():
    testbed, vm_a, vm_b, nsm_a, _ = make_rig(cc="cubic")
    result = {}

    def proc(sim):
        fd = yield vm_a.api.socket()
        yield vm_a.api.setsockopt_event(fd, "bbr")
        yield vm_a.api.connect(fd, Endpoint(vm_b.api.ip, 7000))

    def server(sim):
        fd = yield vm_b.api.socket()
        yield vm_b.api.bind(fd, 7000)
        yield vm_b.api.listen(fd)
        yield vm_b.api.accept(fd)

    testbed.sim.process(server(testbed.sim))
    testbed.sim.process(proc(testbed.sim))
    testbed.sim.run(until=2.0)
    # The NSM-side connection must be running BBR.
    conns = list(nsm_a.stack._connections.values())
    assert len(conns) == 1
    assert conns[0].cc.name == "bbr"


def test_setsockopt_unknown_cc_fails():
    testbed, vm_a, *_ = make_rig()
    outcome = {}

    def proc(sim):
        fd = yield vm_a.api.socket()
        try:
            yield vm_a.api.setsockopt_event(fd, "warp-speed")
        except SocketError as exc:
            outcome["error"] = str(exc)

    testbed.sim.process(proc(testbed.sim))
    testbed.sim.run(until=1.0)
    assert "warp-speed" in outcome["error"]


def test_listen_before_bind_fails():
    testbed, vm_a, *_ = make_rig()
    outcome = {}

    def proc(sim):
        fd = yield vm_a.api.socket()
        try:
            yield vm_a.api.listen(fd)
        except SocketError as exc:
            outcome["error"] = str(exc)

    testbed.sim.process(proc(testbed.sim))
    testbed.sim.run(until=1.0)
    assert "bind" in outcome["error"]


def test_send_on_unconnected_fd_fails():
    testbed, vm_a, *_ = make_rig()
    outcome = {}

    def proc(sim):
        fd = yield vm_a.api.socket()
        try:
            yield vm_a.api.send(fd, 100)
        except SocketError as exc:
            outcome["error"] = str(exc)

    testbed.sim.process(proc(testbed.sim))
    testbed.sim.run(until=1.0)
    assert "error" in outcome


def test_port_collision_between_tenants_on_shared_nsm():
    """Two tenants multiplexed on one NSM share its port space."""
    testbed = make_lan_testbed()
    nsm = testbed.hypervisor_b.boot_nsm(
        NsmSpec(congestion_control="cubic", max_tenants=2)
    )
    vm1 = testbed.hypervisor_b.boot_netkernel_vm("t1", nsm)
    vm2 = testbed.hypervisor_b.boot_netkernel_vm("t2", nsm)
    outcome = {}

    def listener(api, key):
        def proc(sim):
            fd = yield api.socket()
            yield api.bind(fd, 8080)
            try:
                yield api.listen(fd)
                outcome[key] = "ok"
            except SocketError:
                outcome[key] = "collision"
        return proc

    testbed.sim.process(listener(vm1.api, "first")(testbed.sim))
    testbed.sim.process(listener(vm2.api, "second")(testbed.sim))
    testbed.sim.run(until=1.0)
    assert outcome["first"] == "ok"
    assert outcome["second"] == "collision"


def test_multiplexed_tenants_transfer_concurrently():
    testbed = make_lan_testbed()
    nsm_tx = testbed.hypervisor_a.boot_nsm(
        NsmSpec(congestion_control="cubic", max_tenants=2)
    )
    nsm_rx = testbed.hypervisor_b.boot_nsm(
        NsmSpec(congestion_control="cubic", max_tenants=2)
    )
    tx1 = testbed.hypervisor_a.boot_netkernel_vm("tx1", nsm_tx)
    tx2 = testbed.hypervisor_a.boot_netkernel_vm("tx2", nsm_tx)
    rx1 = testbed.hypervisor_b.boot_netkernel_vm("rx1", nsm_rx)
    rx2 = testbed.hypervisor_b.boot_netkernel_vm("rx2", nsm_rx)
    out1 = run_echo(testbed, tx1.api, rx1.api, payload=5_000, port=5001)
    out2 = run_echo(testbed, tx2.api, rx2.api, payload=6_000, port=5002)
    assert out1["client_got"] == 5_000
    assert out2["client_got"] == 6_000


def test_nsm_tenant_capacity_enforced():
    testbed = make_lan_testbed()
    nsm = testbed.hypervisor_a.boot_nsm(NsmSpec(max_tenants=1))
    testbed.hypervisor_a.boot_netkernel_vm("t1", nsm)
    with pytest.raises(RuntimeError):
        testbed.hypervisor_a.boot_netkernel_vm("t2", nsm)


@pytest.mark.parametrize("form", [NsmForm.VM, NsmForm.CONTAINER, NsmForm.HYPERVISOR_MODULE])
def test_every_nsm_form_carries_traffic(form):
    testbed, vm_a, vm_b, *_ = make_rig(nsm_kwargs={"form": form})
    out = run_echo(testbed, vm_a.api, vm_b.api, payload=20_000)
    assert out["client_got"] == 20_000


def test_batched_interrupt_mode_end_to_end():
    config = CoreEngineConfig(notify_mode=NotifyMode.BATCHED_INTERRUPT)
    testbed, vm_a, vm_b, *_ = make_rig(ce_config=config)
    out = run_echo(testbed, vm_a.api, vm_b.api)
    assert out["client_got"] == 10_000


def _interrupt_rpc(servicelib_workers):
    """RPC p50 latency and server-NSM core-0 CPU per RPC, under interrupts."""
    from repro.apps.rpc import RpcClient, RpcServer

    config = CoreEngineConfig(notify_mode=NotifyMode.BATCHED_INTERRUPT)
    testbed, vm_a, vm_b, _, nsm_b = make_rig(
        ce_config=config,
        nsm_kwargs={"cores": 2, "servicelib_workers": servicelib_workers},
    )
    sim = testbed.sim
    RpcServer(sim, vm_b.api, port=7000)
    client = RpcClient(sim, vm_a.api, Endpoint(vm_b.api.ip, 7000), start_delay=0.005)
    sim.run(until=0.05)
    assert client.completed > 100
    return client.latency.p(50), nsm_b.cores[0].busy_seconds / client.completed


def test_multi_queue_servicelib_pays_the_interrupt_wake():
    """A multi-queue ServiceLib's classifier takes the same soft interrupt
    as the single-queue consumer: one ``INTERRUPT_DELAY`` and one wake
    charge per doorbell, on each of the two NSMs an RPC crosses."""
    from repro.netkernel.queues import INTERRUPT_COST_NS, INTERRUPT_DELAY

    single_p50, single_cpu = _interrupt_rpc(1)
    multi_p50, multi_cpu = _interrupt_rpc(2)
    # Free interrupts would make the multi-queue NSMs ~2 x 12 us faster.
    assert multi_p50 > single_p50 - INTERRUPT_DELAY / 10
    assert multi_cpu > single_cpu - INTERRUPT_COST_NS * 1e-9 / 10


def test_priority_queue_mode_end_to_end():
    config = CoreEngineConfig(priority_queues=True)
    testbed, vm_a, vm_b, *_ = make_rig(ce_config=config)
    out = run_echo(testbed, vm_a.api, vm_b.api)
    assert out["client_got"] == 10_000


def test_inline_rx_copy_mode_end_to_end():
    config = CoreEngineConfig(inline_rx_copy=True)
    testbed, vm_a, vm_b, *_ = make_rig(ce_config=config)
    out = run_echo(testbed, vm_a.api, vm_b.api)
    assert out["client_got"] == 10_000


def test_hugepage_chunks_all_freed_after_transfer():
    testbed, vm_a, vm_b, *_ = make_rig()
    out = run_echo(testbed, vm_a.api, vm_b.api, payload=100_000)
    assert out["client_got"] == 100_000
    testbed.sim.run(until=testbed.sim.now + 2.0)
    ce_a = testbed.hypervisor_a.coreengine
    ce_b = testbed.hypervisor_b.coreengine
    for ce in (ce_a, ce_b):
        for attachment in ce._vms.values():
            assert attachment.region.used == 0


def test_legacy_and_netkernel_interoperate():
    """A NetKernel VM talks to a legacy VM: it is all just TCP on the wire."""
    testbed = make_lan_testbed()
    nsm = testbed.hypervisor_a.boot_nsm(NsmSpec(congestion_control="cubic"))
    nk_vm = testbed.hypervisor_a.boot_netkernel_vm("nk", nsm)
    legacy_vm = testbed.hypervisor_b.boot_legacy_vm("legacy")
    out = run_echo(testbed, nk_vm.api, legacy_vm.api, payload=30_000)
    assert out["client_got"] == 30_000
