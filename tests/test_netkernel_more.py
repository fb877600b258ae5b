"""Additional NetKernel coverage: GuestLib details, provisioning limits,
epoll over the NetKernel path, CoreEngine edge cases."""

import pytest

from repro.api import Epoll
from repro.experiments.common import make_lan_testbed
from repro.host.vm import GuestOS
from repro.netkernel import NsmForm, NsmSpec


def make_pair(**nsm_kwargs):
    testbed = make_lan_testbed()
    nsm_a = testbed.hypervisor_a.boot_nsm(NsmSpec(**nsm_kwargs))
    nsm_b = testbed.hypervisor_b.boot_nsm(NsmSpec(**nsm_kwargs))
    vm_a = testbed.hypervisor_a.boot_netkernel_vm("a", nsm_a)
    vm_b = testbed.hypervisor_b.boot_netkernel_vm("b", nsm_b)
    return testbed, vm_a, vm_b


def test_epoll_works_over_netkernel():
    testbed, vm_a, vm_b = make_pair()
    sim = testbed.sim
    observed = {}

    def server(sim):
        fd = yield vm_b.api.socket()
        yield vm_b.api.bind(fd, 5000)
        yield vm_b.api.listen(fd)
        epoll = Epoll(sim, vm_b.api)
        epoll.register(fd)
        # The epoll item itself waits in GuestLib's socket: no Event.
        assert vm_b.api._sockets[fd].watchers == [epoll._interest[fd]]
        ready = yield epoll.wait()
        observed["listener_ready"] = [f for f, _e in ready]
        conn_fd = yield vm_b.api.accept(fd)
        epoll2 = Epoll(sim, vm_b.api)
        epoll2.register(conn_fd)
        assert vm_b.api._sockets[conn_fd].watchers == [epoll2._interest[conn_fd]]
        ready = yield epoll2.wait()
        observed["data_ready"] = [f for f, _e in ready]
        n = yield vm_b.api.recv(conn_fd, 1000)
        observed["read"] = n

    def client(sim):
        from repro.net import Endpoint

        yield sim.timeout(0.01)
        fd = yield vm_a.api.socket()
        yield vm_a.api.connect(fd, Endpoint(vm_b.api.ip, 5000))
        yield sim.timeout(0.01)
        yield vm_a.api.send(fd, 500)

    sim.process(server(sim))
    sim.process(client(sim))
    sim.run(until=2.0)
    assert observed["listener_ready"]
    assert observed["data_ready"]
    assert observed["read"] == 500


def test_guestlib_partial_reads_consume_chunks():
    testbed, vm_a, vm_b = make_pair()
    sim = testbed.sim
    reads = []

    def server(sim):
        fd = yield vm_b.api.socket()
        yield vm_b.api.bind(fd, 5000)
        yield vm_b.api.listen(fd)
        conn_fd = yield vm_b.api.accept(fd)
        total = 0
        while total < 50_000:
            n = yield vm_b.api.recv(conn_fd, 777)  # odd-sized reads
            if n == 0:
                break
            assert n <= 777
            reads.append(n)
            total += n

    def client(sim):
        yield sim.timeout(0.01)
        fd = yield vm_a.api.socket()
        from repro.net import Endpoint

        yield vm_a.api.connect(fd, Endpoint(vm_b.api.ip, 5000))
        yield vm_a.api.send(fd, 50_000)

    sim.process(server(sim))
    sim.process(client(sim))
    sim.run(until=3.0)
    assert sum(reads) == 50_000


def test_recv_after_peer_close_returns_eof():
    testbed, vm_a, vm_b = make_pair()
    sim = testbed.sim
    out = {}

    def server(sim):
        fd = yield vm_b.api.socket()
        yield vm_b.api.bind(fd, 5000)
        yield vm_b.api.listen(fd)
        conn_fd = yield vm_b.api.accept(fd)
        n1 = yield vm_b.api.recv(conn_fd, 1 << 16)
        n2 = yield vm_b.api.recv(conn_fd, 1 << 16)
        out["reads"] = (n1, n2)

    def client(sim):
        yield sim.timeout(0.01)
        fd = yield vm_a.api.socket()
        from repro.net import Endpoint

        yield vm_a.api.connect(fd, Endpoint(vm_b.api.ip, 5000))
        yield vm_a.api.send(fd, 100)
        yield vm_a.api.close(fd)

    sim.process(server(sim))
    sim.process(client(sim))
    sim.run(until=3.0)
    assert out["reads"] == (100, 0)


def test_guestlib_calls_issued_counter():
    testbed, vm_a, _vm_b = make_pair()
    sim = testbed.sim

    def proc(sim):
        fd = yield vm_a.api.socket()
        yield vm_a.api.bind(fd, 1234)

    sim.process(proc(sim))
    sim.run(until=0.5)
    assert vm_a.api.calls_issued == 2  # SOCKET + BIND


# ------------------------------------------------------------- provisioning --
def test_legacy_boot_rejects_foreign_cc():
    testbed = make_lan_testbed()
    with pytest.raises(ValueError, match="windows"):
        testbed.hypervisor_a.boot_legacy_vm(
            "w", guest_os=GuestOS.WINDOWS, congestion_control="bbr"
        )


def test_boot_exhausts_host_memory():
    testbed = make_lan_testbed()
    testbed.hypervisor_a.boot_legacy_vm("big", memory_gb=150.0)
    with pytest.raises(RuntimeError, match="out of memory"):
        testbed.hypervisor_a.boot_legacy_vm("big2", memory_gb=150.0)


def test_nsm_form_memory_reserved_on_host():
    testbed = make_lan_testbed()
    before = testbed.host_a._memory_used_gb
    testbed.hypervisor_a.boot_nsm(NsmSpec(form=NsmForm.CONTAINER))
    assert testbed.host_a._memory_used_gb == before + NsmForm.CONTAINER.memory_gb


def test_find_shared_nsm_matches_cc_and_capacity():
    testbed = make_lan_testbed()
    hv = testbed.hypervisor_a
    assert hv.find_shared_nsm("cubic") is None
    nsm = hv.boot_nsm(NsmSpec(congestion_control="cubic", max_tenants=1))
    assert hv.find_shared_nsm("cubic") is nsm
    assert hv.find_shared_nsm("bbr") is None
    hv.boot_netkernel_vm("t", nsm)
    assert hv.find_shared_nsm("cubic") is None  # at capacity


def test_nsm_spec_validation():
    with pytest.raises(ValueError):
        NsmSpec(cores=0)
    with pytest.raises(ValueError):
        NsmSpec(max_tenants=0)
    with pytest.raises(ValueError):
        NsmSpec(rx_chunk_bytes=100)


# --------------------------------------------------------------- CoreEngine --
def test_coreengine_counts_nqe_copies():
    testbed, vm_a, vm_b = make_pair()
    sim = testbed.sim

    def proc(sim):
        fd = yield vm_a.api.socket()
        yield vm_a.api.bind(fd, 9000)

    sim.process(proc(sim))
    sim.run(until=0.5)
    assert testbed.hypervisor_a.coreengine.nqes_copied >= 3


def test_vm_attachment_lookup():
    testbed, vm_a, _ = make_pair()
    ce = testbed.hypervisor_a.coreengine
    attachment = ce.attachment_of(vm_a.vm_id)
    assert attachment.guestlib is vm_a.api
    assert len(ce._vms) == 1


# -------------------------------------------------- multi-queue ServiceLib --
def test_multiqueue_servicelib_preserves_per_connection_order():
    """cID-sharded workers must never dispatch CONNECT before SOCKET etc.;
    a burst of short connections exercises the ordering end to end."""
    from repro.apps import WebClient, WebServer
    from repro.net import Endpoint

    testbed = make_lan_testbed()
    sim = testbed.sim
    spec = NsmSpec(cores=4, servicelib_workers=4)
    nsm_a = testbed.hypervisor_a.boot_nsm(spec)
    nsm_b = testbed.hypervisor_b.boot_nsm(NsmSpec(cores=4, servicelib_workers=4))
    vm_a = testbed.hypervisor_a.boot_netkernel_vm("c", nsm_a, vcpus=4)
    vm_b = testbed.hypervisor_b.boot_netkernel_vm("s", nsm_b, vcpus=4)
    WebServer(sim, vm_b.api, port=80, response_bytes=2048)
    clients = [
        WebClient(sim, vm_a.api, Endpoint(vm_b.api.ip, 80),
                  response_bytes=2048, max_requests=20, start_delay=0.01)
        for _ in range(8)
    ]
    sim.run(until=2.0)
    assert all(c.completed == 20 for c in clients)


def test_multiqueue_servicelib_uses_all_cores():
    from repro.apps import WebClient, WebServer
    from repro.net import Endpoint

    testbed = make_lan_testbed()
    sim = testbed.sim
    nsm_b = testbed.hypervisor_b.boot_nsm(NsmSpec(cores=2, servicelib_workers=2))
    nsm_a = testbed.hypervisor_a.boot_nsm(NsmSpec())
    vm_a = testbed.hypervisor_a.boot_netkernel_vm("c", nsm_a, vcpus=4)
    vm_b = testbed.hypervisor_b.boot_netkernel_vm("s", nsm_b, vcpus=4)
    WebServer(sim, vm_b.api, port=80, response_bytes=1024)
    for i in range(8):
        WebClient(sim, vm_a.api, Endpoint(vm_b.api.ip, 80),
                  response_bytes=1024, start_delay=0.01)
    sim.run(until=0.3)
    busy = [core.busy_seconds for core in nsm_b.cores]
    assert all(b > 0 for b in busy)


def test_servicelib_workers_validation():
    import pytest as _pytest

    with _pytest.raises(ValueError):
        NsmSpec(servicelib_workers=0)
    with _pytest.raises(ValueError):
        NsmSpec(cores=1, servicelib_workers=2)
