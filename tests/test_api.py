"""Tenant socket API: kernel implementation, epoll, API parity.

The parity tests are the compatibility claim of the paper: one application
body runs unchanged against both the legacy and the NetKernel API.
"""

import gc

import pytest

from repro.api import (
    EPOLLIN,
    AddressInUse,
    BadFileDescriptor,
    Epoll,
    InvalidSocketState,
    KernelSocketApi,
    UnsupportedCongestionControl,
)
from repro.experiments.common import make_lan_testbed
from repro.host.vm import GuestOS
from repro.net import Endpoint
from repro.netkernel import NsmSpec
from repro.sim import Event
from repro.tcp import TcpConnection, TcpState

from conftest import make_linked_stacks


def make_kernel_apis(cc_set=None):
    rig = make_linked_stacks()
    api_a = KernelSocketApi(rig.sim, rig.stack_a, available_cc=cc_set)
    api_b = KernelSocketApi(rig.sim, rig.stack_b, available_cc=cc_set)
    return rig, api_a, api_b


def test_socket_returns_increasing_fds():
    rig, api, _ = make_kernel_apis()
    fds = []

    def proc(sim):
        for _ in range(3):
            fd = yield api.socket()
            fds.append(fd)

    rig.sim.process(proc(rig.sim))
    rig.run(until=0.1)
    assert fds == [3, 4, 5]


def test_bad_fd_raises():
    rig, api, _ = make_kernel_apis()
    with pytest.raises(BadFileDescriptor):
        api.send(99, 10)


def test_bind_collision_raises():
    rig, api, _ = make_kernel_apis()
    done = {}

    def proc(sim):
        fd1 = yield api.socket()
        fd2 = yield api.socket()
        yield api.bind(fd1, 80)
        try:
            yield api.bind(fd2, 80)
        except AddressInUse:
            done["collision"] = True

    rig.sim.process(proc(rig.sim))
    rig.run(until=0.1)
    assert done.get("collision")


def test_listen_requires_bind():
    rig, api, _ = make_kernel_apis()
    done = {}

    def proc(sim):
        fd = yield api.socket()
        try:
            yield api.listen(fd)
        except InvalidSocketState:
            done["raised"] = True

    rig.sim.process(proc(rig.sim))
    rig.run(until=0.1)
    assert done.get("raised")


def test_kernel_api_enforces_guest_cc_restrictions():
    """Windows (ctcp/reno only): requesting BBR fails like the real kernel."""
    rig, api, _ = make_kernel_apis(cc_set=GuestOS.WINDOWS.available_cc)
    done = {}

    def proc(sim):
        fd = yield api.socket()
        try:
            api.set_congestion_control(fd, "bbr")
        except UnsupportedCongestionControl:
            done["refused"] = True
        api.set_congestion_control(fd, "ctcp")  # the native default works

    rig.sim.process(proc(rig.sim))
    rig.run(until=0.1)
    assert done.get("refused")


def test_set_cc_after_connect_rejected():
    rig, api_a, api_b = make_kernel_apis()
    done = {}

    def server(sim):
        fd = yield api_b.socket()
        yield api_b.bind(fd, 5000)
        yield api_b.listen(fd)
        yield api_b.accept(fd)

    def client(sim):
        fd = yield api_a.socket()
        yield api_a.connect(fd, Endpoint("10.0.0.2", 5000))
        try:
            api_a.set_congestion_control(fd, "reno")
        except InvalidSocketState:
            done["raised"] = True

    rig.sim.process(server(rig.sim))
    rig.sim.process(client(rig.sim))
    rig.run(until=1.0)
    assert done.get("raised")


def echo_app(sim, api_server, api_client, server_ip, payload, out):
    """One app body used against BOTH API implementations (parity check)."""

    def server(s):
        fd = yield api_server.socket()
        yield api_server.bind(fd, 6000)
        yield api_server.listen(fd)
        conn = yield api_server.accept(fd)
        got = 0
        while got < payload:
            n = yield api_server.recv(conn, payload)
            if n == 0:
                break
            got += n
        yield api_server.send(conn, got)
        yield api_server.close(conn)

    def client(s):
        yield s.timeout(0.01)
        fd = yield api_client.socket()
        yield api_client.connect(fd, Endpoint(server_ip, 6000))
        yield api_client.send(fd, payload)
        got = 0
        while got < payload:
            n = yield api_client.recv(fd, payload)
            if n == 0:
                break
            got += n
        out["echoed"] = got
        yield api_client.close(fd)

    sim.process(server(sim))
    sim.process(client(sim))


def test_api_parity_same_app_on_kernel_api():
    rig, api_a, api_b = make_kernel_apis()
    out = {}
    echo_app(rig.sim, api_b, api_a, "10.0.0.2", 10_000, out)
    rig.run(until=10.0)
    assert out["echoed"] == 10_000


def test_api_parity_same_app_on_netkernel_api():
    testbed = make_lan_testbed()
    nsm_a = testbed.hypervisor_a.boot_nsm(NsmSpec())
    nsm_b = testbed.hypervisor_b.boot_nsm(NsmSpec())
    vm_a = testbed.hypervisor_a.boot_netkernel_vm("a", nsm_a)
    vm_b = testbed.hypervisor_b.boot_netkernel_vm("b", nsm_b)
    out = {}
    echo_app(testbed.sim, vm_b.api, vm_a.api, vm_b.api.ip, 10_000, out)
    testbed.sim.run(until=10.0)
    assert out["echoed"] == 10_000


# ---------------------------------------------------------------------- epoll --
def test_epoll_reports_readable_connection():
    rig, api_a, api_b = make_kernel_apis()
    ready_fds = []

    def server(sim):
        fd = yield api_b.socket()
        yield api_b.bind(fd, 5000)
        yield api_b.listen(fd)
        conn = yield api_b.accept(fd)
        epoll = Epoll(sim, api_b)
        epoll.register(conn)
        ready = yield epoll.wait()
        ready_fds.extend(fd for fd, _ev in ready)

    def client(sim):
        fd = yield api_a.socket()
        yield api_a.connect(fd, Endpoint("10.0.0.2", 5000))
        yield sim.timeout(0.5)
        yield api_a.send(fd, 100)

    rig.sim.process(server(rig.sim))
    rig.sim.process(client(rig.sim))
    rig.run(until=5.0)
    assert len(ready_fds) == 1


def test_epoll_reports_pending_accept():
    rig, api_a, api_b = make_kernel_apis()
    observed = {}

    def server(sim):
        fd = yield api_b.socket()
        yield api_b.bind(fd, 5000)
        yield api_b.listen(fd)
        epoll = Epoll(sim, api_b)
        epoll.register(fd)
        ready = yield epoll.wait()
        observed["ready"] = ready
        conn = yield api_b.accept(fd)
        observed["accepted"] = conn

    def client(sim):
        fd = yield api_a.socket()
        yield api_a.connect(fd, Endpoint("10.0.0.2", 5000))

    rig.sim.process(server(rig.sim))
    rig.sim.process(client(rig.sim))
    rig.run(until=5.0)
    assert observed["ready"][0][1] == EPOLLIN
    assert "accepted" in observed


def test_epoll_level_triggered_immediate():
    rig, api_a, api_b = make_kernel_apis()
    out = {}

    def server(sim):
        fd = yield api_b.socket()
        yield api_b.bind(fd, 5000)
        yield api_b.listen(fd)
        conn = yield api_b.accept(fd)
        yield sim.timeout(1.0)  # data has already arrived by now
        epoll = Epoll(sim, api_b)
        epoll.register(conn)
        waited_at = sim.now
        ready = yield epoll.wait()
        out["delay"] = sim.now - waited_at

    def client(sim):
        fd = yield api_a.socket()
        yield api_a.connect(fd, Endpoint("10.0.0.2", 5000))
        yield api_a.send(fd, 100)

    rig.sim.process(server(rig.sim))
    rig.sim.process(client(rig.sim))
    rig.run(until=5.0)
    assert out["delay"] == 0.0


def test_epoll_unregister_and_empty_wait():
    rig, _api_a, api_b = make_kernel_apis()
    epoll = Epoll(rig.sim, api_b)
    with pytest.raises(RuntimeError):
        epoll.wait()
    with pytest.raises(BadFileDescriptor):
        epoll.unregister(3)
    with pytest.raises(ValueError):
        epoll.register(3, events=0x4)


def test_epoll_level_triggered_until_drained():
    """A partially-read fd reports ready on every wait until drained."""
    rig, api_a, api_b = make_kernel_apis()
    out = {"ready_rounds": 0, "blocked_delay": None}

    def server(sim):
        fd = yield api_b.socket()
        yield api_b.bind(fd, 5000)
        yield api_b.listen(fd)
        conn = yield api_b.accept(fd)
        epoll = Epoll(sim, api_b)
        epoll.register(conn)
        yield sim.timeout(1.0)  # 300 bytes are in the receive buffer now
        for _ in range(3):  # drain in 100-byte bites: 3 level-triggered hits
            ready = yield epoll.wait()
            assert ready == [(conn, EPOLLIN)]
            out["ready_rounds"] += 1
            yield api_b.recv(conn, 100)
        waited_at = sim.now
        ready = yield epoll.wait()  # drained: blocks until the next send
        out["blocked_delay"] = sim.now - waited_at
        assert ready == [(conn, EPOLLIN)]

    def client(sim):
        fd = yield api_a.socket()
        yield api_a.connect(fd, Endpoint("10.0.0.2", 5000))
        yield api_a.send(fd, 300)
        yield sim.timeout(2.0)
        yield api_a.send(fd, 50)

    rig.sim.process(server(rig.sim))
    rig.sim.process(client(rig.sim))
    rig.run(until=5.0)
    assert out["ready_rounds"] == 3
    assert out["blocked_delay"] is not None and out["blocked_delay"] > 0


def test_epoll_no_spurious_wakeups_across_many_idle_fds():
    """wait() reports only fds with data — idle registrations stay silent."""
    rig, api_a, api_b = make_kernel_apis()
    out = {}

    def server(sim):
        fd = yield api_b.socket()
        yield api_b.bind(fd, 5000)
        yield api_b.listen(fd)
        epoll = Epoll(sim, api_b)
        conns = []
        for _ in range(8):
            conn = yield api_b.accept(fd)
            conns.append(conn)
            epoll.register(conn)
        ready = yield epoll.wait()
        out["ready"] = ready
        out["expected"] = conns[3]

    def client(sim):
        fds = []
        for _ in range(8):
            fd = yield api_a.socket()
            yield api_a.connect(fd, Endpoint("10.0.0.2", 5000))
            fds.append(fd)
        yield sim.timeout(0.5)
        yield api_a.send(fds[3], 64)  # exactly one fd becomes readable

    rig.sim.process(server(rig.sim))
    rig.sim.process(client(rig.sim))
    rig.run(until=5.0)
    assert out["ready"] == [(out["expected"], EPOLLIN)]


def test_epoll_unregister_while_armed_discards_late_readiness():
    """Data arriving after unregister must not mark the dead fd ready."""
    rig, api_a, api_b = make_kernel_apis()
    out = {}

    def server(sim):
        fd = yield api_b.socket()
        yield api_b.bind(fd, 5000)
        yield api_b.listen(fd)
        conn_a = yield api_b.accept(fd)
        conn_b = yield api_b.accept(fd)
        epoll = Epoll(sim, api_b)
        epoll.register(conn_a)  # unready: leaves an armed waiter behind
        epoll.register(conn_b)
        epoll.unregister(conn_a)
        ready = yield epoll.wait()  # data later lands on BOTH conns
        out["ready"] = ready
        out["conn_b"] = conn_b

    def client(sim):
        fds = []
        for _ in range(2):
            fd = yield api_a.socket()
            yield api_a.connect(fd, Endpoint("10.0.0.2", 5000))
            fds.append(fd)
        yield sim.timeout(0.5)
        yield api_a.send(fds[0], 64)
        yield api_a.send(fds[1], 64)

    rig.sim.process(server(rig.sim))
    rig.sim.process(client(rig.sim))
    rig.run(until=5.0)
    assert out["ready"] == [(out["conn_b"], EPOLLIN)]


def test_epoll_wait_reentry_raises():
    rig, _api_a, api_b = make_kernel_apis()
    failures = []

    def server(sim):
        fd = yield api_b.socket()
        yield api_b.bind(fd, 5000)
        yield api_b.listen(fd)
        epoll = Epoll(sim, api_b)
        epoll.register(fd)
        epoll.wait()  # parks: nothing is connecting
        try:
            epoll.wait()
        except RuntimeError as exc:
            failures.append(str(exc))

    rig.sim.process(server(rig.sim))
    rig.run(until=1.0)
    assert failures and "re-entered" in failures[0]


def test_epoll_wait_cost_scales_with_ready_not_registered():
    """O(ready) guarantee: idle registrations add no per-wait event churn.

    With N idle connections registered and one active flow, the number of
    simulator events per served message must not grow with N — the old
    implementation armed one waiter per registered fd per wait and paid
    ~N events per wakeup (quadratic over a run).
    """
    costs = {}
    for idle in (4, 32):
        rig, api_a, api_b = make_kernel_apis()
        served = []

        def server(sim, api_b=api_b, served=served):
            fd = yield api_b.socket()
            yield api_b.bind(fd, 5000)
            yield api_b.listen(fd)
            epoll = Epoll(sim, api_b)
            conns = []
            for _ in range(idle + 1):
                conn = yield api_b.accept(fd)
                conns.append(conn)
                epoll.register(conn)
            while True:
                ready = yield epoll.wait()
                for conn, _ev in ready:
                    got = yield api_b.recv(conn, 1 << 20)
                    served.append(got)

        def client(sim, api_a=api_a, idle=idle):
            fds = []
            for _ in range(idle + 1):
                fd = yield api_a.socket()
                yield api_a.connect(fd, Endpoint("10.0.0.2", 5000))
                fds.append(fd)
            yield sim.timeout(1.0 - sim.now)  # fixed schedule across Ns
            for _ in range(20):
                yield sim.timeout(0.05)
                yield api_a.send(fds[0], 256)

        rig.sim.process(server(rig.sim))
        rig.sim.process(client(rig.sim))
        # Steady state only: messages 6..20 land in (1.3, 2.1].  Setup of
        # N idle fds is a legitimate O(N) one-time cost and must not count.
        rig.run(until=1.3)
        assert len(served) == 5, served
        setup_events = rig.sim.events_processed
        rig.run(until=2.1)
        assert len(served) == 20, served
        costs[idle] = (rig.sim.events_processed - setup_events) / 15
    # 8x the idle fds must not inflate per-message event cost by even 50%.
    assert costs[32] < costs[4] * 1.5, costs


def test_connect_refused_raises_api_level_reset():
    """A peer resetting the handshake surfaces as *api* ConnectionReset.

    The TCP layer fails the established event with its own reset class
    (not a SocketError); the API boundary must translate it, or apps
    programmed against ``except SocketError`` crash on connect-time
    resets — found by chaos fuzz, where a client reconnecting into a
    mid-failover server died instead of retrying.
    """
    from repro.api import ConnectionReset, SocketError

    rig, api_a, _ = make_kernel_apis()
    caught = []

    def client(sim):
        fd = yield api_a.socket()
        try:
            yield api_a.connect(fd, Endpoint("10.0.0.2", 9999))  # closed port
        except SocketError as exc:
            caught.append(exc)

    rig.sim.process(client(rig.sim))
    rig.run(until=2.0)
    assert len(caught) == 1
    assert isinstance(caught[0], ConnectionReset)


# -------------------------------------------------------------- the fd table --
def connected_fds(api_a, api_b, bind_client=None):
    """One connection from ``api_a`` to a listener on ``api_b``: returns
    ``{"listen": fd, "client": fd, "accepted": fd}`` once both ends are
    established.  ``bind_client`` binds the client's fd first."""
    fds = {}

    def server(sim):
        fd = fds["listen"] = yield api_b.socket()
        yield api_b.bind(fd, 5000)
        yield api_b.listen(fd)
        fds["accepted"] = yield api_b.accept(fd)

    def client(sim):
        fd = yield api_a.socket()
        if bind_client is not None:
            yield api_a.bind(fd, bind_client)
        yield api_a.connect(fd, Endpoint("10.0.0.2", 5000))
        fds["client"] = fd

    api_a.sim.process(server(api_a.sim))
    api_a.sim.process(client(api_a.sim))
    api_a.sim.run(until=api_a.sim.now + 0.5)
    assert set(fds) == {"listen", "client", "accepted"}
    return fds


def test_connected_and_accepted_fds_map_to_their_connection():
    """The fd table holds a connected fd's connection itself: no
    per-fd socket record beside it."""
    rig, api_a, api_b = make_kernel_apis()
    fds = connected_fds(api_a, api_b)
    client, accepted = api_a._fds[fds["client"]], api_b._fds[fds["accepted"]]
    assert type(client) is TcpConnection and type(accepted) is TcpConnection
    assert client.state is accepted.state is TcpState.ESTABLISHED
    assert accepted.local.port == 5000 and client.remote.port == 5000
    assert type(api_b._fds[fds["listen"]]) is not TcpConnection


def test_a_bound_then_connected_fd_releases_its_port_on_close():
    rig, api_a, api_b = make_kernel_apis()
    fds = connected_fds(api_a, api_b, bind_client=7000)
    conn = api_a._fds[fds["client"]]
    assert type(conn) is TcpConnection and conn.local.port == 7000
    assert api_a._bound_ports == {7000: fds["client"]}
    api_a.close(fds["client"])
    assert api_a._bound_ports == {} and conn.state is TcpState.FIN_WAIT_1
    fd = value_of(rig, api_a.socket())
    api_a.bind(fd, 7000)  # the port is free again
    with pytest.raises(AddressInUse):
        api_a.bind(value_of(rig, api_a.socket()), 7000)


def value_of(rig, event):
    rig.run(until=rig.sim.now + 1e-6)
    return event.value


@pytest.mark.parametrize("which", ["idle", "bound", "listen"])
def test_send_and_recv_on_an_unconnected_fd_raise(which):
    rig, api_a, api_b = make_kernel_apis()
    fds = connected_fds(api_a, api_b)
    fd = fds["listen"] if which == "listen" else value_of(rig, api_b.socket())
    if which == "bound":
        api_b.bind(fd, 6000)
    with pytest.raises(InvalidSocketState):
        api_b.send(fd, 10)
    with pytest.raises(InvalidSocketState):
        api_b.recv(fd, 10)


@pytest.mark.parametrize("bind_client", [None, 7000], ids=["unbound", "bound"])
def test_set_congestion_control_after_connect_or_accept_raises(bind_client):
    rig, api_a, api_b = make_kernel_apis()
    fds = connected_fds(api_a, api_b, bind_client=bind_client)
    for api, fd in ((api_a, fds["client"]), (api_b, fds["accepted"])):
        with pytest.raises(InvalidSocketState):
            api.set_congestion_control(fd, "reno")
        with pytest.raises(InvalidSocketState):
            api.bind(fd, 8000)
        with pytest.raises(InvalidSocketState):
            api.connect(fd, Endpoint("10.0.0.2", 5000))


def test_closing_a_listener_a_connection_and_an_idle_fd():
    """Each fd leaves the table at once; a listener stops accepting and
    frees its port, a connection starts its FIN, an idle fd just goes."""
    rig, api_a, api_b = make_kernel_apis()
    fds = connected_fds(api_a, api_b)
    idle = value_of(rig, api_b.socket())
    listener = api_b._fds[fds["listen"]].listener
    conn = api_b._fds[fds["accepted"]]
    for fd in (fds["listen"], fds["accepted"], idle):
        assert value_of(rig, api_b.close(fd)) is None
        with pytest.raises(BadFileDescriptor):
            api_b.close(fd)
    assert listener.closed and api_b._bound_ports == {}
    assert conn.state is TcpState.FIN_WAIT_1
    # Nothing asked for the close's event, so none was built.
    assert conn._closed is None
    rig.run(until=rig.sim.now + 0.5)
    assert conn.state is TcpState.FIN_WAIT_2  # the client has not closed
    assert api_a._fds[fds["client"]].state is TcpState.CLOSE_WAIT


# -------------------------------------------------------------- epoll items --
def accepted_idle_fds(n):
    """``n`` idle connections accepted on ``api_b``: (rig, api_a, api_b,
    client fds, accepted fds)."""
    rig, api_a, api_b = make_kernel_apis()
    accepted, clients = [], []

    def server(sim):
        fd = yield api_b.socket()
        yield api_b.bind(fd, 5000)
        yield api_b.listen(fd, backlog=n)
        for _ in range(n):
            accepted.append((yield api_b.accept(fd)))

    def client(sim):
        fd = yield api_a.socket()
        yield api_a.connect(fd, Endpoint("10.0.0.2", 5000))
        clients.append(fd)

    rig.sim.process(server(rig.sim))
    for _ in range(n):
        rig.sim.process(client(rig.sim))
    rig.run(until=0.5)
    assert len(accepted) == len(clients) == n
    return rig, api_a, api_b, clients, accepted


def count_of(kind):
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is kind)


def test_registering_idle_fds_builds_one_item_and_no_event_each():
    rig, _api_a, api_b, _clients, accepted = accepted_idle_fds(1000)
    epoll = Epoll(rig.sim, api_b)
    events = count_of(Event)
    for fd in accepted:
        epoll.register(fd)
    assert count_of(Event) == events
    items = set(map(id, epoll._interest.values()))
    assert len(items) == 1000 and count_of(type(epoll._interest[accepted[0]])) == 1000
    # Each item is its fd's readiness waiter, in the receive buffer.
    for fd in accepted:
        assert api_b._fds[fd].recv_buffer._watchers is epoll._interest[fd]


def test_a_late_fire_of_an_unregistered_item_is_ignored_after_reregistration():
    rig, api_a, api_b, clients, accepted = accepted_idle_fds(1)
    (client,), (fd,) = clients, accepted
    sim = rig.sim
    epoll = Epoll(sim, api_b)
    epoll.register(fd)
    old = epoll._interest[fd]
    epoll.unregister(fd)
    epoll.register(fd)
    new = epoll._interest[fd]
    assert new is not old and old.armed and new.armed
    api_a.send(client, 100)
    rig.run(until=sim.now + 0.1)  # both items fired; only the new one counts
    assert not old.armed and not new.armed
    assert value_of(rig, epoll.wait()) == [(fd, EPOLLIN)]
    assert value_of(rig, api_b.recv(fd, 100)) == 100
    waiting = epoll.wait()  # drained: re-arms the new item only
    assert new.armed and not old.armed
    old.succeed()  # a late fire of the old item
    rig.run(until=sim.now + 0.1)
    assert not waiting.triggered and epoll._ready == {}
    api_a.send(client, 50)
    rig.run(until=sim.now + 0.1)
    assert waiting.value == [(fd, EPOLLIN)]
