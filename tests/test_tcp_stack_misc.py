"""TcpStack miscellany: demux, ports, stats, RSS core assignment."""

import pytest

from repro.host.cpu import Core
from repro.net import Endpoint
from repro.tcp import StackConfig, TcpSegment, TcpStack, TcpState

from conftest import make_linked_stacks


def test_ephemeral_ports_unique_and_wrap():
    rig = make_linked_stacks()
    stack = rig.stack_a
    stack._next_ephemeral = 65534
    ports = [stack.allocate_port() for _ in range(4)]
    assert ports == [65534, 65535, stack.config.ephemeral_base,
                     stack.config.ephemeral_base + 1]


def test_stack_stats_count_connections():
    rig = make_linked_stacks()
    rig.stack_b.listen(5000)
    for _ in range(3):
        rig.stack_a.connect(Endpoint("10.0.0.2", 5000))
    rig.run(until=1.0)
    assert rig.stack_a.stats.connections_opened == 3
    assert rig.stack_b.stats.connections_accepted == 3


def test_stack_counts_bytes():
    from conftest import transfer

    rig = make_linked_stacks()
    transfer(rig, total_bytes=25_000)
    assert rig.stack_a.stats.bytes_out >= 25_000
    assert rig.stack_b.stats.bytes_in >= 25_000


def test_stack_sums_recovery_counters_past_connection_teardown():
    from conftest import transfer
    from repro.net import IIDLoss

    rig = make_linked_stacks(loss=IIDLoss(0.03, seed=5))
    conns = [
        transfer(rig, 300_000, port=port, time_limit=limit)["client_conn"]
        for port, limit in ((5000, 300.0), (5001, 600.0))
    ]
    assert not rig.stack_a._connections  # both closed and forgotten
    stats = rig.stack_a.stats
    for name in ("retransmits", "fast_retransmits", "timeouts", "dup_acks"):
        assert getattr(stats, name) == sum(getattr(c.stats, name) for c in conns)
    assert stats.retransmits > 0 and stats.dup_acks > 0


def test_rst_counted_for_closed_port():
    rig = make_linked_stacks()
    rig.stack_a.connect(Endpoint("10.0.0.2", 4242))
    rig.run(until=1.0)
    assert rig.stack_b.stats.rst_sent >= 1


def test_rss_spreads_connections_across_cores():
    rig = make_linked_stacks()
    cores = [Core(rig.sim, f"c{i}") for i in range(2)]
    rig.stack_a.cores = cores
    rig.stack_b.listen(5000)
    conns = [rig.stack_a.connect(Endpoint("10.0.0.2", 5000)) for _ in range(4)]
    assigned = {rig.stack_a._core_of[id(conn)] for conn in conns}
    assert assigned == set(cores)


def test_stack_ignores_non_tcp_payload():
    rig = make_linked_stacks()
    from repro.net import Packet

    rig.stack_b.on_packet(Packet(src="10.0.0.1", dst="10.0.0.2",
                                 payload_bytes=10, payload="not a segment"))
    assert rig.stack_b.stats.segments_in == 0


def test_syn_to_full_backlog_dropped_not_rst():
    rig = make_linked_stacks()
    listener = rig.stack_b.listen(5000, backlog=1)
    # Fill the accept queue first (nobody calls accept()), then a late SYN
    # must be silently dropped — not RST — so the client retries.
    rig.stack_a.connect(Endpoint("10.0.0.2", 5000))
    rig.run(until=0.5)
    assert listener.queue_length == 1
    rig.stack_a.connect(Endpoint("10.0.0.2", 5000))
    rig.run(until=1.0)
    assert rig.stack_b.stats.no_socket_drops >= 1
    assert rig.stack_b.stats.rst_sent == 0


def test_connect_local_port_pinning():
    rig = make_linked_stacks()
    rig.stack_b.listen(5000)
    conn = rig.stack_a.connect(Endpoint("10.0.0.2", 5000), local_port=12345)
    assert conn.local.port == 12345
    rig.run(until=1.0)
    assert conn.state.value == "established"


def test_connection_collision_rejected():
    rig = make_linked_stacks()
    rig.stack_b.listen(5000)
    rig.stack_a.connect(Endpoint("10.0.0.2", 5000), local_port=12345)
    with pytest.raises(RuntimeError, match="collision"):
        rig.stack_a.connect(Endpoint("10.0.0.2", 5000), local_port=12345)


def test_stack_repr_is_informative():
    rig = make_linked_stacks()
    assert "10.0.0.1" in repr(rig.stack_a)


def test_effective_mss_reflects_offload():
    rig = make_linked_stacks(tso=True)
    assert rig.stack_a.effective_mss() == 65536
    rig2 = make_linked_stacks(tso=False)
    assert rig2.stack_a.effective_mss() == 1448


def test_per_connection_tcp_overrides():
    rig = make_linked_stacks()
    rig.stack_b.listen(5000)
    conn = rig.stack_a.connect(
        Endpoint("10.0.0.2", 5000), sndbuf=123_456, ecn=True
    )
    assert conn.config.sndbuf == 123_456
    assert conn.config.ecn is True
    # The stack-wide template is untouched.
    assert rig.stack_a.config.tcp.sndbuf != 123_456


# -- the connection pool (TcpStack.recycle / TcpConnection._reinit) -----------
#
# The one free list left in the tree: a CLOSED connection is pinned by its
# stale lazy-RTO queue entries for up to an RTO, so under churn only reuse
# bounds how many are alive (see the comment at TcpStack.recycle).


def _dead_client_conn(**rig_kwargs):
    """A client connection that lived a whole life and is recyclable."""
    from conftest import transfer

    rig = make_linked_stacks(**rig_kwargs)
    conn = transfer(rig, total_bytes=200_000)["client_conn"]
    assert conn.closed.triggered and not rig.stack_a._connections
    return rig, conn


#: Each makes an otherwise recyclable connection not dead, one way.
_RECYCLE_SPOILERS = {
    "state not CLOSED": lambda rig, conn: setattr(conn, "state", TcpState.TIME_WAIT),
    "closed untriggered": lambda rig, conn: setattr(conn, "closed", rig.sim.event()),
    "still demuxable": lambda rig, conn: rig.stack_a._connections.update(
        {(conn.local.port, conn.remote.ip, conn.remote.port): conn}
    ),
    "RACK timer pending": lambda rig, conn: setattr(conn, "_rack_armed", True),
    "pacing timer pending": lambda rig, conn: setattr(conn, "_pacing_timer_armed", True),
    "live fluid flow": lambda rig, conn: setattr(conn, "_fluid_flow", object()),
    "promotion armed": lambda rig, conn: setattr(conn, "_fluid_armed", True),
}


@pytest.mark.parametrize("why", sorted(_RECYCLE_SPOILERS))
def test_recycle_refuses_a_connection_that_is_not_dead(why):
    rig, conn = _dead_client_conn()
    names = ("state", "closed", "_rack_armed", "_pacing_timer_armed",
             "_fluid_flow", "_fluid_armed")
    before = {name: getattr(conn, name) for name in names}
    _RECYCLE_SPOILERS[why](rig, conn)
    assert rig.stack_a.recycle(conn) is False
    assert rig.stack_a._conn_pool == []
    # Undo the one spoiler: the same connection is now accepted, so the
    # spoiler was the reason.
    for name, value in before.items():
        setattr(conn, name, value)
    rig.stack_a._connections.clear()
    assert rig.stack_a.recycle(conn) is True
    assert rig.stack_a._conn_pool == [conn]


def test_recycle_refuses_when_the_pool_is_full(monkeypatch):
    import repro.tcp.stack as stack_module

    rig, conn = _dead_client_conn()
    monkeypatch.setattr(stack_module, "_CONN_POOL_MAX", 0)
    assert rig.stack_a.recycle(conn) is False
    assert rig.stack_a._conn_pool == []
    monkeypatch.setattr(stack_module, "_CONN_POOL_MAX", 1)
    assert rig.stack_a.recycle(conn) is True


#: Sub-objects ``_reinit`` reuses through their ``reset()``; compared field
#: by field.  Everything else in ``__slots__`` is compared with ``==``.
_REUSED_PARTS = ("send_buffer", "assembly", "recv_buffer", "rtt", "stats")
_GENERATIONS = ("_rto_gen", "_persist_gen", "_delack_gen")
_FRESH_EVENTS = ("established", "closed")
#: Cleared in place, so they must stay containers.
_CONTAINERS = ("_tx_records", "_tx_order")


def _fields(obj):
    names = [n for klass in type(obj).__mro__ for n in getattr(klass, "__slots__", ())]
    return {name: getattr(obj, name) for name in names}


def test_reinit_mirrors_init_for_every_slot():
    """A recycled connection equals a constructed one, slot by slot.

    After a real (lossy) life every field ``_reinit`` must write is also
    overwritten with a sentinel, so a field added to ``__init__`` and
    ``__slots__`` but not to ``_reinit`` — or to a part's ``__init__`` but
    not its ``reset()`` — survives into the next life and fails here.
    """
    from repro.net import IIDLoss
    from repro.tcp import TcpConnection

    rig, conn = _dead_client_conn(loss=IIDLoss(0.03, seed=5))
    assert conn.stats.retransmits > 0  # the life left marks
    stack = rig.stack_a
    assert stack.recycle(conn)

    stale = object()
    generations = {name: getattr(conn, name) for name in _GENERATIONS}
    old_events = {name: getattr(conn, name) for name in _FRESH_EVENTS}
    for name in TcpConnection.__slots__:
        if name in _GENERATIONS:
            continue
        if name in _REUSED_PARTS:
            part = getattr(conn, name)
            for field in _fields(part):
                setattr(part, field, stale)
        elif name == "_tx_records":
            conn._tx_records[1] = stale
        elif name == "_tx_order":
            conn._tx_order.append(stale)
        else:
            setattr(conn, name, stale)

    local, remote = Endpoint("10.0.0.1", 40000), Endpoint("10.0.0.2", 5000)
    cfg = stack._tcp_config()
    cc = stack._make_cc(None, cfg.mss)
    reborn = stack._alloc_connection(local, remote, cc, cfg)
    assert reborn is conn and stack._conn_pool == []
    fresh = TcpConnection(rig.sim, stack, local, remote, cc, cfg)

    for name in TcpConnection.__slots__:
        mine, theirs = getattr(reborn, name), getattr(fresh, name)
        if name in _GENERATIONS:
            assert mine != generations[name], f"{name} was not bumped"
        elif name in _FRESH_EVENTS:
            assert mine is not old_events[name] and mine is not stale
            assert type(mine) is type(theirs) and not mine.triggered
        elif name in _REUSED_PARTS:
            assert _fields(mine) == _fields(theirs), name
        else:
            assert mine == theirs, name


def _two_lives(recycle):
    """Connect/transfer/close twice from the same stacks; with ``recycle``
    the second pair of connections are the first pair's objects.  The
    second life idles across the first life's RTO deadline.  Returns the
    second life's (client stats, server stats, duration)."""
    import dataclasses

    rig = make_linked_stacks()
    listener = rig.stack_b.listen(5000)
    remote = Endpoint("10.0.0.2", 5000)
    out = {}

    def serve_one(sim):
        peer = yield listener.accept()
        while (yield peer.recv(1 << 20)):
            pass
        yield peer.close()
        return peer

    def life(sim, idle_until):
        server = sim.process(serve_one(sim))
        conn = rig.stack_a.connect(remote)
        yield conn.established
        yield conn.send(100_000)
        if idle_until is not None:
            yield sim.timeout(idle_until - sim.now)
            yield conn.send(100_000)
        yield conn.close()
        peer = yield server
        yield peer.closed
        return conn, peer

    def script(sim):
        first, first_peer = yield from life(sim, None)
        # The first life's lazy RTO checks are still in the event queue.
        assert first._rto_scheduled and first._rto_check_at > sim.now
        assert first_peer._rto_scheduled and first_peer._rto_check_at > sim.now
        stale_until = max(first._rto_check_at, first_peer._rto_check_at)
        if recycle:
            assert rig.stack_a.recycle(first) and rig.stack_b.recycle(first_peer)
        started = sim.now
        second, second_peer = yield from life(sim, stale_until + 1.0)
        assert (second is first and second_peer is first_peer) == recycle
        out["result"] = (
            dataclasses.asdict(second.stats),
            dataclasses.asdict(second_peer.stats),
            sim.now - started,
        )

    rig.sim.process(script(rig.sim))
    rig.run(until=300.0)
    return out["result"]


def test_previous_life_timers_are_noops_in_the_next_life():
    """RTO / delayed-ACK / persist entries queued by a connection's first
    life are still in the event queue when it is recycled and reconnected;
    they fire into the second life without effect: no timeout, no
    retransmit, and not one segment more or less than on fresh objects."""
    client, server, duration = _two_lives(recycle=True)
    assert client["bytes_sent"] == server["bytes_received"] == 200_000
    for stats in (client, server):
        assert stats["timeouts"] == 0 and stats["retransmits"] == 0
    assert (client, server, duration) == _two_lives(recycle=False)


def test_connection_churn_keeps_closed_connections_bounded():
    """Why the pool exists, executable: in the middle of connect/request/
    close churn through one NSM pair, at most a small constant of CLOSED
    connections is alive.

    Without reuse every connection that reached CLOSED stays pinned by its
    stale lazy-RTO queue entries until they fire (min_rto 200 ms, far
    beyond this run): 111 here with ``recycle`` returning False, 0 with
    the pool."""
    import gc

    from repro.apps import WebClient, WebServer
    from repro.experiments.common import make_lan_testbed
    from repro.netkernel import NsmSpec
    from repro.tcp import TcpConnection

    clients = 4
    testbed = make_lan_testbed()
    hv_a, hv_b = testbed.hypervisor_a, testbed.hypervisor_b
    client_vm = hv_a.boot_netkernel_vm("clients", hv_a.boot_nsm(NsmSpec()), vcpus=4)
    server_vm = hv_b.boot_netkernel_vm("server", hv_b.boot_nsm(NsmSpec()), vcpus=4)
    server = WebServer(testbed.sim, server_vm.api, port=80)
    workers = [
        WebClient(testbed.sim, client_vm.api, Endpoint(server_vm.api.ip, 80),
                  start_delay=0.001 + 0.0005 * i)
        for i in range(clients)
    ]
    testbed.run(until=0.012)
    completed = sum(w.completed for w in workers)
    assert completed >= 400 and server.requests_served >= completed

    gc.collect()
    closed_alive = [
        obj for obj in gc.get_objects()
        if type(obj) is TcpConnection
        and obj.sim is testbed.sim
        and obj.state is TcpState.CLOSED
    ]
    assert len(closed_alive) <= 2 * clients, len(closed_alive)
