"""TcpStack miscellany: demux, ports, stats, RSS core assignment."""

import gc

import pytest

from repro.host.cpu import Core
from repro.net import Endpoint
from repro.net.addressing import EPHEMERAL_BASE
from repro.sim.engine import Deadline
from repro.tcp import StackConfig, TcpSegment, TcpStack, TcpState

from conftest import RECOVERY_COUNTERS, make_linked_stacks, step


def test_ephemeral_ports_unique_and_wrap():
    rig = make_linked_stacks()
    stack = rig.stack_a
    stack._next_ephemeral = 65534
    ports = [stack.allocate_port() for _ in range(4)]
    assert ports == [65534, 65535, EPHEMERAL_BASE, EPHEMERAL_BASE + 1]


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


def test_stack_sums_recovery_counters_past_connection_teardown(recovery_tally):
    from conftest import transfer
    from repro.net import IIDLoss

    rig = make_linked_stacks(loss=IIDLoss(0.03, seed=5))
    conns = [
        transfer(rig, 300_000, port=port, time_limit=limit)["client_conn"]
        for port, limit in ((5000, 300.0), (5001, 600.0))
    ]
    assert not rig.stack_a._connections  # both closed and forgotten
    stats = rig.stack_a.stats
    for name in RECOVERY_COUNTERS:
        assert getattr(stats, name) == sum(recovery_tally[c][name] for c in conns)
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
    assigned = {conn.core for conn in conns}
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


# -- timers that let go ------------------------------------------------------
#
# A connection's RTO, persist and delayed-ACK deadlines are released when it
# reaches CLOSED.  The queue entries they leave behind reference only the
# deadline, so a closed connection is freed by reference count at close
# instead of being pinned until its last stale entry pops (up to an RTO).


def _one_life(rig, sim, listener, idle_until=None):
    """Connect from port 40000, send 100 kB (twice, around an idle stretch,
    with ``idle_until``) and close; return both ends once both are CLOSED."""
    def serve_one(sim):
        peer = yield listener.accept()
        while (yield peer.recv(1 << 20)):
            pass
        yield peer.close()
        return peer

    server = sim.process(serve_one(sim))
    conn = rig.stack_a.connect(Endpoint("10.0.0.2", 5000), local_port=40000)
    yield conn.established
    yield conn.send(100_000)
    if idle_until is not None:
        yield sim.timeout(idle_until - sim.now)
        yield conn.send(100_000)
    yield conn.close()
    peer = yield server
    return conn, peer


def _stale_entries(sim):
    return [entry for entry in sim._queue if type(entry[2]) is Deadline]


def test_a_closed_connection_is_freed_at_close():
    """Both ends of a finished transfer are garbage by reference count alone
    while the RTO entries they armed are still in the event queue."""
    from repro.tcp import TcpConnection

    rig = make_linked_stacks()
    sim = rig.sim
    listener = rig.stack_b.listen(5000)
    out = {}

    def script(sim):
        conns = yield from _one_life(rig, sim, listener)
        assert all(conn.state is TcpState.CLOSED for conn in conns)
        out["ids"] = {id(conn) for conn in conns}
        out["closed_at"] = sim.now

    sim.process(script(sim))
    gc.disable()  # nothing may need the cycle collector to free them
    try:
        while "ids" not in out:
            step(sim)
        alive = [
            obj for obj in gc.get_objects()
            if type(obj) is TcpConnection and id(obj) in out["ids"]
        ]
        assert alive == []
    finally:
        gc.enable()
    stale = _stale_entries(sim)
    assert stale and all(entry[0] > out["closed_at"] for entry in stale)
    assert all(entry[2].owner is None for entry in stale)
    sim.run()  # they pop as no-ops
    assert rig.stack_a.stats.timeouts == rig.stack_b.stats.timeouts == 0


def _two_lives(drop_stale):
    """Two connections on the same 4-tuple, the second started while the
    first one's stale timer entries are still queued and idling past them.
    With ``drop_stale`` those entries are deleted from the queue first.
    Returns the second life's (client stats, server stats, duration): what
    each end's stack counted in that life, when it carried that one
    connection, plus the stream bytes its sequence numbers account for."""
    import dataclasses
    import heapq

    rig = make_linked_stacks()
    sim = rig.sim
    listener = rig.stack_b.listen(5000)
    out = {}

    def script(sim):
        yield from _one_life(rig, sim, listener)
        stale = _stale_entries(sim)
        assert stale and min(entry[0] for entry in stale) > sim.now
        if drop_stale:
            sim._queue[:] = [e for e in sim._queue if type(e[2]) is not Deadline]
            heapq.heapify(sim._queue)
        started = sim.now
        before = [dataclasses.asdict(s.stats) for s in (rig.stack_a, rig.stack_b)]
        idle_until = max(entry[0] for entry in stale) + 1.0
        client, server = yield from _one_life(rig, sim, listener, idle_until)
        ends = []
        for stack, counted, conn in zip(
            (rig.stack_a, rig.stack_b), before, (client, server)
        ):
            stats = {
                name: value - counted[name]
                for name, value in dataclasses.asdict(stack.stats).items()
            }
            # Stream bytes: the SYN and the FIN take a sequence number each.
            stats["bytes_acked"] = conn.snd_una - conn.iss - 2
            stats["bytes_received"] = conn.rcv_nxt - conn.irs - 2
            ends.append(stats)
        out["result"] = (*ends, sim.now - started)

    sim.process(script(sim))
    rig.run(until=300.0)
    return out["result"]


def test_previous_life_timers_are_noops_in_the_next_life():
    """RTO / delayed-ACK entries queued by a closed connection are still in
    the event queue when a new connection reuses its 4-tuple; they pop into
    the new life without effect: no timeout, no retransmit, and not one
    segment more or less than with those entries deleted."""
    client, server, duration = _two_lives(drop_stale=False)
    assert client["bytes_out"] == server["bytes_received"] == 200_000
    for stats in (client, server):
        assert stats["timeouts"] == 0 and stats["retransmits"] == 0
    assert (client, server, duration) == _two_lives(drop_stale=True)


def test_connection_churn_keeps_closed_connections_bounded():
    """In the middle of connect/request/close churn through one NSM pair
    no CLOSED connection is alive — counted with the cycle collector off,
    so every one must have been freed by reference count at close.

    Before timers let go, every connection that reached CLOSED stayed
    pinned by its stale lazy-RTO queue entries until they fired (min_rto
    200 ms, far beyond this run): 111 here without the connection pool the
    tree kept for that reason."""
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
    gc.collect()
    gc.disable()
    try:
        testbed.run(until=0.012)
        closed_alive = [
            obj for obj in gc.get_objects()
            if type(obj) is TcpConnection
            and obj.sim is testbed.sim
            and obj.state is TcpState.CLOSED
        ]
    finally:
        gc.enable()
    completed = sum(w.completed for w in workers)
    assert completed >= 400 and server.requests_served >= completed
    assert closed_alive == []


@pytest.mark.parametrize("until", [0.012, 0.024])
def test_connection_churn_keeps_checker_and_queue_to_open_flows(until):
    """Web churn through one NSM pair with the invariant checker watching:
    the checker's per-flow state and the event queue track the flows that
    are open, not every flow opened.  At both lengths the checker holds
    at most the open flows plus a few in flight, no queue entry stands
    for one TIME_WAIT record, and the dead timer entries stay under the
    purge floor.

    Before finished flows let go, the checker kept every flow the run
    carried and each TIME_WAIT record parked its own 2 MSL queue entry,
    so both grew with the run's length."""
    from repro.apps import WebClient, WebServer
    from repro.experiments.common import make_lan_testbed
    from repro.faults import InvariantChecker
    from repro.netkernel import NsmSpec
    from repro.sim import engine
    from repro.tcp import TcpConnection
    from repro.tcp.stack import TimeWait

    clients = 4
    testbed = make_lan_testbed()
    hv_a, hv_b = testbed.hypervisor_a, testbed.hypervisor_b
    nsm_a, nsm_b = hv_a.boot_nsm(NsmSpec()), hv_b.boot_nsm(NsmSpec())
    checker = InvariantChecker()
    for hv in (hv_a, hv_b):
        checker.install(hv.coreengine)
    client_vm = hv_a.boot_netkernel_vm("clients", nsm_a, vcpus=4)
    server_vm = hv_b.boot_netkernel_vm("server", nsm_b, vcpus=4)
    server = WebServer(testbed.sim, server_vm.api, port=80)
    workers = [
        WebClient(testbed.sim, client_vm.api, Endpoint(server_vm.api.ip, 80),
                  start_delay=0.001 + 0.0005 * i)
        for i in range(clients)
    ]
    testbed.run(until=until)
    completed = sum(w.completed for w in workers)
    assert completed >= 400 * until / 0.012 and server.requests_served >= completed
    assert checker.audit() == [] and checker.ok

    stacks = (nsm_a.stack, nsm_b.stack)
    open_flows = sum(
        type(entry) is TcpConnection
        for stack in stacks
        for entry in stack._connections.values()
    )
    held = set(checker._emitted_seqs) | set(checker._next_forward)
    held |= set(checker._emitted_bytes) | set(checker._forwarded_bytes)
    assert len(held) <= open_flows + 4

    queue = testbed.sim._queue
    # An entry stands for a record if its target is one, is bound to one
    # or takes one as an argument.
    per_record = [
        e for e in queue
        if any(
            type(x) is TimeWait
            for x in (e[2], getattr(e[2], "__self__", None), *(e[3] or ()))
        )
    ]
    assert per_record == []
    heads = [e for e in queue if type(e[2]) is engine.FifoTimer]
    assert len(heads) <= sum(len(stack._time_wait) for stack in stacks)
    assert testbed.sim._dead_entries <= engine._PURGE_FLOOR
