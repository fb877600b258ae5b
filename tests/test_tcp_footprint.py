"""What a connection holds: only what it uses.

At 10^4 connections every per-connection object counts (the ledger's
``fanin_10k`` is the witness), so the state nothing reads again is not
kept:

* the rate-sample records live in one list in send order, the shared
  ``()`` whenever nothing is outstanding;
* ``closed`` is built the first time someone asks for it, and
  ``start_close()`` (ServiceLib's and the kernel socket API's close)
  asks for none;
* a buffer's waiter lists go back to ``None`` once drained, and a lone
  readiness watcher is stored bare, as ``Event.callbacks`` stores one;
* connections accepted on one listener share one local ``Endpoint`` and
  one bound ``on_established_cb``, and each is filed under the demux key
  its SYN was looked up with;
* a connection keeps no counters (its stack's ``StackStats`` does), and
  idle endpoints share one initial ``cwnd`` and one advertised window;
* a connection starts on its stack's read-only congestion control, RTT
  estimator, buffers and cold fields (loss recovery, ECN, FIN, persist
  timer, SYN retries), and on the one empty out-of-order queue; it builds
  its own of each at its first write of it (a write to a shared part
  raises);
* its RTO timer is built at its first arm, so the fluid analytic
  handshake builds none, and the packet handshake's stops once nothing is
  outstanding (RFC 6298 5.2);
* a freed connection in TIME_WAIT leaves a record that is its own weak
  reference and its own 2 MSL FIFO item, and keeps the window it
  advertises as an int: no receive buffer (unless bytes were left
  unread), remote endpoint or stamp tuple.
"""

import gc
import tracemalloc
import weakref

import pytest

from conftest import make_linked_stacks, step
from repro.experiments.common import install_fluid, make_lan_testbed
from repro.net import Endpoint
from repro.sim import Event
from repro.tcp import TcpConnection, TcpState
from repro.tcp.buffers import NOTHING_HELD, OutOfOrder, ReceiveBuffer
from repro.tcp.cc import RateSample, available
from repro.tcp.segment import TcpSegment
from repro.tcp.stack import TimeWait

PORT = 5000
MSS = 1448


def established_pair(rig=None):
    """A connected (client, server) pair on a fresh rig."""
    rig = rig or make_linked_stacks()
    listener = rig.stack_b.listen(PORT)
    accepted = []
    listener.accept().add_callback(lambda ev: accepted.append(ev.value))
    client = rig.stack_a.connect(Endpoint("10.0.0.2", PORT))
    rig.run(until=0.01)
    (server,) = accepted
    assert client.state is server.state is TcpState.ESTABLISHED
    return rig, client, server


def ack(conn, ack_no, sack=(), wnd=1 << 20):
    """The peer's ACK of ``conn``'s data, delivered straight to it."""
    return TcpSegment(
        src_port=conn.remote.port,
        dst_port=conn.local.port,
        seq=conn.rcv_nxt,
        ack_no=ack_no,
        ack=True,
        wnd=wnd,
        sack=sack,
    )


def data(conn, seq):
    """A peer's 100-byte data segment for ``conn``, delivered straight to it."""
    return TcpSegment(
        src_port=conn.remote.port,
        dst_port=conn.local.port,
        seq=seq,
        ack_no=conn.snd_nxt,
        ack=True,
        payload_len=100,
        wnd=1 << 20,
    )


def test_a_sack_only_ack_samples_and_retires_its_record_and_rto_empties_the_list():
    rig, client, server = established_pair()
    assert client._tx_records == () and server._tx_records == ()
    # Five segments, each sent at its own time, that never reach B.
    rig.stack_a.nic.transmit = lambda packet: None
    for _ in range(5):
        client.send(MSS)
        rig.run(until=rig.sim.now + 1e-4)
    records = list(client._tx_records)
    assert [r.end_seq for r in records] == [
        client.data_seq_base + MSS * (i + 1) for i in range(5)
    ]
    assert len({r.sent_time for r in records}) == 5
    una = client.snd_una

    # SACK-only: the block ending at the fourth segment's end is sampled
    # and its record removed.
    fourth = records[3]
    client.on_segment(ack(client, una, sack=((fourth.end_seq - MSS, fourth.end_seq),)))
    assert client.snd_una == una
    assert client._first_tx_time == fourth.sent_time
    assert fourth not in client._tx_records
    assert list(client._tx_records) == records[:3] + records[4:]

    # The cumulative ACK of the first four samples the freshest record
    # left below it (the third), never the removed fourth.
    client.on_segment(ack(client, fourth.end_seq))
    assert client.snd_una == fourth.end_seq
    assert client._first_tx_time == records[2].sent_time
    assert client._tx_records[client._tx_head:] == [records[4]]

    # An RTO presumes everything outstanding lost: no record is kept.
    client._rto_fire()
    assert rig.stack_a.stats.timeouts == 1  # the client's stack
    assert client._tx_records == () and client._tx_head == 0

    # A connection that never sent data never built a list.
    assert server._tx_records == ()


def test_the_record_list_is_let_go_when_everything_is_acked():
    rig, client, _server = established_pair()
    client.send(3 * MSS)
    rig.run(until=0.1)
    assert client.snd_una == client.snd_nxt
    assert client._tx_records == () and client._tx_head == 0


def test_closed_is_built_on_demand_and_fires_as_before():
    rig, client, server = established_pair()
    rig.run(until=0.05)
    # Idle established connections have built no closed Event.
    assert client._closed is None and server._closed is None

    # close() returns it, and it fires once the close completes.
    closing = server.close()
    assert closing is server.closed and not closing.triggered
    rig.run(until=0.2)
    assert server.state is TcpState.FIN_WAIT_2 and not closing.triggered
    client.close()
    rig.run(until=0.3)
    assert client.state is TcpState.CLOSED and client.closed.triggered
    assert server.state is TcpState.TIME_WAIT
    rig.run(until=1.0)
    assert server.state is TcpState.CLOSED and closing.triggered

    # abort() fires it, built or not.
    _rig, client, server = established_pair()
    client.abort()
    assert client.state is TcpState.CLOSED and client.closed.triggered


def test_a_time_wait_record_fires_the_closed_of_a_freed_connection():
    gc.collect()
    gc.disable()
    try:
        rig, client, server = established_pair()
        gone = weakref.ref(client)
        closing = client.close()
        del client
        server.close()
        while not any(
            type(e) is TimeWait for e in rig.stack_a._connections.values()
        ):
            step(rig.sim)
        assert gone() is None  # only the record is left
        (record,) = rig.stack_a._connections.values()
        assert record.closed is closing and not closing.triggered
        rig.run(until=1.0)
        assert closing.triggered and len(rig.stack_a._connections) == 0
    finally:
        gc.enable()


def test_a_servicelib_closed_connection_keeps_no_event_in_time_wait():
    """ServiceLib drops what a close returns, so the close builds no
    ``closed`` Event and the TIME_WAIT record keeps none for 2 MSL."""
    from repro.apps import WebClient, WebServer
    from repro.netkernel import NsmSpec

    testbed = make_lan_testbed()
    hv_a, hv_b = testbed.hypervisor_a, testbed.hypervisor_b
    nsm_a, nsm_b = hv_a.boot_nsm(NsmSpec()), hv_b.boot_nsm(NsmSpec())
    client_vm = hv_a.boot_netkernel_vm("clients", nsm_a, vcpus=2)
    server_vm = hv_b.boot_netkernel_vm("server", nsm_b, vcpus=2)
    WebServer(testbed.sim, server_vm.api, port=80)
    for i in range(4):
        WebClient(testbed.sim, client_vm.api, Endpoint(server_vm.api.ip, 80),
                  start_delay=0.001 + 0.0005 * i)
    testbed.run(until=0.01)
    records = [
        entry
        for stack in (nsm_a.stack, nsm_b.stack)
        for entry in stack._connections.values()
        if type(entry) is TimeWait
    ]
    assert len(records) >= 50
    assert all(record.closed is None for record in records)
    assert not any(holds(record, Event) for record in records)


def test_a_closed_asked_for_in_time_wait_is_fired_by_the_record():
    """``start_close()`` builds no ``closed``; one asked for once the
    connection is in TIME_WAIT goes to its record, which fires it at
    2 MSL after the connection is freed."""
    gc.collect()
    gc.disable()
    try:
        rig, client, server = established_pair()
        client.start_close()
        server.close()
        while client.state is not TcpState.TIME_WAIT:
            step(rig.sim)
        (record,) = rig.stack_a._connections.values()
        assert record.closed is None
        closing = client.closed
        assert record.closed is closing
        gone = weakref.ref(client)
        del client
        assert gone() is None
        rig.run(until=1.0)
        assert closing.triggered and len(rig.stack_a._connections) == 0
    finally:
        gc.enable()


def test_buffer_waiter_lists_are_let_go_when_drained():
    rig, client, server = established_pair()
    reading = server.recv(100)
    assert server.recv_buffer._readers is not None
    client.send(100)
    rig.run(until=0.05)
    assert reading.triggered and reading.value == 100
    assert server.recv_buffer._readers is None

    # A write blocked on a full send buffer waits in a list until the ACK
    # that makes room for it.
    client.send_buffer.capacity = MSS
    client.send(MSS)
    blocked = client.send(MSS)
    assert client.send_buffer._waiters is not None and not blocked.triggered
    rig.run(until=0.1)
    assert blocked.triggered and client.send_buffer._waiters is None


def test_connections_accepted_on_a_listener_share_its_local_endpoint():
    rig = make_linked_stacks()
    listener = rig.stack_b.listen(PORT)
    accepted = []
    listener.on_new_connection = accepted.append
    for _ in range(3):
        rig.stack_a.connect(Endpoint("10.0.0.2", PORT))
    rig.run(until=0.01)
    assert len(accepted) == 3
    assert all(conn.local is accepted[0].local for conn in accepted)
    assert accepted[0].local == Endpoint("10.0.0.2", PORT)
    assert len({conn.remote for conn in accepted}) == 3
    assert all(conn.on_established_cb is listener.on_established for conn in accepted)



def test_a_connection_keeps_no_counters_of_its_own():
    _rig, client, server = established_pair()
    assert "stats" not in TcpConnection.__slots__
    assert not hasattr(client, "stats") and not hasattr(server, "stats")


def test_an_accepted_child_is_filed_under_its_syns_demux_key():
    rig = make_linked_stacks()
    stack = rig.stack_b
    keys = []
    demux = stack._demux
    stack._demux = lambda packet, seg, key=None: keys.append(key) or demux(
        packet, seg, key
    )
    _rig, _client, server = established_pair(rig)
    (filed,) = [key for key, conn in stack._connections.items() if conn is server]
    assert filed is keys[0]  # the tuple on_packet built for the SYN


def test_idle_endpoints_share_their_initial_and_advertised_windows():
    _rig, client, server = established_pair()
    _rig, other, other_server = established_pair()
    cwnd, rcvbuf = client.cc.cwnd, client.config.rcvbuf
    assert cwnd == 10 * MSS
    # Empty receive buffers offer their capacity object, and the peer keeps
    # the one it was offered.
    for conn in (client, server, other, other_server):
        assert conn.cc.cwnd is cwnd
        assert conn._last_advertised_wnd is rcvbuf
        assert conn.snd_wnd is rcvbuf


def test_a_lone_watcher_is_stored_bare_and_two_wake_in_attach_order(sim):
    buffer = ReceiveBuffer(sim, 1000)
    fired = []
    first = Event(sim)
    buffer.watch(first)
    first.add_callback(lambda _ev: fired.append("first"))
    assert buffer._watchers is first
    second = (fired.append, ("second",))
    buffer.watch(second)
    assert buffer._watchers == [first, second]
    buffer.deliver(10)
    assert buffer._watchers is None
    sim.run()
    assert fired == ["first", "second"]


def shared_parts(conn):
    """Which of ``conn``'s parts are still its stack's shared ones."""
    stack, config = conn.stack, conn.config
    shared = {
        "cc": conn.cc is stack.shared_cc[conn.cc.name],
        "rtt": conn.rtt is stack.shared_rtt,
        "send_buffer": conn.send_buffer is stack.shared_send_buffer[config.sndbuf],
        "recv_buffer": conn.recv_buffer is stack.shared_recv_buffer[config.rcvbuf],
        "cold": conn.cold is stack.shared_cold,
        "ooo": conn.ooo is NOTHING_HELD,
    }
    for name, is_shared in shared.items():
        assert getattr(conn, name).read_only is is_shared
    return {name for name, is_shared in shared.items() if is_shared}


ALL_PARTS = {"cc", "rtt", "send_buffer", "recv_buffer", "cold", "ooo"}


def test_an_idle_established_pair_shares_its_stacks_parts():
    rig, client, server = established_pair()
    assert shared_parts(client) == shared_parts(server) == ALL_PARTS
    # One instance per stack, whatever the number of connections.
    other = rig.stack_a.connect(Endpoint("10.0.0.2", PORT))
    rig.run(until=0.02)
    assert other.state is TcpState.ESTABLISHED
    assert other.cc is client.cc and other.rtt is client.rtt
    assert other.send_buffer is client.send_buffer and other.cold is client.cold
    assert client.cc is not server.cc  # each stack has its own
    assert client.cold is not server.cold


def test_one_send_and_recv_build_exactly_the_parts_they_write():
    rig, client, server = established_pair()
    reading = server.recv(1000)
    assert shared_parts(server) == ALL_PARTS - {"recv_buffer"}
    client.send(1000)
    assert shared_parts(client) == ALL_PARTS - {"send_buffer"}
    rig.run(until=0.1)  # past the receiver's delayed ACK
    assert reading.triggered and reading.value == 1000
    # The ACK of the data wrote the sender's congestion control and RTT
    # estimator; the receiver only read its own (ACKs write neither).  An
    # in-order exchange writes neither side's cold fields or queue.
    assert shared_parts(client) == {"recv_buffer", "cold", "ooo"}
    assert shared_parts(server) == {"cc", "rtt", "send_buffer", "cold", "ooo"}
    assert client.rtt.srtt is not None and client.cc.cwnd > 10 * MSS
    fresh = rig.stack_a.shared_cc["cubic"]
    assert fresh.cwnd == 10 * MSS and rig.stack_a.shared_rtt.srtt is None


def test_shared_parts_refuse_writes():
    rig, client, server = established_pair()
    stack = rig.stack_a
    with pytest.raises(AttributeError, match="shared read-only"):
        client.cc.cwnd = 1
    sample = RateSample(newly_acked=MSS, rtt=1e-3, delivered_total=MSS, now=1.0)
    for name in available():
        cc = stack.shared_cc[name]
        for hook in (lambda: cc.on_ack(sample), cc.on_rto, cc.on_recovery_exit):
            with pytest.raises(AttributeError, match="shared read-only"):
                hook()
    rtt = stack.shared_rtt
    for hook in (lambda: rtt.on_sample(1e-3), rtt.on_timeout, rtt.reset_backoff):
        with pytest.raises(AttributeError, match="shared read-only"):
            hook()
    send_buffer = client.send_buffer
    for hook in (
        lambda: send_buffer.admit(10, Event(rig.sim)),
        lambda: send_buffer.on_ack(0),
        send_buffer.close,
    ):
        with pytest.raises(AttributeError, match="shared read-only"):
            hook()
    recv_buffer = server.recv_buffer
    for hook in (
        lambda: recv_buffer.deliver(10),
        recv_buffer.deliver_eof,
        lambda: recv_buffer.read(10),
        lambda: recv_buffer.watch(Event(rig.sim)),
    ):
        with pytest.raises(AttributeError, match="shared read-only"):
            hook()
    cold = client.cold
    for name in ("dupacks", "fin_sent", "ecn_echo_latched", "persist"):
        with pytest.raises(AttributeError, match="shared read-only"):
            setattr(cold, name, getattr(cold, name))
    # Only an out-of-order arrival writes the empty queue; an in-order one
    # and a SACK block lookup only read it.
    assert NOTHING_HELD.receive(0, 0, 100) == 100
    assert NOTHING_HELD.sack_blocks() == ()
    with pytest.raises(AttributeError, match="shared read-only"):
        NOTHING_HELD.receive(0, 100, 200)
    # Nothing was written: every part still reads as a fresh one.
    assert stack.shared_cc["cubic"].cwnd == 10 * MSS
    assert rtt.rto == 1.0 and rtt.srtt is None
    assert send_buffer.written == 0 and not send_buffer.fin_requested
    assert recv_buffer.available == 0 and not recv_buffer.eof
    assert recv_buffer._readers is None and recv_buffer._watchers is None
    assert cold.dupacks == 0 and not cold.fin_sent and cold.persist is None
    assert not NOTHING_HELD and NOTHING_HELD.total() == 0


def test_the_fluid_handshake_builds_no_rto_timer():
    testbed = make_lan_testbed()
    controller = install_fluid(testbed, mode="auto")
    vm_a = testbed.hypervisor_a.boot_legacy_vm("client", vcpus=2)
    vm_b = testbed.hypervisor_b.boot_legacy_vm("server", vcpus=2)
    listener = vm_b.api.stack.listen(PORT)
    accepted = []
    listener.on_new_connection = accepted.append
    client = vm_a.api.stack.connect(Endpoint(vm_b.api.ip, PORT))
    testbed.run(until=0.01)
    (server,) = accepted
    assert controller.fluid_connects == 1
    assert client.state is server.state is TcpState.ESTABLISHED
    assert client._rto is None and server._rto is None
    assert shared_parts(client) == shared_parts(server) == ALL_PARTS
    # A packet handshake arms one at its SYN and SYN/ACK, and lets it go
    # once established with nothing outstanding (RFC 6298 5.2) ...
    rig, client, server = established_pair()
    assert client._rto is None and server._rto is None
    # ... so the first data segment arms a fresh one a whole RTO out (5.1),
    # not the rest of the SYN's.
    sent_at = rig.sim.now
    client.send(MSS)
    rig.run(until=sent_at + 1e-6)
    assert client.snd_nxt > client.snd_una
    assert client._rto.when == sent_at + client.rtt.rto


def test_in_order_traffic_builds_no_cold_part_and_each_first_write_builds_its_own():
    rig, client, server = established_pair()
    # Both directions in order, closing neither: nobody writes a cold
    # field or holds a segment out of order.
    reading = server.recv(4 * MSS)
    back = client.recv(MSS)
    client.send(4 * MSS)
    server.send(MSS)
    rig.run(until=0.2)
    assert reading.triggered and back.triggered
    assert {"cold", "ooo"} <= shared_parts(client) & shared_parts(server)

    def parts_built(conn):
        return ALL_PARTS - shared_parts(conn)

    # The first duplicate ACK counts in the connection's own cold part.
    rig, client, server = established_pair()
    rig.stack_a.nic.transmit = lambda packet: None  # data never reaches B
    client.send(3 * MSS)
    rig.run(until=rig.sim.now + 1e-4)
    una = client.snd_una
    assert "cold" not in parts_built(client)
    client.on_segment(ack(client, una))
    assert "cold" in parts_built(client) and client.cold.dupacks == 1
    assert client.cold is not rig.stack_a.shared_cold
    assert rig.stack_a.shared_cold.dupacks == 0

    # The first SACK block starts its scoreboard there too.
    rig, client, server = established_pair()
    rig.stack_a.nic.transmit = lambda packet: None
    client.send(3 * MSS)
    rig.run(until=rig.sim.now + 1e-4)
    una = client.snd_una
    client.on_segment(ack(client, una, sack=((una + MSS, una + 2 * MSS),)))
    assert "cold" in parts_built(client) and client.cold.sacked.total() == MSS

    # The first CE mark latches the receiver's echo; in order, so its
    # queue stays the shared one.
    rig, client, server = established_pair()
    server.on_segment(data(server, server.rcv_nxt), ecn_ce=True)
    assert parts_built(server) >= {"cold"} and "ooo" not in parts_built(server)
    assert server.cold.ecn_echo_latched

    # A FIN: the sender records it sent, the receiver where it arrived.
    rig, client, server = established_pair()
    client.close()
    rig.run(until=rig.sim.now + 0.01)
    assert client.cold.fin_sent and client.cold.fin_seq is not None
    assert server.cold.fin_received_seq == client.cold.fin_seq
    assert "ooo" not in parts_built(client) | parts_built(server)

    # A zero window with data waiting arms the persist timer.
    rig, client, server = established_pair()
    client.on_segment(ack(client, client.snd_una, wnd=0))
    assert "cold" not in parts_built(client)  # a window update writes none
    client.send(MSS)
    rig.run(until=rig.sim.now + 1e-6)
    assert client.bytes_in_flight == 0 and client.cold.persist.armed

    # The first out-of-order segment builds the receiver's own queue, and
    # only that.
    rig, client, server = established_pair()
    before = shared_parts(server)
    server.on_segment(data(server, server.rcv_nxt + MSS))
    assert shared_parts(server) == before - {"ooo"}
    assert type(server.ooo) is OutOfOrder and server.ooo.total() == 100
    assert not NOTHING_HELD


#: tracemalloc bytes one idle established pair holds (both endpoints, their
#: demux entries and pending timer entries), CPython 3.11: ~1 510 here,
#: ~2 170 while each endpoint kept its cold fields and out-of-order queue
#: in itself, its handshake's RTO timer armed and 80-byte events, ~2 980
#: while it also built its own congestion control, RTT estimator and
#: buffers at birth, ~3 370 while it also kept ten counters, a copy of
#: its window ints and a fresh demux key per accepted child.
IDLE_PAIR_BYTES = 1_600


def test_an_idle_established_pair_fits_its_byte_budget():
    pairs = 200
    rig = make_linked_stacks()
    listener = rig.stack_b.listen(PORT)
    accepted = []
    listener.on_new_connection = accepted.append
    rig.stack_a.connect(Endpoint("10.0.0.2", PORT))  # warm the caches
    rig.run(until=0.01)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        clients = [
            rig.stack_a.connect(Endpoint("10.0.0.2", PORT)) for _ in range(pairs)
        ]
        rig.run(until=0.02)
        gc.collect()
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(accepted) == pairs + 1
    assert all(conn.state is TcpState.ESTABLISHED for conn in clients)
    assert used / pairs < IDLE_PAIR_BYTES


def freed_in_time_wait(pairs):
    """``pairs`` connections from A to B, each freed in TIME_WAIT at A: A
    closes first and lets go, and B closes once it reads A's EOF.  One
    warm-up connection first.  Returns the tracemalloc bytes the records
    held: what their expiry at 2 MSL frees."""
    rig = make_linked_stacks()
    listener = rig.stack_b.listen(PORT)

    def serve(conn):
        while (yield conn.recv(1 << 16)) != 0:
            pass
        conn.close()

    def client(sim):
        conn = rig.stack_a.connect(Endpoint("10.0.0.2", PORT))
        yield conn.established
        conn.close()

    listener.on_new_connection = lambda conn: rig.sim.process(serve(conn))
    rig.sim.process(client(rig.sim))
    rig.run(until=0.2)  # warm the caches; its record expired
    tracemalloc.start()
    try:
        for _ in range(pairs):
            rig.sim.process(client(rig.sim))
        rig.run(until=0.25)  # every record entered, none past 2 MSL
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        records = rig.stack_a._connections.values()
        assert len(records) == pairs and not rig.stack_b._connections
        assert all(type(r) is TimeWait for r in records)
        assert not any(type(o) is TcpConnection for o in gc.get_objects())
        rig.run(until=0.5)  # every record expired
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert not rig.stack_a._connections
    return freed


#: tracemalloc bytes a freed connection's TIME_WAIT record and what only
#: it holds come to, CPython 3.11: ~425 here, ~660 while the record held
#: a separate weak reference, the receive buffer, the remote endpoint and
#: a ``(when, seq, record)`` stamp tuple in its FIFO.
TIME_WAIT_RECORD_BYTES = 500


def test_freed_connections_in_time_wait_fit_their_byte_budget():
    pairs = 200
    assert freed_in_time_wait(pairs) / pairs < TIME_WAIT_RECORD_BYTES


def time_wait_rig(unread):
    """An established pair whose client, A, is freed in TIME_WAIT after
    B sent it ``unread`` bytes it never read.  Returns the rig, A's
    record, B's connection, A's receive buffer (held by the test) and
    every segment A sends from then on."""
    gc.collect()
    gc.disable()
    try:
        rig, client, server = established_pair()
        if unread:
            server.send(unread)
            rig.run(until=rig.sim.now + 0.01)
            assert client.recv_buffer.available == unread
        buffer = client.recv_buffer
        gone = weakref.ref(client)
        client.close()
        del client
        while server.state is not TcpState.CLOSE_WAIT:
            step(rig.sim)
        server.close()
        while not any(
            type(e) is TimeWait for e in rig.stack_a._connections.values()
        ):
            step(rig.sim)
        assert gone() is None  # only the record is left
    finally:
        gc.enable()
    (record,) = rig.stack_a._connections.values()
    sent = []
    rig.stack_a.nic.transmit = lambda packet: sent.append(packet.payload)
    return rig, record, server, buffer, sent


def retransmitted_fin(record, server):
    return TcpSegment(
        src_port=PORT,
        dst_port=record.local_port,
        seq=server.cold.fin_seq,
        ack_no=record.snd_nxt,
        ack=True,
        fin=True,
    )


def holds(record, kinds):
    """What ``record`` refers to directly that is one of ``kinds``."""
    return [x for x in gc.get_referents(record) if isinstance(x, kinds)]


def test_a_record_is_its_own_weak_reference_and_fifo_item():
    rig, record, server, _buffer, sent = time_wait_rig(unread=0)
    # Endpoint is a tuple too, as a stamp would be.
    assert holds(record, (ReceiveBuffer, weakref.ref, tuple)) == []
    (fifo,) = rig.stack_a._time_wait.values()
    assert list(fifo._items) == [record]
    (head,) = [e for e in rig.sim._queue if e[2] is fifo]
    assert head[:2] == (record.fifo_when, record.fifo_seq)
    record.on_segment(retransmitted_fin(record, server))
    (reply,) = sent
    assert reply.ack_no == record.rcv_nxt and reply.wnd == 4 * 1024 * 1024


def test_a_record_keeps_the_receive_buffer_only_while_bytes_are_unread():
    _rig, record, server, buffer, sent = time_wait_rig(unread=1000)
    assert holds(record, (ReceiveBuffer, weakref.ref, tuple)) == [buffer]
    fin = retransmitted_fin(record, server)
    record.on_segment(fin)
    assert sent[-1].wnd == buffer.window() == buffer.capacity - 1000
    # A read after TIME_WAIT began opens the window the answers advertise.
    assert buffer.try_read(600) == 600
    record.on_segment(fin)
    assert sent[-1].wnd == buffer.capacity - 400
