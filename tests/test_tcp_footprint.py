"""What a connection holds: only what it uses.

At 10^4 connections every per-connection object counts (the ledger's
``fanin_10k`` is the witness), so the state nothing reads again is not
kept:

* the rate-sample records live in one list in send order, the shared
  ``()`` whenever nothing is outstanding;
* ``closed`` is built the first time someone asks for it;
* a buffer's waiter lists go back to ``None`` once drained, and a lone
  readiness watcher is stored bare, as ``Event.callbacks`` stores one;
* connections accepted on one listener share one local ``Endpoint`` and
  one bound ``on_established_cb``, and each is filed under the demux key
  its SYN was looked up with;
* a connection keeps no counters (its stack's ``StackStats`` does), and
  idle endpoints share one initial ``cwnd`` and one advertised window;
* a connection starts on its stack's read-only congestion control, RTT
  estimator and buffers, and builds its own of each at its first write
  of it (a write to a shared part raises); its RTO timer is built at its
  first arm, so the fluid analytic handshake builds none.
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
from repro.tcp.buffers import ReceiveBuffer
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


def ack(conn, ack_no, sack=()):
    """The peer's ACK of ``conn``'s data, delivered straight to it."""
    return TcpSegment(
        src_port=conn.remote.port,
        dst_port=conn.local.port,
        seq=conn.assembly.rcv_nxt,
        ack_no=ack_no,
        ack=True,
        wnd=1 << 20,
        sack=sack,
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
    }
    for name, is_shared in shared.items():
        assert getattr(conn, name).read_only is is_shared
    return {name for name, is_shared in shared.items() if is_shared}


ALL_PARTS = {"cc", "rtt", "send_buffer", "recv_buffer"}


def test_an_idle_established_pair_shares_its_stacks_parts():
    rig, client, server = established_pair()
    assert shared_parts(client) == shared_parts(server) == ALL_PARTS
    # One instance per stack, whatever the number of connections.
    other = rig.stack_a.connect(Endpoint("10.0.0.2", PORT))
    rig.run(until=0.02)
    assert other.state is TcpState.ESTABLISHED
    assert other.cc is client.cc and other.rtt is client.rtt
    assert other.send_buffer is client.send_buffer
    assert client.cc is not server.cc  # each stack has its own


def test_one_send_and_recv_build_exactly_the_parts_they_write():
    rig, client, server = established_pair()
    reading = server.recv(1000)
    assert shared_parts(server) == ALL_PARTS - {"recv_buffer"}
    client.send(1000)
    assert shared_parts(client) == ALL_PARTS - {"send_buffer"}
    rig.run(until=0.1)  # past the receiver's delayed ACK
    assert reading.triggered and reading.value == 1000
    # The ACK of the data wrote the sender's congestion control and RTT
    # estimator; the receiver only read its own (ACKs write neither).
    assert shared_parts(client) == {"recv_buffer"}
    assert shared_parts(server) == {"cc", "rtt", "send_buffer"}
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
    # Nothing was written: every part still reads as a fresh one.
    assert stack.shared_cc["cubic"].cwnd == 10 * MSS
    assert rtt.rto == 1.0 and rtt.srtt is None
    assert send_buffer.written == 0 and not send_buffer.fin_requested
    assert recv_buffer.available == 0 and not recv_buffer.eof
    assert recv_buffer._readers is None and recv_buffer._watchers is None


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
    # A packet handshake arms one at its SYN and SYN/ACK.
    _rig, client, server = established_pair()
    assert client._rto is not None and server._rto is not None


#: tracemalloc bytes one idle established pair holds (both endpoints, their
#: demux entries and pending timer entries), CPython 3.11: ~2 170 here,
#: ~2 980 while each endpoint built its own congestion control, RTT
#: estimator and buffers at birth, ~3 370 while each also kept ten
#: counters, a copy of its window ints and a fresh demux key per
#: accepted child.
IDLE_PAIR_BYTES = 2_300


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
