"""What a connection holds: only what it uses.

At 10^4 connections every per-connection object counts (the ledger's
``fanin_10k`` is the witness), so the state nothing reads again is not
kept:

* the rate-sample records live in one list in send order, the shared
  ``()`` whenever nothing is outstanding;
* ``closed`` is built the first time someone asks for it;
* a buffer's waiter lists go back to ``None`` once drained;
* connections accepted on one listener share one local ``Endpoint`` and
  one bound ``on_established_cb``.
"""

import gc
import weakref

from conftest import make_linked_stacks, step
from repro.net import Endpoint
from repro.tcp import TcpState
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
    assert client.stats.timeouts == 1
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

