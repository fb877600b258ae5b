"""TIME_WAIT holds a small record, not the connection.

The active closer spends 2 MSL in TIME_WAIT.  The stack's demux table
then holds a :class:`~repro.tcp.stack.TimeWait` record that refers to the
connection weakly, so a connection nobody else holds is freed at entry.
The record keeps the connection's duties: the demux entry (collisions,
the table size), the 2 MSL timer and ``closed``, an ACK for a
retransmitted FIN, and an RST that ends it early.

The pinned numbers (event counts, segment fields) were taken from the
same scenarios run with the whole connection kept for 2 MSL: the record
must not move them.  The collector is off while a scenario runs, so a
connection counts as freed only if reference counting freed it.
"""

import gc
import weakref

import pytest

from conftest import make_linked_stacks, peek, step
from repro.host.cpu import Core
from repro.net import Endpoint, OffloadConfig, Packet, VirtualNIC
from repro.sim.engine import FifoTimer
from repro.tcp import TcpStack, TcpState
from repro.tcp.connection import TcpConnection
from repro.tcp.segment import TcpSegment
from repro.tcp.stack import TimeWait

PORT = 5000


@pytest.fixture(autouse=True)
def no_collector():
    enabled = gc.isenabled()
    gc.collect()  # nothing left over from an earlier test
    gc.disable()
    yield
    if enabled:
        gc.enable()


def close_handshake(hold, msl=0.05, drop_final_ack=False):
    """A sends 1 000 bytes to B and closes first, so A enters TIME_WAIT.

    ``hold`` keeps A's connection referenced from the test; otherwise only
    a weakref to it survives the client process.  ``drop_final_ack`` loses
    A's first ACK of B's FIN, so B retransmits its FIN into A's TIME_WAIT.
    Returns the rig; ``found`` ("a": a weakref to A's connection, "b": B's
    connection, "dropped": the lost ACK); the held list; and every segment
    A sent, as (time, segment).
    """
    rig = make_linked_stacks()
    rig.stack_a.config.tcp.msl = msl
    rig.stack_a.cores = [Core(rig.sim, "a0")]
    listener = rig.stack_b.listen(PORT)
    found = {}
    held = []
    sent = []
    transmit = rig.stack_a.nic.transmit

    def lossy_transmit(packet):
        seg = packet.payload
        sent.append((rig.sim.now, seg))
        b_conn = found.get("b")
        if (
            drop_final_ack
            and b_conn is not None
            and b_conn.cold.fin_seq is not None
            and seg.ack_no == b_conn.cold.fin_seq + 1
        ):
            if "dropped" not in found:
                found["dropped"] = seg
                return
        transmit(packet)

    rig.stack_a.nic.transmit = lossy_transmit

    def server(sim):
        conn = yield listener.accept()
        found["b"] = conn
        while (yield conn.recv(1 << 16)) != 0:
            pass
        yield conn.close()

    def client(sim):
        conn = rig.stack_a.connect(Endpoint("10.0.0.2", PORT))
        found["a"] = weakref.ref(conn)
        if hold:
            held.append(conn)
        yield conn.established
        yield conn.send(1000)
        conn.close()

    rig.sim.process(server(rig.sim))
    rig.sim.process(client(rig.sim))
    return rig, found, held, sent


def run_until_time_wait(rig, found):
    """Step through the entry in which A's table entry became its record."""
    while not any(type(e) is TimeWait for e in rig.stack_a._connections.values()):
        assert peek(rig.sim) <= 1.0, "A never entered TIME_WAIT"
        step(rig.sim)


def step_until(rig, until):
    """``rig.run(until)`` one entry at a time, so ``events_processed``
    inside a callback is the index of the entry that ran it."""
    while peek(rig.sim) <= until:
        step(rig.sim)


def client_key(rig):
    (key,) = rig.stack_a._connections
    return key


def test_a_time_wait_connection_nobody_holds_is_freed_at_entry():
    rig, found, held, _ = close_handshake(hold=False)
    run_until_time_wait(rig, found)
    # Freed by reference count within the entry that entered TIME_WAIT,
    # with the collector off.
    assert found["a"]() is None
    (entry,) = rig.stack_a._connections.values()
    assert isinstance(entry, TimeWait) and entry() is None
    assert len(rig.stack_a._connections) == 1


def test_a_held_connection_turns_closed_at_2msl_and_closed_fires_on_time():
    rig, found, held, _ = close_handshake(hold=True)
    run_until_time_wait(rig, found)
    entered = rig.sim.now
    (conn,) = held
    fired = []
    conn.closed.add_callback(
        lambda ev: fired.append((rig.sim.now, rig.sim.events_processed, conn.state))
    )
    assert isinstance(rig.stack_a._connections[client_key(rig)], TimeWait)
    step_until(rig, entered + 2 * 0.05 - 1e-9)
    assert conn.state is TcpState.TIME_WAIT and not fired
    step_until(rig, 1.0)
    # (time, place in the event order) as when the whole connection waited.
    assert fired == [(entered + 2 * 0.05, 39, TcpState.CLOSED)]
    assert len(rig.stack_a._connections) == 0


def test_a_freed_connection_still_fires_closed_on_time():
    rig, found, _, _ = close_handshake(hold=False)
    run_until_time_wait(rig, found)
    entered = rig.sim.now
    (record,) = rig.stack_a._connections.values()
    fired = []
    record.closed.add_callback(
        lambda ev: fired.append((rig.sim.now, rig.sim.events_processed))
    )
    step_until(rig, 1.0)
    assert fired == [(entered + 2 * 0.05, 39)]
    assert len(rig.stack_a._connections) == 0


#: A's ACK of B's retransmitted FIN, as the whole connection sent it.
FIN_REPLY = TcpSegment(
    src_port=32768,
    dst_port=PORT,
    seq=1002,
    ack_no=2,
    ack=True,
    wnd=4 * 1024 * 1024,
    ts_val=1.0040219,
    ts_ecr=1.00301918,
)


@pytest.mark.parametrize("hold", [True, False], ids=["held", "freed"])
def test_a_retransmitted_fin_is_acked_as_the_connection_would(hold):
    # B has no RTT sample, so its FIN returns 1 s (the initial RTO) after
    # it was sent, on a timer the FIN armed: the handshake's stopped once
    # B was established.  2 MSL must outlast that.
    rig, found, held, sent = close_handshake(hold=hold, msl=1.0, drop_final_ack=True)
    run_until_time_wait(rig, found)
    before = len(sent)
    rig.run(until=3.0)
    assert (found["a"]() is None) is not hold
    b_conn = found["b"]
    assert rig.stack_b.stats.retransmits == 1  # B's FIN, once
    (_, lost), (at, reply) = sent[before:]
    assert lost is found["dropped"] and lost.ack_no == b_conn.cold.fin_seq + 1
    assert reply == FIN_REPLY and at == 1.0040239  # after the CPU charge on a0
    assert b_conn.state is TcpState.CLOSED
    assert rig.stack_a.stats.segments_out == 6
    assert rig.sim.events_processed == 47


@pytest.mark.parametrize("hold", [True, False], ids=["held", "freed"])
def test_an_rst_in_time_wait_removes_the_record(hold):
    rig, found, held, _ = close_handshake(hold=hold)
    run_until_time_wait(rig, found)
    key = client_key(rig)
    record = rig.stack_a._connections[key]
    assert isinstance(record, TimeWait)
    rst = TcpSegment(src_port=PORT, dst_port=key[0], seq=2, ack_no=1002, rst=True, ack=True)
    rig.stack_a._demux(Packet(src="10.0.0.2", dst="10.0.0.1", payload_bytes=0, payload=rst), rst)
    assert len(rig.stack_a._connections) == 0
    assert record.closed.triggered
    if hold:
        assert held[0].state is TcpState.CLOSED
    rig.run(until=1.0)  # the 2 MSL timer then finds nothing to do
    assert len(rig.stack_a._connections) == 0 and rig.stack_a.stats.rst_sent == 0


def test_migration_moves_a_time_wait_connection_whole():
    rig, found, held, _ = close_handshake(hold=True)
    run_until_time_wait(rig, found)
    entered = rig.sim.now
    (conn,) = held
    twin = TcpStack(rig.sim, VirtualNIC(rig.sim, "10.0.0.1", OffloadConfig()))
    key = rig.stack_a.release_connection(conn)
    assert key is not None and len(rig.stack_a._connections) == 0
    twin.adopt_connection(conn)
    assert twin._connections[key] is conn and conn.stack is twin
    fired = []
    conn.closed.add_callback(lambda ev: fired.append(rig.sim.now))
    step_until(rig, 1.0)  # the record left behind still closes it at 2 MSL
    assert fired == [entered + 2 * 0.05] and conn.state is TcpState.CLOSED
    assert len(twin._connections) == 0 and len(rig.stack_a._connections) == 0


def test_connect_to_the_same_4_tuple_during_time_wait_collides():
    rig, found, _, _ = close_handshake(hold=False)
    run_until_time_wait(rig, found)
    port = client_key(rig)[0]
    with pytest.raises(RuntimeError, match="connection collision"):
        rig.stack_a.connect(Endpoint("10.0.0.2", PORT), local_port=port)
    rig.run(until=1.0)
    assert rig.stack_a.connect(Endpoint("10.0.0.2", PORT), local_port=port)


@pytest.mark.parametrize("hold", [True, False], ids=["held", "freed"])
def test_connection_count_counts_time_wait(hold):
    rig, found, _, _ = close_handshake(hold=hold)
    run_until_time_wait(rig, found)
    entered = rig.sim.now
    assert len(rig.stack_a._connections) == 1
    rig.run(until=entered + 0.099)
    assert len(rig.stack_a._connections) == 1
    rig.run(until=entered + 0.101)
    assert len(rig.stack_a._connections) == 0


def test_census_live_connections_are_the_active_ones():
    """After many short connections, the only TcpConnection objects alive
    are the ones still open: none waits out TIME_WAIT in memory."""
    rig = make_linked_stacks()
    listener = rig.stack_b.listen(PORT)
    open_conns = []

    def server(sim):
        while True:  # no local: the last connection accepted is not held
            sim.process(serve((yield listener.accept())))

    def serve(conn):
        while (yield conn.recv(1 << 16)) != 0:
            pass
        conn.close()

    def client(sim, keep_open):
        conn = rig.stack_a.connect(Endpoint("10.0.0.2", PORT))
        yield conn.established
        yield conn.send(512)
        if keep_open:
            open_conns.append(conn)
        else:
            conn.close()

    rig.sim.process(server(rig.sim))
    for k in range(40):
        rig.sim.process(client(rig.sim, keep_open=k % 10 == 0))
    rig.run(until=0.05)  # every short one closed; none past 2 MSL yet
    tables = list(rig.stack_a._connections.values()) + list(
        rig.stack_b._connections.values()
    )
    active = sum(1 for entry in tables if isinstance(entry, TcpConnection))
    waiting = sum(1 for entry in tables if isinstance(entry, TimeWait))
    assert (active, waiting) == (8, 36)
    stacks = (rig.stack_a, rig.stack_b)
    live = sum(
        1
        for obj in gc.get_objects()
        if type(obj) is TcpConnection and obj.stack in stacks
    )
    assert live == active


def test_records_expire_in_one_fifo_per_duration(monkeypatch):
    """Two 2 MSL durations on one stack: each record expires at exactly the
    float ``now + 2 * msl`` of its entry, in entry order within its
    duration, with ``closed`` fired and the demux entry gone, one queue
    pop per record, and never more than one queue entry per duration.
    The FIFO queues the record itself, stamped on the record, and the
    head's queue entry carries the head record's stamp."""
    rig = make_linked_stacks()
    sim, stack = rig.sim, rig.stack_b  # the server closes first and waits
    msls = {PORT: 0.03, PORT + 1: 0.05}
    listeners = {port: stack.listen(port, msl=msl) for port, msl in msls.items()}
    due = {}  # id(record) -> (when it must expire, its msl)
    entered = {msl: [] for msl in msls.values()}
    expired = {msl: [] for msl in msls.values()}

    enter = stack.enter_time_wait

    def entering(conn):
        when = sim.now + 2 * conn.config.msl
        enter(conn)
        record = stack._connections[(conn.local.port, conn.remote.ip, conn.remote.port)]
        assert isinstance(record, TimeWait)
        assert stack._time_wait[2 * conn.config.msl]._items[-1] is record
        assert record.fifo_when == when
        due[id(record)] = (when, conn.config.msl)
        entered[conn.config.msl].append(record)

    expire = TimeWait.expire

    def expiring(record):
        expire(record)
        when, msl = due[id(record)]
        assert sim.now == when
        assert record.closed.triggered and record.key not in stack._connections
        expired[msl].append(record)

    stack.enter_time_wait = entering
    monkeypatch.setattr(TimeWait, "expire", expiring)

    def server(sim, listener):
        while True:
            sim.process(serve((yield listener.accept())))

    def serve(conn):
        yield conn.send(1000)
        conn.close()

    def client(sim, port, start):
        yield sim.timeout(start)
        conn = rig.stack_a.connect(Endpoint("10.0.0.2", port))
        yield conn.established
        while (yield conn.recv(1 << 16)) != 0:
            pass
        conn.close()

    for listener in listeners.values():
        sim.process(server(sim, listener))
    for k in range(12):  # the two durations' entries interleave
        sim.process(client(sim, PORT + k % 2, 0.002 * k))

    fifo_pops = 0
    while sim._queue and peek(sim) <= 1.0:
        heads = [e for e in sim._queue if type(e[2]) is FifoTimer]
        delays = [e[2].delay for e in heads]
        assert len(delays) == len(set(delays))  # one entry per duration
        for when, seq, fifo, _ in heads:
            head = fifo._items[0]
            assert type(head) is TimeWait and (when, seq) == (head.fifo_when, head.fifo_seq)
        if type(sim._queue[0][2]) is FifoTimer:
            fifo_pops += 1
            before = sum(map(len, expired.values()))
            step(sim)
            assert sum(map(len, expired.values())) == before + 1
        else:
            step(sim)

    assert all(len(records) == 6 for records in entered.values())
    assert expired == entered
    assert fifo_pops == 12
    assert sorted(stack._time_wait) == [2 * 0.03, 2 * 0.05]
    assert not any(t for t in stack._time_wait.values() if t._items)


@pytest.mark.parametrize("hold", [True, False], ids=["held", "freed"])
def test_a_record_closed_by_an_rst_expires_as_a_no_op(hold):
    rig, found, held, _ = close_handshake(hold=hold)
    run_until_time_wait(rig, found)
    key = client_key(rig)
    record = rig.stack_a._connections[key]
    rst = TcpSegment(src_port=PORT, dst_port=key[0], seq=2, ack_no=1002, rst=True, ack=True)
    rig.stack_a._demux(Packet(src="10.0.0.2", dst="10.0.0.1", payload_bytes=0, payload=rst), rst)
    assert record.closed.triggered and key not in rig.stack_a._connections
    # The 4-tuple is free again: a new connection takes it before 2 MSL.
    newer = rig.stack_a.connect(Endpoint("10.0.0.2", PORT), local_port=key[0])
    step_until(rig, 1.0)
    assert rig.stack_a._connections[key] is newer
    assert newer.state is TcpState.ESTABLISHED


def test_a_record_whose_connection_migration_adopted_leaves_the_source_alone():
    rig, found, held, _ = close_handshake(hold=True)
    run_until_time_wait(rig, found)
    entered = rig.sim.now
    (conn,) = held
    twin = TcpStack(rig.sim, VirtualNIC(rig.sim, "10.0.0.1", OffloadConfig()))
    key = rig.stack_a.release_connection(conn)
    twin.adopt_connection(conn)
    newer = rig.stack_a.connect(Endpoint("10.0.0.2", PORT), local_port=key[0])
    fired = []
    conn.closed.add_callback(lambda ev: fired.append(rig.sim.now))
    # An RST on the adopting stack closes the connection before 2 MSL.
    rst = TcpSegment(src_port=PORT, dst_port=key[0], seq=2, ack_no=1002, rst=True, ack=True)
    twin._demux(Packet(src="10.0.0.2", dst="10.0.0.1", payload_bytes=0, payload=rst), rst)
    step_until(rig, 1.0)
    assert fired == [entered] and conn.state is TcpState.CLOSED
    assert len(twin._connections) == 0
    assert rig.stack_a._connections[key] is newer
