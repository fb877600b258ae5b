"""TCP protocol behaviour over a simulated link: handshake, transfer,
loss recovery, close, flow control, listener semantics."""

import pytest

from repro.net import Endpoint, IIDLoss
from repro.tcp import ConnectionReset, TcpState
from repro.tcp.segment import TcpSegment

from conftest import make_linked_stacks, transfer


# ------------------------------------------------------------------ handshake --
def test_three_way_handshake_establishes_both_ends():
    rig = make_linked_stacks()
    listener = rig.stack_b.listen(5000)
    server_conn = {}

    def server(sim):
        conn = yield listener.accept()
        server_conn["conn"] = conn

    client = rig.stack_a.connect(Endpoint("10.0.0.2", 5000))
    rig.sim.process(server(rig.sim))
    rig.run(until=1.0)
    assert client.state is TcpState.ESTABLISHED
    assert server_conn["conn"].state is TcpState.ESTABLISHED


def test_connect_to_closed_port_is_reset():
    rig = make_linked_stacks()
    conn = rig.stack_a.connect(Endpoint("10.0.0.2", 9999))
    outcome = {}

    def watcher(sim):
        try:
            yield conn.established
        except ConnectionReset:
            outcome["reset"] = True

    rig.sim.process(watcher(rig.sim))
    rig.run(until=2.0)
    assert outcome.get("reset") is True


def test_syn_retransmits_on_loss():
    # Lose everything briefly: SYN must be retried and finally succeed.
    loss = IIDLoss(1.0)
    rig = make_linked_stacks(loss=loss)
    rig.stack_b.listen(5000)
    conn = rig.stack_a.connect(Endpoint("10.0.0.2", 5000))
    rig.run(until=0.5)
    assert conn.state is TcpState.SYN_SENT
    loss.p = 0.0  # path heals
    rig.run(until=10.0)
    assert conn.state is TcpState.ESTABLISHED
    assert rig.stack_a.stats.segments_out >= 2  # at least one SYN retry


def test_handshake_counts_sequence_space():
    rig = make_linked_stacks()
    rig.stack_b.listen(5000)
    conn = rig.stack_a.connect(Endpoint("10.0.0.2", 5000))
    rig.run(until=1.0)
    assert conn.snd_una == conn.iss + 1
    assert conn.data_seq_base == conn.iss + 1


# ------------------------------------------------------------------- transfer --
def test_bulk_transfer_delivers_every_byte():
    rig = make_linked_stacks()
    result = transfer(rig, total_bytes=2_000_000)
    assert result["received"] == 2_000_000


def test_transfer_with_random_loss_is_reliable():
    rig = make_linked_stacks(loss=IIDLoss(0.02, seed=5))
    result = transfer(rig, total_bytes=500_000)
    assert result["received"] == 500_000
    assert rig.stack_a.stats.retransmits > 0  # the client's stack


def test_transfer_with_ack_loss_is_reliable():
    rig = make_linked_stacks(loss_reverse=IIDLoss(0.05, seed=9))
    result = transfer(rig, total_bytes=500_000)
    assert result["received"] == 500_000


def test_transfer_with_heavy_bidirectional_loss():
    rig = make_linked_stacks(
        loss=IIDLoss(0.05, seed=1), loss_reverse=IIDLoss(0.05, seed=2)
    )
    result = transfer(rig, total_bytes=200_000)
    assert result["received"] == 200_000


def test_transfer_with_tso_supersegments():
    rig = make_linked_stacks(rate_bps=10e9, delay=1e-5, tso=True)
    result = transfer(rig, total_bytes=5_000_000)
    assert result["received"] == 5_000_000


def test_small_writes_deliver_exactly():
    rig = make_linked_stacks()
    result = transfer(rig, total_bytes=10_000, write_size=137)
    assert result["received"] == 10_000


def test_goodput_approaches_link_rate():
    rig = make_linked_stacks(rate_bps=100e6, delay=1e-3, queue_bytes=128 * 1024)
    result = transfer(rig, total_bytes=10_000_000)
    goodput = result["received"] * 8 / result["finished_at"]
    assert goodput > 0.7 * 100e6


def test_retransmissions_do_not_duplicate_data():
    rig = make_linked_stacks(loss=IIDLoss(0.03, seed=3))
    total = 300_000
    result = transfer(rig, total_bytes=total)
    # Receiver-side application got exactly the stream, no more.
    assert result["received"] == total


# ----------------------------------------------------------------- fast rexmit --
def test_fast_retransmit_without_rto():
    """A single dropped segment should be repaired by SACK/dupacks, no RTO."""

    class DropNth:
        def __init__(self, n):
            self.count = 0
            self.n = n

        def should_drop(self, now=0.0):
            self.count += 1
            return self.count == self.n

    rig = make_linked_stacks(loss=DropNth(20))
    result = transfer(rig, total_bytes=1_000_000)
    assert result["received"] == 1_000_000
    # The client's stack carries this one connection.
    assert rig.stack_a.stats.fast_retransmits >= 1
    assert rig.stack_a.stats.timeouts == 0


def test_rto_recovers_tail_loss():
    """True tail loss (last data segment and the FIN both dropped once)
    leaves no later traffic to generate dupacks — only the RTO can repair."""

    rig = make_linked_stacks()
    original = rig.stack_a.nic.transmit
    armed = {"data": True, "fin": True}

    def flaky_transmit(packet):
        seg = packet.payload
        if isinstance(seg, TcpSegment):
            if seg.payload_len > 0 and seg.end_seq >= 100_001 and armed["data"]:
                armed["data"] = False
                return  # swallow the final data segment once
            if seg.fin and armed["fin"]:
                armed["fin"] = False
                return  # swallow the first FIN once
        original(packet)

    rig.stack_a.nic.transmit = flaky_transmit
    result = transfer(rig, total_bytes=100_000)
    assert result["received"] == 100_000
    assert rig.stack_a.stats.timeouts >= 1  # the client's stack


# ----------------------------------------------------------------------- close --
def test_clean_close_reaches_closed_state():
    rig = make_linked_stacks()
    result = transfer(rig, total_bytes=10_000)
    conn = result["client_conn"]
    rig.run(until=rig.sim.now + 5.0)
    assert conn.state in (TcpState.CLOSED, TcpState.TIME_WAIT)


def test_eof_seen_after_all_data():
    rig = make_linked_stacks()
    result = transfer(rig, total_bytes=50_000)
    assert result["received"] == 50_000  # recv() returned 0 only at the end


def test_fin_retransmission_under_loss():
    rig = make_linked_stacks(loss=IIDLoss(0.1, seed=13))
    result = transfer(rig, total_bytes=20_000, time_limit=600.0)
    assert result["received"] == 20_000


def test_connection_removed_from_stack_after_close():
    rig = make_linked_stacks()
    transfer(rig, total_bytes=1_000)
    rig.run(until=rig.sim.now + 10.0)
    assert len(rig.stack_a._connections) == 0
    assert len(rig.stack_b._connections) == 0


# ---------------------------------------------------------------- flow control --
def test_receiver_window_throttles_sender():
    rig = make_linked_stacks()
    listener = rig.stack_b.listen(5000, rcvbuf=20_000)
    state = {}

    def server(sim):
        conn = yield listener.accept()
        state["server"] = conn
        yield sim.timeout(60.0)  # do not read for a long time

    def client(sim):
        conn = rig.stack_a.connect(Endpoint("10.0.0.2", 5000))
        state["client"] = conn
        yield conn.established
        yield conn.send(1_000_000)

    rig.sim.process(server(rig.sim))
    rig.sim.process(client(rig.sim))
    rig.run(until=30.0)
    client_conn = state["client"]
    # The sender cannot have pushed much more than the receive buffer.
    assert client_conn.snd_una - client_conn.data_seq_base <= 25_000  # acked


def test_window_reopens_after_reads():
    rig = make_linked_stacks()
    listener = rig.stack_b.listen(5000, rcvbuf=20_000)
    got = {"n": 0}

    def server(sim):
        conn = yield listener.accept()
        yield sim.timeout(5.0)  # stall first, then drain
        while True:
            n = yield conn.recv(1 << 16)
            if n == 0:
                break
            got["n"] += n

    def client(sim):
        conn = rig.stack_a.connect(Endpoint("10.0.0.2", 5000))
        yield conn.established
        yield conn.send(200_000)
        yield conn.close()

    rig.sim.process(server(rig.sim))
    rig.sim.process(client(rig.sim))
    rig.run(until=120.0)
    assert got["n"] == 200_000


# -------------------------------------------------------------------- listener --
def test_listener_backlog_bounds_pending_accepts():
    rig = make_linked_stacks()
    listener = rig.stack_b.listen(5000, backlog=2)
    for _ in range(5):
        rig.stack_a.connect(Endpoint("10.0.0.2", 5000))
    rig.run(until=2.0)
    assert listener.queue_length <= 2
    assert listener.dropped_full >= 1


def test_listener_accept_event_order():
    rig = make_linked_stacks()
    listener = rig.stack_b.listen(5000)
    accepted = []

    def server(sim):
        for _ in range(3):
            conn = yield listener.accept()
            accepted.append(conn.remote.port)

    rig.sim.process(server(rig.sim))
    ports = []
    for _ in range(3):
        conn = rig.stack_a.connect(Endpoint("10.0.0.2", 5000))
        ports.append(conn.local.port)
    rig.run(until=2.0)
    assert accepted == ports


def test_two_listeners_different_ports():
    rig = make_linked_stacks()
    rig.stack_b.listen(5000)
    rig.stack_b.listen(5001)
    conn_a = rig.stack_a.connect(Endpoint("10.0.0.2", 5000))
    conn_b = rig.stack_a.connect(Endpoint("10.0.0.2", 5001))
    rig.run(until=1.0)
    assert conn_a.state is TcpState.ESTABLISHED
    assert conn_b.state is TcpState.ESTABLISHED


def test_duplicate_listen_rejected():
    rig = make_linked_stacks()
    rig.stack_b.listen(5000)
    with pytest.raises(RuntimeError):
        rig.stack_b.listen(5000)


def test_concurrent_connections_isolated_streams():
    rig = make_linked_stacks()
    listener = rig.stack_b.listen(5000)
    received = {}

    def server(sim):
        while True:
            conn = yield listener.accept()
            sim.process(drain(sim, conn))

    def drain(sim, conn):
        total = 0
        while True:
            n = yield conn.recv(1 << 16)
            if n == 0:
                break
            total += n
        received[conn.remote.port] = total

    def client(sim, nbytes):
        conn = rig.stack_a.connect(Endpoint("10.0.0.2", 5000))
        yield conn.established
        yield conn.send(nbytes)
        yield conn.close()

    rig.sim.process(server(rig.sim))
    sizes = [10_000, 20_000, 30_000]
    for nbytes in sizes:
        rig.sim.process(client(rig.sim, nbytes))
    rig.run(until=60.0)
    assert sorted(received.values()) == sizes
