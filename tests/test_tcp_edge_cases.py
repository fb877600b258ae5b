"""TCP edge cases: Nagle, reordering, simultaneous activity, persist."""

import pytest

from repro.net import DuplexLink, Endpoint, OffloadConfig, VirtualNIC
from repro.sim import Simulator
from repro.tcp import StackConfig, TcpStack, TcpState

from conftest import make_linked_stacks, transfer


# ---------------------------------------------------------------------- Nagle --
def _nagle_rig(nagle):
    rig = make_linked_stacks()
    rig.stack_a.config.tcp.nagle = nagle
    return rig


def count_runt_segments(rig, nbytes_each=10, writes=20):
    """Send many tiny writes back to back; return (bytes delivered, the
    sending stack's stats), the stack carrying this one connection."""
    listener = rig.stack_b.listen(5000)
    state = {}

    def server(sim):
        conn = yield listener.accept()
        total = 0
        while total < nbytes_each * writes:
            n = yield conn.recv(1 << 16)
            if n == 0:
                break
            total += n
        state["total"] = total

    def client(sim):
        conn = rig.stack_a.connect(Endpoint("10.0.0.2", 5000))
        yield conn.established
        for _ in range(writes):
            yield conn.send(nbytes_each)
        yield conn.close()

    rig.sim.process(server(rig.sim))
    rig.sim.process(client(rig.sim))
    rig.run(until=30.0)
    return state["total"], rig.stack_a.stats


def test_nagle_coalesces_tiny_writes():
    _total_off, off = count_runt_segments(_nagle_rig(False))
    total_on, on = count_runt_segments(_nagle_rig(True))
    assert total_on == 200  # everything still arrives
    # With Nagle the runts coalesce into far fewer data-bearing segments.
    assert on.bytes_out == off.bytes_out
    assert on.segments_out < off.segments_out


def test_nagle_does_not_deadlock_final_runt():
    rig = _nagle_rig(True)
    result = transfer(rig, total_bytes=10_011, write_size=1000)
    assert result["received"] == 10_011


# ----------------------------------------------------------------- reordering --
def test_transfer_survives_reordering():
    rig = make_linked_stacks()
    rig.link.a_to_b.jitter = 0.004  # 4 ms of independent per-packet jitter
    rig.link.a_to_b._jitter_rng.seed(7)
    result = transfer(rig, total_bytes=500_000)
    assert result["received"] == 500_000


def test_reordering_plus_loss_still_reliable():
    from repro.net import IIDLoss

    rig = make_linked_stacks(loss=IIDLoss(0.02, seed=11))
    rig.link.a_to_b.jitter = 0.003
    result = transfer(rig, total_bytes=300_000)
    assert result["received"] == 300_000


def test_ack_path_reordering_is_harmless():
    rig = make_linked_stacks()
    rig.link.b_to_a.jitter = 0.004
    result = transfer(rig, total_bytes=300_000)
    assert result["received"] == 300_000


def test_link_jitter_validation(sim):
    from repro.net import Link

    with pytest.raises(ValueError):
        Link(sim, rate_bps=1e9, propagation_delay=0, jitter=-1.0)


def test_link_jitter_replays_exactly():
    """The jitter stream is seeded from the link's name, so two fresh
    links (as in two runs) delay the same packets by the same amounts."""
    from repro.net import Link, Packet
    from repro.sim import Simulator

    def arrivals():
        sim = Simulator()
        times = []
        link = Link(sim, 1e9, 1e-4, jitter=1e-4)
        link.deliver = lambda packet: times.append(sim.now)
        for _ in range(3):
            link.send(Packet(src="10.0.0.1", dst="10.0.0.2", payload_bytes=100))
        sim.run()
        return times

    first = arrivals()
    assert len(first) == 3 and len(set(first)) == 3
    assert arrivals() == first


# ------------------------------------------------------------------- persist --
def test_zero_window_then_reopen_completes():
    """Receiver stalls long enough to close the window fully, then drains."""
    rig = make_linked_stacks()
    listener = rig.stack_b.listen(5000, rcvbuf=8_000)
    got = {"n": 0}

    def server(sim):
        conn = yield listener.accept()
        yield sim.timeout(8.0)
        while True:
            n = yield conn.recv(1 << 16)
            if n == 0:
                break
            got["n"] += n

    def client(sim):
        conn = rig.stack_a.connect(Endpoint("10.0.0.2", 5000))
        yield conn.established
        yield conn.send(60_000)
        yield conn.close()

    rig.sim.process(server(rig.sim))
    rig.sim.process(client(rig.sim))
    rig.run(until=120.0)
    assert got["n"] == 60_000


# ----------------------------------------------------- simultaneous behaviours --
def test_bidirectional_transfer_on_one_connection():
    rig = make_linked_stacks()
    listener = rig.stack_b.listen(5000)
    done = {}

    def server(sim):
        conn = yield listener.accept()
        sent = 0
        while sent < 100_000:
            yield conn.send(10_000)
            sent += 10_000
        got = 0
        while got < 100_000:
            n = yield conn.recv(1 << 16)
            if n == 0:
                break
            got += n
        done["server"] = got

    def client(sim):
        conn = rig.stack_a.connect(Endpoint("10.0.0.2", 5000))
        yield conn.established
        sent = 0
        while sent < 100_000:
            yield conn.send(10_000)
            sent += 10_000
        got = 0
        while got < 100_000:
            n = yield conn.recv(1 << 16)
            if n == 0:
                break
            got += n
        done["client"] = got

    rig.sim.process(server(rig.sim))
    rig.sim.process(client(rig.sim))
    rig.run(until=60.0)
    assert done == {"server": 100_000, "client": 100_000}


def test_both_sides_close_simultaneously():
    rig = make_linked_stacks()
    listener = rig.stack_b.listen(5000)
    states = {}

    def server(sim):
        conn = yield listener.accept()
        states["server"] = conn
        yield sim.timeout(0.5)
        yield conn.close()

    def client(sim):
        conn = rig.stack_a.connect(Endpoint("10.0.0.2", 5000))
        states["client"] = conn
        yield conn.established
        yield sim.timeout(0.5)
        yield conn.close()

    rig.sim.process(server(rig.sim))
    rig.sim.process(client(rig.sim))
    rig.run(until=30.0)
    assert states["client"].state is TcpState.CLOSED
    assert states["server"].state is TcpState.CLOSED


def test_abort_sends_rst_and_peer_sees_eof():
    rig = make_linked_stacks()
    listener = rig.stack_b.listen(5000)
    observed = {}

    def server(sim):
        conn = yield listener.accept()
        n = yield conn.recv(100)
        observed["read"] = n

    def client(sim):
        conn = rig.stack_a.connect(Endpoint("10.0.0.2", 5000))
        yield conn.established
        conn.abort()

    rig.sim.process(server(rig.sim))
    rig.sim.process(client(rig.sim))
    rig.run(until=5.0)
    assert observed["read"] == 0  # reset surfaces as EOF to the reader


def test_many_sequential_connections_reuse_cleanly():
    rig = make_linked_stacks()
    listener = rig.stack_b.listen(5000)
    served = []

    def server(sim):
        while True:
            conn = yield listener.accept()
            n = yield conn.recv(1 << 16)
            served.append(n)
            yield conn.close()

    def clients(sim):
        for i in range(20):
            conn = rig.stack_a.connect(Endpoint("10.0.0.2", 5000))
            yield conn.established
            yield conn.send(100 + i)
            yield conn.close()
            yield sim.timeout(0.2)

    rig.sim.process(server(rig.sim))
    rig.sim.process(clients(rig.sim))
    rig.run(until=60.0)
    assert served == [100 + i for i in range(20)]
    rig.run(until=rig.sim.now + 5.0)
    assert len(rig.stack_a._connections) == 0


def test_segment_describe_renders():
    from repro.tcp import TcpSegment

    seg = TcpSegment(src_port=1, dst_port=2, seq=10, ack_no=5, payload_len=3,
                     syn=True, ack=True)
    text = seg.describe()
    assert "SA" in text and "seq=10" in text and "len=3" in text
