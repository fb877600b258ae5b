"""Send buffer, out-of-order queue and receive buffer semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Event, Simulator
from repro.tcp import OutOfOrder, ReceiveBuffer, SendBuffer
from repro.tcp.buffers import NOTHING_HELD


# ---------------------------------------------------------------- SendBuffer --
def test_send_buffer_accepts_within_capacity(sim):
    buf = SendBuffer(sim, capacity=100)
    event = buf.write(60)
    assert event.triggered
    assert buf.backlog == 60


def test_send_buffer_blocks_over_capacity(sim):
    buf = SendBuffer(sim, capacity=100)
    buf.write(80)
    blocked = buf.write(50)
    assert not blocked.triggered
    buf.on_ack(40)
    assert blocked.triggered
    assert buf.backlog == 90


def test_send_buffer_write_after_close_raises(sim):
    buf = SendBuffer(sim, capacity=100)
    buf.close()
    with pytest.raises(RuntimeError):
        buf.write(1)


def test_send_buffer_blocked_writes_fifo(sim):
    buf = SendBuffer(sim, capacity=100)
    buf.write(100)
    first = buf.write(10)
    second = buf.write(10)
    buf.on_ack(10)
    assert first.triggered and not second.triggered


def test_send_buffer_validates(sim):
    with pytest.raises(ValueError):
        SendBuffer(sim, capacity=0)
    buf = SendBuffer(sim, capacity=10)
    with pytest.raises(ValueError):
        buf.write(-1)
    with pytest.raises(ValueError):
        buf.on_ack(-1)


# ---------------------------------------------------------------- OutOfOrder --
class Receiver:
    """An owner of an out-of-order queue, kept as a TCP connection or a
    QUIC stream keeps it: ``rcv_nxt`` its own, the queue the shared empty
    one until the first out-of-order arrival."""

    def __init__(self, rcv_nxt=0):
        self.rcv_nxt, self.ooo = rcv_nxt, NOTHING_HELD

    def add(self, seq, length):
        """Take ``[seq, seq + length)``; return how far ``rcv_nxt`` moved."""
        if seq > self.rcv_nxt and self.ooo.read_only:
            self.ooo = OutOfOrder()
        before = self.rcv_nxt
        self.rcv_nxt = self.ooo.receive(before, seq, seq + length)
        return self.rcv_nxt - before

    @property
    def out_of_order_bytes(self):
        return self.ooo.total()

    def sack_blocks(self, limit=3):
        return self.ooo.sack_blocks(limit)


def test_reassembly_in_order_advances():
    rq = Receiver(rcv_nxt=100)
    assert rq.add(100, 50) == 50
    assert rq.rcv_nxt == 150
    assert rq.ooo is NOTHING_HELD  # never held anything


def test_reassembly_out_of_order_holds():
    rq = Receiver(rcv_nxt=0)
    assert rq.add(100, 50) == 0
    assert rq.out_of_order_bytes == 50
    assert rq.add(0, 100) == 150  # fills the gap, releases everything
    assert rq.rcv_nxt == 150
    assert rq.out_of_order_bytes == 0


def test_reassembly_duplicate_ignored():
    rq = Receiver(rcv_nxt=0)
    rq.add(0, 100)
    assert rq.add(0, 100) == 0
    assert rq.add(50, 50) == 0


def test_reassembly_partial_overlap():
    rq = Receiver(rcv_nxt=0)
    rq.add(0, 100)
    assert rq.add(50, 100) == 50
    assert rq.rcv_nxt == 150


def test_reassembly_sack_blocks_reflect_ooo():
    rq = Receiver(rcv_nxt=0)
    rq.add(100, 50)
    rq.add(200, 50)
    blocks = rq.sack_blocks()
    assert set(blocks) == {(100, 150), (200, 250)}


def test_reassembly_sack_blocks_rotate_fresh_first():
    rq = Receiver(rcv_nxt=0)
    for i in range(5):
        rq.add(100 * (i + 1), 10)
    rq.add(700, 10)  # freshest
    blocks = rq.sack_blocks(limit=3)
    assert blocks[0] == (700, 710)
    assert len(blocks) == 3


def test_reassembly_negative_length_rejected():
    with pytest.raises(ValueError):
        OutOfOrder().receive(0, 10, 9)
    with pytest.raises(ValueError):
        NOTHING_HELD.receive(0, 0, -1)


@settings(max_examples=150, deadline=None)
@given(
    segments=st.permutations(list(range(10))),
)
def test_property_reassembly_delivers_every_byte_once(segments):
    """Segments arriving in any order release each byte exactly once."""
    rq = Receiver(rcv_nxt=0)
    delivered = 0
    for index in segments:
        delivered += rq.add(index * 100, 100)
    assert delivered == 1000
    assert rq.rcv_nxt == 1000
    assert rq.out_of_order_bytes == 0


class ListReassembly:
    """Reference model: the list-copying queue the indexed one replaced."""

    def __init__(self):
        self.rcv_nxt, self.ooo = 0, []
        self.last_touched, self.rotate = None, 0

    def add(self, seq, length):
        end = seq + length
        if end <= self.rcv_nxt:
            return 0
        seq = max(seq, self.rcv_nxt)
        held = set()
        for lo, hi in self.ooo + [(seq, end)]:
            held.update(range(lo, hi))
        self.last_touched = seq
        before = self.rcv_nxt
        while self.rcv_nxt in held:
            self.rcv_nxt += 1
        points = sorted(x for x in held if x >= self.rcv_nxt)
        self.ooo = []
        for x in points:
            if self.ooo and self.ooo[-1][1] == x:
                self.ooo[-1] = (self.ooo[-1][0], x + 1)
            else:
                self.ooo.append((x, x + 1))
        return self.rcv_nxt - before

    def sack_blocks(self, limit):
        intervals = list(self.ooo)
        if len(intervals) <= limit:
            return tuple(intervals)
        blocks, fresh = [], None
        if self.last_touched is not None:
            for lo, hi in intervals:
                if lo <= self.last_touched < hi:
                    fresh = (lo, hi)
                    break
        if fresh is not None:
            blocks.append(fresh)
        others = [iv for iv in intervals if iv != fresh]
        for i in range(limit - len(blocks)):
            blocks.append(others[(self.rotate + i) % len(others)])
        self.rotate = (self.rotate + limit - 1) % max(1, len(others))
        return tuple(blocks)


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 4), st.integers(1, 4)),
        max_size=60,
    )
)
def test_property_reassembly_matches_list_model(steps):
    """Same bytes released, same SACK blocks in the same rotation, whether
    a segment takes the in-order fast path or the out-of-order one."""
    rq, model = Receiver(rcv_nxt=0), ListReassembly()
    for slot, length, limit in steps:
        # 5-byte slots: in-order, duplicate, overlapping and far-ahead
        # arrivals all occur; length 0 is a bare ACK.
        assert rq.add(5 * slot, 3 * length) == model.add(5 * slot, 3 * length)
        assert rq.rcv_nxt == model.rcv_nxt
        assert rq.out_of_order_bytes == sum(hi - lo for lo, hi in model.ooo)
        assert rq.sack_blocks(limit) == model.sack_blocks(limit)


# -------------------------------------------------------------- ReceiveBuffer --
def test_receive_buffer_read_blocks_until_data(sim):
    buf = ReceiveBuffer(sim)
    read = buf.read(100)
    assert not read.triggered
    buf.deliver(40)
    assert read.triggered and read.value == 40


def test_receive_buffer_partial_read(sim):
    buf = ReceiveBuffer(sim)
    buf.deliver(100)
    read = buf.read(30)
    assert read.value == 30
    assert buf.available == 70


def test_receive_buffer_eof_returns_zero(sim):
    buf = ReceiveBuffer(sim)
    buf.deliver_eof()
    assert buf.read(10).value == 0


def test_receive_buffer_drains_before_eof(sim):
    buf = ReceiveBuffer(sim)
    buf.deliver(5)
    buf.deliver_eof()
    assert buf.read(10).value == 5
    assert buf.read(10).value == 0


def test_receive_buffer_window_shrinks_with_backlog(sim):
    buf = ReceiveBuffer(sim, capacity=1000)
    assert buf.window() == 1000
    buf.deliver(300)
    assert buf.window() == 700
    assert buf.window(out_of_order_bytes=200) == 500


def test_receive_buffer_window_never_negative(sim):
    buf = ReceiveBuffer(sim, capacity=100)
    buf.deliver(150)
    assert buf.window() == 0


def test_receive_buffer_wait_readable(sim):
    buf = ReceiveBuffer(sim)
    watcher = Event(sim)
    buf.watch(watcher)
    assert not watcher.triggered
    buf.deliver(1)
    assert watcher.triggered
    # Readable-now case fires immediately.
    now = Event(sim)
    buf.watch(now)
    assert now.triggered


def test_receive_buffer_readers_fifo(sim):
    buf = ReceiveBuffer(sim)
    first = buf.read(10)
    second = buf.read(10)
    buf.deliver(15)
    assert first.value == 10
    assert second.value == 5


# ------------------------------------------- continuation waiters vs Events --
# A waiter is an Event or a continuation ``(func, args)``; a continuation
# must become its own queue entry exactly where the Event's ``succeed``
# would have pushed one.  Each step is (gap before it, kind, bytes, style).
WAITER_STEPS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.0, 1e-6, 5e-6]),
        st.sampled_from(["write", "ack", "deliver", "read", "watch"]),
        st.integers(1, 100),
        st.sampled_from(["event", "call"]),
    ),
    min_size=1,
    max_size=30,
)


def _waiter_fire_log(steps, all_events):
    sim = Simulator()
    sndbuf, rcvbuf = SendBuffer(sim, capacity=100), ReceiveBuffer(sim)
    log = []

    def fire(label):
        log.append((sim.now, label))

    def step(i, kind, nbytes, style):
        fire(("step", i))
        as_event = all_events or style == "event"
        if kind == "write":
            if as_event:
                sndbuf.write(nbytes).add_callback(lambda _ev: fire(("written", i)))
            else:
                sndbuf.admit(nbytes, (fire, (("written", i),)))
        elif kind == "ack":
            sndbuf.on_ack(min(nbytes, sndbuf.backlog))
        elif kind == "deliver":
            rcvbuf.deliver(nbytes)
        elif kind == "read":
            rcvbuf.try_read(nbytes)
        elif as_event:
            readable = Event(sim)
            rcvbuf.watch(readable)
            readable.add_callback(lambda _ev: fire(("readable", i)))
        else:
            rcvbuf.watch((fire, (("readable", i),)))

    at = 0.0
    for i, (gap, kind, nbytes, style) in enumerate(steps):
        at += gap
        sim.schedule_call(at, step, i, kind, nbytes, style)
    sim.run()
    return log, sim.events_processed


@settings(max_examples=300, deadline=None)
@given(steps=WAITER_STEPS)
def test_continuation_waiters_fire_where_their_events_would(steps):
    """Blocked writes, ACKs, deliveries and reads, with each waiter either
    a continuation or an Event (``send().add_callback`` /
    ``watch(event)`` then ``add_callback``): the fire log — exact times, exact
    order — and the event count equal those of the all-Event run."""
    assert _waiter_fire_log(steps, all_events=False) == _waiter_fire_log(
        steps, all_events=True
    )
