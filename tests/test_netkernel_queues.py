"""nqe rings: FIFO, capacity backpressure, doorbells, priority classes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.host.cpu import Core
from repro.netkernel import Nqe, NotifyMode, NqeOp, NqeRing, PriorityNqeRing
from repro.netkernel.nqe import CONNECTION_EVENT_OPS
from repro.netkernel.queues import RingPump, soft_interrupt
from repro.sim import Simulator

from conftest import peek


def data_nqe():
    return Nqe(op=NqeOp.DATA, vm_id=1, fd=3)


def conn_nqe(op=NqeOp.CONNECT):
    return Nqe(op=op, vm_id=1, fd=3)


def test_ring_fifo(sim):
    ring = NqeRing(sim)
    first, second = data_nqe(), data_nqe()
    ring.push(first)
    ring.push(second)
    assert ring.try_pop() is first
    assert ring.try_pop() is second
    assert ring.try_pop() is None


def test_ring_capacity_backpressures(sim):
    ring = NqeRing(sim, capacity=1)
    ring.push(data_nqe())
    blocked = ring.push(data_nqe())
    assert not blocked.triggered
    ring.try_pop()
    assert blocked.triggered


def test_ring_try_push(sim):
    ring = NqeRing(sim, capacity=1)
    assert ring.try_push(data_nqe())
    assert not ring.try_push(data_nqe())


def test_ring_doorbell_fires_on_push(sim):
    ring = NqeRing(sim)
    doorbell = ring.wait_nonempty()
    assert not doorbell.triggered
    ring.push(data_nqe())
    assert doorbell.triggered


def test_ring_doorbell_immediate_when_nonempty(sim):
    ring = NqeRing(sim)
    ring.push(data_nqe())
    assert ring.wait_nonempty().triggered


def test_ring_pop_batch_limits(sim):
    ring = NqeRing(sim)
    for _ in range(10):
        ring.push(data_nqe())
    assert len(ring.pop_batch(max_items=4)) == 4
    assert len(ring) == 6


def test_ring_counters_and_watermark(sim):
    ring = NqeRing(sim)
    for _ in range(5):
        ring.push(data_nqe())
    ring.pop_batch()
    assert ring.total_pushed == 5
    assert ring.total_popped == 5
    assert ring.high_watermark == 5


def test_ring_rejects_bad_capacity(sim):
    with pytest.raises(ValueError):
        NqeRing(sim, capacity=0)


# ------------------------------------------------------------- priority ring --
def test_priority_ring_serves_connection_events_first(sim):
    ring = PriorityNqeRing(sim)
    data = [data_nqe() for _ in range(3)]
    for nqe in data:
        ring.push(nqe)
    connect = conn_nqe()
    ring.push(connect)
    assert ring.try_pop() is connect  # jumps the data backlog
    assert ring.try_pop() is data[0]


def test_priority_ring_fifo_within_class(sim):
    ring = PriorityNqeRing(sim)
    first, second = conn_nqe(NqeOp.CONNECT), conn_nqe(NqeOp.CLOSE)
    ring.push(first)
    ring.push(second)
    assert ring.try_pop() is first
    assert ring.try_pop() is second


def test_priority_ring_length_spans_both_classes(sim):
    ring = PriorityNqeRing(sim)
    ring.push(data_nqe())
    ring.push(conn_nqe())
    assert len(ring) == 2


def test_connection_event_classification():
    assert Nqe(op=NqeOp.CONNECT).is_connection_event
    assert Nqe(op=NqeOp.ACCEPT_EVENT).is_connection_event
    assert not Nqe(op=NqeOp.DATA).is_connection_event
    assert not Nqe(op=NqeOp.SEND).is_connection_event


def test_completion_nqe_mirrors_request():
    request = Nqe(op=NqeOp.BIND, vm_id=2, fd=7, nsm_id=1, cid=9, args=80)
    completion = request.completion(result="ok")
    assert completion.op is NqeOp.COMPLETION
    assert completion.token == request.token
    assert completion.vm_id == 2 and completion.fd == 7
    assert completion.args is NqeOp.BIND
    assert completion.result == "ok"


@settings(max_examples=80, deadline=None)
@given(
    ops=st.lists(
        st.sampled_from([NqeOp.DATA, NqeOp.SEND, NqeOp.CONNECT, NqeOp.CLOSE]),
        min_size=1,
        max_size=40,
    )
)
def test_property_priority_ring_is_stable_two_class_order(ops):
    """Pop order == all connection events (FIFO) before data events (FIFO),
    for any interleaving — given no interleaved pushes/pops."""
    sim = Simulator()
    ring = PriorityNqeRing(sim)
    pushed = [Nqe(op=op) for op in ops]
    for nqe in pushed:
        ring.push(nqe)
    popped = []
    while True:
        nqe = ring.try_pop()
        if nqe is None:
            break
        popped.append(nqe)
    expected = [n for n in pushed if n.is_connection_event] + [
        n for n in pushed if not n.is_connection_event
    ]
    assert popped == expected


@settings(max_examples=80, deadline=None)
@given(count=st.integers(1, 60), capacity=st.integers(1, 10))
def test_property_ring_conserves_elements_under_backpressure(count, capacity):
    """Every pushed nqe is eventually popped exactly once, in order."""
    sim = Simulator()
    ring = NqeRing(sim, capacity=capacity)
    pushed = [Nqe(op=NqeOp.DATA, token=i) for i in range(count)]
    popped = []

    def producer(sim):
        for nqe in pushed:
            yield ring.push(nqe)

    def consumer(sim):
        while len(popped) < count:
            yield ring.wait_nonempty()
            yield sim.timeout(0.001)
            popped.extend(ring.pop_batch())

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run(until=120)
    assert popped == pushed


# ------------------------------------------------- fault tolerance (PR 3) --
def test_push_timeout_raises_queue_timeout(sim):
    from repro.netkernel import QueueTimeout

    ring = NqeRing(sim, capacity=1)
    ring.push(data_nqe())
    blocked = ring.push(data_nqe(), timeout=0.01)
    failures = []
    blocked.add_callback(lambda ev: failures.append(ev.value) if not ev.ok else None)
    sim.run(until=0.02)
    assert len(failures) == 1
    assert isinstance(failures[0], QueueTimeout)
    assert ring.push_timeouts == 1


def test_push_timeout_cancelled_on_admission(sim):
    ring = NqeRing(sim, capacity=1)
    ring.push(data_nqe())
    waiting = data_nqe()
    blocked = ring.push(waiting, timeout=0.01)
    ring.try_pop()  # space frees before the deadline
    assert blocked.triggered and blocked.ok
    sim.run(until=0.05)  # the armed timer fires harmlessly
    assert ring.push_timeouts == 0
    assert ring.try_pop() is waiting


def test_timed_out_nqe_never_enters_ring(sim):
    ring = NqeRing(sim, capacity=1)
    occupant = data_nqe()
    ring.push(occupant)
    ring.push(data_nqe(), timeout=0.005)
    sim.run(until=0.01)  # deadline passes while the ring is still full
    ring.try_pop()
    assert ring.try_pop() is None  # the timed-out putter was removed


def test_offer_and_push_deliver_in_identical_order_when_full(sim):
    """offer() (fire-and-forget) and push() (event) share one FIFO of
    backpressured putters: arrival order is delivery order."""

    def drain(ring):
        popped = []
        while True:
            nqe = ring.try_pop()
            if nqe is None:
                return popped
            popped.append(nqe)

    mixed = NqeRing(sim, capacity=2)
    pure = NqeRing(sim, capacity=2)
    mixed_nqes = [Nqe(op=NqeOp.DATA, token=i) for i in range(5)]
    pure_nqes = [Nqe(op=NqeOp.DATA, token=i) for i in range(5)]
    # Interleave offer/push against one ring, push-only against the other.
    mixed.push(mixed_nqes[0])
    mixed.push(mixed_nqes[1])
    mixed.offer(mixed_nqes[2])  # full: queued behind the backpressure list
    mixed.push(mixed_nqes[3])
    mixed.offer(mixed_nqes[4])
    for nqe in pure_nqes:
        pure.push(nqe)
    assert [n.token for n in drain(mixed)] == [n.token for n in drain(pure)]
    assert [n.token for n in drain(mixed)] == []  # both fully drained


def test_corrupt_drop_frees_data_descriptors(sim):
    from repro.netkernel.hugepages import HugePageRegion

    region = HugePageRegion(sim, memcpy=None)
    chunk = region.try_alloc(4096)
    ring = NqeRing(sim, capacity=4)
    ring.push(Nqe(op=NqeOp.DATA, data_desc=chunk))
    assert ring.corrupt_drop(2) == 1  # only one nqe was queued
    assert chunk.freed
    assert len(ring) == 0


def test_corrupt_duplicate_skips_data_carrying_nqes(sim):
    from repro.netkernel.hugepages import HugePageRegion

    region = HugePageRegion(sim, memcpy=None)
    ring = NqeRing(sim, capacity=8)
    ring.push(Nqe(op=NqeOp.DATA, data_desc=region.try_alloc(4096)))
    ring.push(conn_nqe())
    assert ring.corrupt_duplicate(2) == 1  # the DATA nqe cannot be duplicated
    assert len(ring) == 3


def test_drain_empties_and_unblocks(sim):
    ring = NqeRing(sim, capacity=2)
    ring.push(data_nqe())
    ring.push(data_nqe())
    blocked = ring.push(data_nqe())
    assert not blocked.triggered
    drained = ring.drain()
    assert len(drained) == 2
    assert blocked.triggered  # backpressured putter admitted into the space
    assert len(ring) == 1


# ------------------------------------------------------------- ring consumer --
class _Probe:
    """A RingPump's three hooks, recording what ran when."""

    def __init__(self, sim, block_on=()):
        self.sim = sim
        self.block_on = set(block_on)
        self.begun, self.handled, self.ended = [], [], []

    def begin(self, nqe):
        self.begun.append(nqe.token)
        return nqe.token

    def handle(self, nqe, token):
        assert token == nqe.token
        if token in self.block_on:
            return self._block(nqe)
        self.handled.append((token, self.sim.now))
        return None

    def _block(self, nqe):
        yield self.sim.timeout(1e-3)
        self.handled.append((nqe.token, self.sim.now))

    def end(self, token):
        self.ended.append(token)

    def pump(self, ring, core, cost, **kwargs):
        return RingPump(ring, core, cost, self.handle, self.begin, self.end, **kwargs)


def tokens(count):
    return [Nqe(op=NqeOp.DATA, token=i) for i in range(count)]


def test_pump_picks_its_drive_from_what_it_was_given(sim):
    core = Core(sim)
    probe = _Probe(sim)
    assert probe.pump(NqeRing(sim), core, 1e-6).event_driven
    assert not probe.pump(NqeRing(sim), core, 1e-6, wake=(1e-5, 2e-6)).event_driven
    assert not probe.pump(NqeRing(sim), core, 1e-6, blocking=True).event_driven
    assert soft_interrupt(NotifyMode.POLLING) is None
    assert soft_interrupt(NotifyMode.BATCHED_INTERRUPT, 0.5) == (10e-6, 2000.0 * 0.5 * 1e-9)


def test_pump_burst_of_one_charges_once_through_try_pop(sim, monkeypatch):
    ring, core = NqeRing(sim), Core(sim)
    probe = _Probe(sim)
    probe.pump(ring, core, 5e-6)
    monkeypatch.setattr(ring, "pop_batch", lambda *a: pytest.fail("pop_batch in the chain"))
    ring.offer(tokens(1)[0])
    sim.run(until=1.0)
    assert probe.handled == [(0, 5e-6)]
    assert (core.ops, core.busy_seconds) == (1, 5e-6)
    assert probe.begun == probe.ended == [0]


def test_pump_unbatched_policy_charges_the_constant_per_nqe(sim):
    ring, core = NqeRing(sim), Core(sim)
    probe = _Probe(sim)
    probe.pump(ring, core, 200e-9)
    for nqe in tokens(3):
        ring.offer(nqe)
    sim.run(until=1.0)
    assert core.ops == 3  # one charge each, never a burst
    assert core.busy_seconds == 200e-9 + 200e-9 + 200e-9
    assert [t for t, _ in probe.handled] == [0, 1, 2]


def test_pump_charges_what_queued_behind_the_first_charge_one_by_one(sim):
    ring, core = NqeRing(sim), Core(sim)
    probe = _Probe(sim)
    probe.pump(ring, core, 1e-6)
    for nqe in tokens(7):
        ring.offer(nqe)  # the first notifies at once; six queue behind its charge
    sim.run(until=1.0)
    assert core.ops == 7
    assert core.busy_seconds == pytest.approx(7 * 1e-6)
    assert probe.begun == probe.ended == list(range(7))
    assert probe.handled == [(t, pytest.approx((t + 1) * 1e-6)) for t in range(7)]


def test_pump_handler_blocking_mid_burst_resumes_the_rest_in_order(sim):
    ring, core = NqeRing(sim), Core(sim)
    probe = _Probe(sim, block_on={2})
    probe.pump(ring, core, 1e-6)
    for nqe in tokens(5):
        ring.offer(nqe)
    sim.run(until=1.0)
    assert [t for t, _ in probe.handled] == [0, 1, 2, 3, 4]
    assert probe.ended == [0, 1, 2, 3, 4]  # exactly once each, in order
    blocked_until = probe.handled[2][1]
    assert blocked_until == pytest.approx(3e-6 + 1e-3)
    # The next nqe is popped and charged only once the block is over.
    assert probe.handled[3][1] == pytest.approx(blocked_until + 1e-6)
    assert len(ring) == 0


def test_pump_stop_then_resume_loses_nothing(sim):
    """Migration's freeze/resume: ``stopped`` set, cleared, ``notify()``."""
    ring, core = NqeRing(sim), Core(sim)
    probe = _Probe(sim)
    pump = probe.pump(ring, core, 1e-6)
    batch = tokens(6)
    for nqe in batch[:3]:
        ring.offer(nqe)
    pump.stop()
    sim.run(until=0.5)
    assert [t for t, _ in probe.handled] == [0]  # the charge in flight finishes
    for nqe in batch[3:]:
        ring.offer(nqe)
    assert len(ring) == 5  # frozen: ops queue in the ring
    pump.stopped = False
    pump.notify()
    sim.run(until=1.0)
    assert [t for t, _ in probe.handled] == list(range(6))
    assert probe.ended == list(range(6))


def test_pump_notify_on_an_empty_ring_stays_idle(sim):
    """Live migration resumes a paused job pump with ``notify()`` whether
    or not ops queued during the freeze: on an empty ring it must charge
    nothing and stay idle, so the next push still wakes it."""
    ring, core = NqeRing(sim), Core(sim)
    probe = _Probe(sim)
    pump = probe.pump(ring, core, 1e-6)
    pump.stop()
    pump.stopped = False
    pump.notify()
    assert pump.idle and core.ops == 0 and peek(sim) == float("inf")
    ring.offer(tokens(1)[0])
    sim.run(until=1.0)
    assert [t for t, _ in probe.handled] == [0] and pump.idle


def test_pump_loop_pays_wake_once_per_doorbell_and_drains_at_most_64(sim):
    ring, core = NqeRing(sim), Core(sim)
    probe = _Probe(sim)
    wake_delay, wake_cost, cost = 10e-6, 2e-6, 1e-6
    probe.pump(ring, core, cost, wake=(wake_delay, wake_cost))
    for nqe in tokens(70):
        ring.offer(nqe)
    sim.run(until=wake_delay + wake_cost + 64 * cost + wake_delay / 2)
    # First doorbell: one wake, 64 nqes; the other six wait for the next.
    assert len(probe.handled) == 64 and len(ring) == 6
    assert core.ops == 1 + 64
    sim.run(until=1.0)
    assert [t for t, _ in probe.handled] == list(range(70))
    assert core.ops == 2 + 70
    assert core.busy_seconds == pytest.approx(2 * wake_cost + 70 * cost)


def test_pump_loop_charges_each_nqe_and_waits_out_blocking_handlers(sim):
    ring, core = NqeRing(sim), Core(sim)
    probe = _Probe(sim, block_on={1})
    probe.pump(ring, core, 1e-6, blocking=True)
    for nqe in tokens(6):
        ring.offer(nqe)
    sim.run(until=1.0)
    assert core.ops == 6  # one charge per nqe, no wake
    assert [t for t, _ in probe.handled] == list(range(6))
    assert probe.ended == list(range(6))
    # nqe 2 is charged only after nqe 1's handler unblocks.
    assert probe.handled[2][1] == pytest.approx(probe.handled[1][1] + 1e-6)


def test_pump_loop_stops_for_good(sim):
    ring, core = NqeRing(sim), Core(sim)
    probe = _Probe(sim)
    pump = probe.pump(ring, core, 1e-6, wake=(1e-5, 0.0))
    pump.stop()
    ring.offer(tokens(1)[0])
    sim.run(until=1.0)
    assert probe.handled == [] and len(ring) == 1
