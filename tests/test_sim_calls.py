"""Scheduled calls are bare queue entries; events allocate callbacks lazily.

The kernel's queue holds ``(when, seq, target, args)``.  These tests pin
what that format must not change: fire order is exactly ``(time, seq)``
whatever mix of entry kinds shares the queue and however the run is
driven, ``Core.execute_call`` lands on the float ``Core.execute`` would
have, and an event without waiters behaves like one with an empty list.
"""

import gc
import heapq
import tracemalloc
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.host import Core
from repro.sim import Deadline, Event, Simulator, Timeout

from conftest import peek, step

# Zero, equal-time ties, microseconds (nqe and wire hops) and a far timer
# (an RTO's 200 ms).
DELAYS = st.sampled_from([0.0, 0.0, 1e-6, 1e-6, 3e-6, 8e-6, 1e-3, 0.2])
KINDS = st.sampled_from(["call", "timeout", "succeed", "execute_call"])

# An op is (kind, delay, children); children are issued when the op fires.
OPS = st.recursive(
    st.tuples(KINDS, DELAYS, st.just(())),
    lambda children: st.tuples(KINDS, DELAYS, st.lists(children, max_size=3).map(tuple)),
    max_leaves=25,
)

DRIVES = st.lists(
    st.one_of(
        st.tuples(
            st.just("until"),
            st.sampled_from([0.0, 1e-6, 2e-6, 4e-6, 1e-3, 0.2, 0.3]),
        ),
        st.tuples(st.just("step"), st.integers(1, 4)),
    ),
    max_size=5,
)


def reference_order(program):
    """The same program on a plain heapq: [(time, label), ...] in fire order."""
    heap, seq, labels = [], count(), count()
    state = {"now": 0.0, "busy_until": 0.0}

    def issue(op):
        kind, delay, children = op
        now = state["now"]
        if kind == "succeed":
            when = now
        elif kind == "execute_call":
            start = max(now, state["busy_until"])
            finish = state["busy_until"] = start + delay
            when = now + (finish - now)
        else:
            when = now + delay
        heapq.heappush(heap, (when, next(seq), next(labels), children))

    for op in program:
        issue(op)
    fired = []
    while heap:
        when, _seq, label, children = heapq.heappop(heap)
        state["now"] = when
        fired.append((when, label))
        for op in children:
            issue(op)
    return fired


class Rig:
    """Issues the same ops against a real Simulator, logging what fires."""

    def __init__(self):
        self.sim = Simulator()
        self.core = Core(self.sim)
        self.labels = count()
        self.fired = []

    def fire(self, label, children):
        self.fired.append((self.sim.now, label))
        for op in children:
            self.issue(op)

    def issue(self, op):
        kind, delay, children = op
        sim, label = self.sim, next(self.labels)
        if kind == "call":
            assert sim.schedule_call(delay, self.fire, label, children) is None
        elif kind == "timeout":
            sim.timeout(delay).add_callback(lambda _ev: self.fire(label, children))
        elif kind == "succeed":
            event = Event(sim)
            event.add_callback(lambda _ev: self.fire(label, children))
            event.succeed()
        else:
            assert self.core.execute_call(delay, self.fire, label, children) is None


@settings(max_examples=200, deadline=None)
@given(program=st.lists(OPS, min_size=1, max_size=8), drives=DRIVES)
def test_fire_order_is_time_then_seq_for_every_entry_kind(program, drives):
    rig = Rig()
    for op in program:
        rig.issue(op)
    sim = rig.sim
    for how, arg in drives:
        if how == "until":
            if arg >= sim.now:
                sim.run(until=arg)
                assert sim.now == arg and peek(sim) > arg
        else:
            for _ in range(arg):
                if peek(sim) != float("inf"):
                    step(sim)
    sim.run()
    expected = reference_order(program)
    assert rig.fired == expected  # exact floats, exact order
    assert sim.events_processed == len(expected)


@settings(max_examples=100, deadline=None)
@given(
    work=st.lists(
        st.tuples(
            st.floats(0.0, 5e-6, allow_nan=False),  # gap before this arrival
            st.floats(0.0, 9e-6, allow_nan=False),  # its CPU cost
        ),
        min_size=1,
        max_size=40,
    )
)
def test_execute_call_fires_at_the_float_execute_would(work):
    def finish_times(use_call):
        sim = Simulator()
        core = Core(sim)
        done = []

        def arrivals():
            for gap, cost in work:
                yield sim.timeout(gap)
                if use_call:
                    core.execute_call(cost, lambda: done.append(sim.now))
                else:
                    core.execute(cost).add_callback(lambda _ev: done.append(sim.now))

        sim.process(arrivals())
        sim.run()
        return done, core.busy_seconds, core.ops

    assert finish_times(True) == finish_times(False)


def test_negative_delay_raises_where_it_is_scheduled(sim):
    # NaN compares false both ways: queued, it would break the heap order
    # and silently drop entries.
    core = Core(sim)
    for delay in (-1e-9, float("nan")):
        for schedule in (
            lambda d: sim.schedule_call(d, lambda: None),
            sim.timeout,
            lambda d: core.execute_call(d, lambda: None),
        ):
            with pytest.raises(ValueError):
                schedule(delay)
            assert peek(sim) == float("inf")  # nothing was queued
            assert core._busy_until == 0.0 and core.ops == 0


def test_there_is_no_timeout_pool():
    assert Timeout.__slots__ == ()
    sim = Simulator()
    assert not [name for name in vars(sim) if "pool" in name]
    assert not [name for name in dir(Simulator) if "pool" in name.lower()]


# -- callbacks allocated on second waiter -----------------------------------
def test_event_without_waiters_costs_no_list(sim):
    """No waiter: the shared ``()``.  One waiter: the waiter itself.  A
    second waiter makes ``[first, second]``, so waiters run in attach
    order whatever the shape."""
    event, timer, pair = Event(sim), sim.timeout(1.0), Event(sim)
    assert event.callbacks == () and timer.callbacks == ()
    assert event.callbacks is timer.callbacks
    seen = []

    def first(ev):
        seen.append(("first", ev))

    def second(ev):
        seen.append(("second", ev))

    event.add_callback(first)
    assert event.callbacks is first and timer.callbacks == ()
    pair.add_callback(first)
    pair.add_callback(second)
    assert type(pair.callbacks) is list and pair.callbacks == [first, second]
    event.succeed()
    pair.succeed()
    sim.run()
    assert seen == [("first", event), ("first", pair), ("second", pair)]
    assert event.callbacks is None and timer.callbacks is None and pair.callbacks is None
    assert event.processed and timer.processed and pair.processed


def test_a_wait_costs_its_queue_entry():
    """N processes asleep on ``sim.timeout`` and N armed deadlines: the
    sleeping process is its timeout's whole ``callbacks`` (no list, no
    bound method), each deadline entry is one tuple whose args are the
    shared ``()``, and a (process, deadline) pair costs ~270 B of new
    allocations on CPython 3.11: the Timeout, two entries and their
    floats.  The bound sits between that and the ~400 B a list, a bound
    ``_resume`` and a ``(deadline, token)`` args tuple per pair cost."""
    n = 2000
    sim = Simulator()

    def sleeper():
        yield sim.timeout(1.0)

    class Owner:
        pass

    procs = [sim.process(sleeper()) for _ in range(n)]
    deadlines = [Deadline(sim, Owner(), lambda _owner: None) for _ in range(n)]
    gc.collect()
    tracemalloc.start()
    try:
        for deadline in deadlines:
            deadline.arm(0.5)
        sim.run(until=0.0)  # each process runs to its first yield
        allocated, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    timeouts = [entry[2] for entry in sim._queue if type(entry[2]) is Timeout]
    assert len(timeouts) == n and {id(t.callbacks) for t in timeouts} == set(map(id, procs))
    entries = [entry for entry in sim._queue if type(entry[2]) is Deadline]
    assert len(entries) == n and {id(entry[3]) for entry in entries} == {id(())}
    assert {id(entry[2]) for entry in entries} == set(map(id, deadlines))
    assert allocated / n < 340


def test_add_callback_after_processing_runs_immediately(sim):
    timer = sim.timeout(1.0, value=7)  # fires with nobody waiting
    sim.run()
    seen = []
    timer.add_callback(lambda ev: seen.append(ev.value))
    assert seen == [7]


def test_crash_with_nobody_waiting_still_raises(sim):
    def body():
        yield sim.timeout(1.0)
        raise RuntimeError("crash")

    proc = sim.process(body())
    assert proc.callbacks == ()
    with pytest.raises(RuntimeError, match="crash"):
        sim.run()


def test_crash_with_a_waiter_fails_the_event_instead(sim):
    def body():
        yield sim.timeout(1.0)
        raise RuntimeError("crash")

    proc = sim.process(body())
    seen = []
    proc.add_callback(lambda ev: seen.append(ev.ok))
    sim.run()
    assert seen == [False]
