"""Scheduler equivalence: the calendar queue against a reference heap.

The :class:`repro.sim.wheel.CalendarQueue` contract is that pop order is
*exactly* the old global heap's ``(time, seq)`` lexicographic order —
every bit-identity golden in the tree leans on it.  These tests pin the
contract directly:

* randomized schedule/pop interleavings mirrored into a plain ``heapq``
  list, covering same-timestamp ties, far-future overflow entries,
  window advances, and post-advance inserts below ``t0``;
* the lazy-cancel pattern the TCP stack's RTO/persist/delack timers use
  (generation tokens, stale entries skipped at pop time);
* engine-level FIFO at equal timestamps;
* figure4/figure5 golden pins — the paper figures, byte-for-byte, under
  the wheel (regenerate with the calls below if a deliberate model
  change moves them; the diff is the review artifact).
"""

import random
from heapq import heappop, heappush

from repro.sim.wheel import CalendarQueue

# Small geometry so a few thousand steps cross many window advances.
NBUCKETS = 256
WIDTH = 1e-6


def _push_both(heap, wheel, item):
    heappush(heap, item)
    wheel.push(item)


def _random_times(rng, now, heap):
    """A scheduling time in one of the interesting regimes."""
    kind = rng.random()
    window = NBUCKETS * WIDTH
    if kind < 0.40:  # near future: the O(1) bucket path
        return now + rng.random() * 0.5 * window
    if kind < 0.55 and heap:  # exact tie with a pending entry
        return rng.choice(heap)[0]
    if kind < 0.75:  # far future: the overflow heap
        return now + window * (1.0 + rng.random() * 50.0)
    if kind < 0.90:  # sub-width jitter: many entries share a bucket
        return now + rng.random() * WIDTH
    # Below the clock: the clamped insert-below-the-scan path.
    return max(0.0, now - rng.random() * WIDTH)


def _mirrored_run(seed, steps=4000):
    rng = random.Random(seed)
    wheel = CalendarQueue(start_time=0.0, nbuckets=NBUCKETS, width=WIDTH)
    heap = []
    seq = 0
    now = 0.0
    for _step in range(steps):
        if rng.random() < 0.6 or not heap:
            item = (_random_times(rng, now, heap), seq, object())
            seq += 1
            _push_both(heap, wheel, item)
        else:
            expected = heappop(heap)
            got = wheel.pop()
            assert got is expected, (expected, got)
            now = expected[0]
        assert len(wheel) == len(heap)
    while heap:
        assert wheel.pop() is heappop(heap)
    assert wheel.pop() is None
    assert not wheel


def test_wheel_matches_heap_on_randomized_schedules():
    for seed in range(12):
        _mirrored_run(seed)


def test_wheel_matches_heap_with_lazy_generation_cancel():
    """The RTO pattern: timers are never removed, only invalidated.

    A connection bumps its generation token to cancel/rearm; the stale
    entry stays queued and is skipped when popped.  The surviving
    sequence of fires must be identical through either structure.
    """
    rng = random.Random(20240817)
    wheel = CalendarQueue(start_time=0.0, nbuckets=NBUCKETS, width=WIDTH)
    heap = []
    gens = [0] * 32  # per-"connection" current generation
    seq = 0
    now = 0.0
    fired_heap, fired_wheel = [], []

    def pop_live(popper, fired):
        while True:
            item = popper()
            if item is None:
                return False
            conn, gen = item[2]
            if gens[conn] == gen:  # live timer
                fired.append(item[:2] + (conn,))
                return True
            # stale: skipped, like the engine's generation check

    for _step in range(6000):
        r = rng.random()
        if r < 0.45 or not heap:
            conn = rng.randrange(len(gens))
            item = (_random_times(rng, now, heap), seq, (conn, gens[conn]))
            seq += 1
            _push_both(heap, wheel, item)
        elif r < 0.65:
            # cancel/rearm: invalidate every pending timer of one conn
            # and schedule a fresh one under the new generation
            conn = rng.randrange(len(gens))
            gens[conn] += 1
            item = (_random_times(rng, now, heap), seq, (conn, gens[conn]))
            seq += 1
            _push_both(heap, wheel, item)
        else:
            # the two pops must skip the same stale prefix; snapshot the
            # generation table around each so both see identical liveness
            snapshot = list(gens)
            heap_live = pop_live(
                lambda: heappop(heap) if heap else None, fired_heap
            )
            gens[:] = snapshot
            wheel_live = pop_live(wheel.pop, fired_wheel)
            assert heap_live == wheel_live
            assert fired_heap == fired_wheel
            if fired_heap:
                now = fired_heap[-1][0]
    while heap:
        assert wheel.pop() is heappop(heap)


def test_peek_is_stable_and_never_reorders():
    rng = random.Random(7)
    wheel = CalendarQueue(start_time=0.0, nbuckets=NBUCKETS, width=WIDTH)
    heap = []
    for seq in range(500):
        _push_both(heap, wheel, (_random_times(rng, 0.0, heap), seq, None))
    while heap:
        assert wheel.peek() == heap[0][0]
        assert wheel.peek() == heap[0][0]  # idempotent
        assert wheel.pop() is heappop(heap)
    assert wheel.peek() == float("inf")


def test_engine_fires_equal_timestamps_fifo():
    """Callbacks scheduled for the same instant run in schedule order."""
    from repro.sim import Simulator

    sim = Simulator()
    fired = []
    # interleave two instants, scheduled out of order
    for i in range(64):
        sim.schedule_call(0.002, fired.append, (2, i))
    for i in range(64):
        sim.schedule_call(0.001, fired.append, (1, i))
    sim.run(until=0.01)
    assert fired == [(1, i) for i in range(64)] + [(2, i) for i in range(64)]


# -- figure goldens under the wheel ---------------------------------------

FIG4_KWARGS = dict(flow_counts=(1, 2), duration=0.06, warmup=0.02)

#: flows -> (repr(native_gbps), repr(nsm_gbps))
FIG4_GOLDEN = {
    1: ("22.37691832065372", "26.875379803169846"),
    2: ("37.648449484292264", "37.63969544216942"),
}

FIG5_KWARGS = dict(duration=3.0, warmup=1.0, seeds=(1,))

#: label -> repr(mbps)
FIG5_GOLDEN = {
    "BBR NSM": "4.239659238967965",
    "Linux BBR": "4.239657454702333",
    "Windows CTCP": "1.6560674798839108",
    "Linux Cubic": "1.9898992643664382",
}


def test_figure4_bit_identical_under_wheel():
    from repro.experiments.figure4 import run_figure4

    result = run_figure4(**FIG4_KWARGS)
    observed = {
        row.flows: (repr(row.native_gbps), repr(row.nsm_gbps))
        for row in result.rows
    }
    assert observed == FIG4_GOLDEN


def test_figure5_bit_identical_under_wheel():
    from repro.experiments.figure5 import run_figure5

    result = run_figure5(**FIG5_KWARGS)
    observed = {row.label: repr(row.mbps) for row in result.rows}
    assert observed == FIG5_GOLDEN
