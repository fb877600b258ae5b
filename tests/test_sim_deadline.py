"""``sim.Deadline``: a lazily re-armed timer with one live queue entry.

The reference is what TCP, QUIC and RDMA each hand-rolled before: every
arm pushes a fresh entry carrying a generation token, cancel bumps the
token, and an entry whose token is stale pops as a no-op.  A deadline must
fire at exactly the floats that model fires at, while keeping at most one
live entry in the queue, and a released deadline must not keep its owner
alive through the entries it leaves behind.  Retired and released entries
are dead: the simulator counts them and purges them from the queue, which
must not move a single fire.
"""

import gc
import heapq
import random
import weakref
from itertools import count
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Deadline, Simulator
from repro.sim import engine
from repro.sim.engine import _deadline_pop

from conftest import peek, step as step_sim

N_DEADLINES = 3


def random_program(seed):
    """Scripted steps ``(at, actions)`` plus each deadline's re-arm script.

    An action is ``(kind, which, delay)``: ``arm`` restarts the timer,
    ``arm_idle`` arms it only when disarmed (TCP's RTO without restart,
    the delayed ACK), ``cancel`` disarms it, ``release`` disarms it and
    drops its owner for good (a connection closing; a second release is
    TIME_WAIT's settle after close).  A released deadline is never armed
    again.  A step may act on the same deadline twice at one instant
    (QUIC's ``_on_ack`` then ``_pump``).  Times are random floats, so a
    fire never ties with a scripted step.
    """
    rng = random.Random(seed)
    steps, at = [], 0.0
    for _ in range(rng.randint(1, 40)):
        at += rng.choice([0.0, rng.uniform(0.0, 1.5)])
        actions = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(["arm"] * 4 + ["arm_idle"] * 2 + ["cancel"] * 2 + ["release"])
            actions.append((kind, rng.randrange(N_DEADLINES), rng.uniform(0.0, 3.0)))
        steps.append((at, actions))
    # A fire re-arms (an RTO retransmits and backs off) with the next
    # delay of its script; None ends the chain.
    rearms = [
        [rng.choice([None, rng.uniform(0.0, 2.0)]) for _ in range(60)]
        for _ in range(N_DEADLINES)
    ]
    return steps, rearms


def reference_fires(steps, rearms):
    """Push on every arm, retire by generation token: fire times per deadline."""
    heap, seq = [], count()
    gen = [0] * N_DEADLINES
    armed = [False] * N_DEADLINES
    released = [False] * N_DEADLINES
    fires = [[] for _ in range(N_DEADLINES)]
    scripts = [iter(script) for script in rearms]
    now = 0.0

    def arm(which, delay):
        gen[which] += 1
        armed[which] = True
        heapq.heappush(heap, (now + delay, next(seq), "fire", (which, gen[which])))

    for at, actions in steps:
        heapq.heappush(heap, (at, next(seq), "step", actions))
    pops = 0
    while heap:
        now, _seq, kind, payload = heapq.heappop(heap)
        pops += 1
        if kind == "step":
            for action, which, delay in payload:
                if action in ("cancel", "release"):
                    gen[which] += 1
                    armed[which] = False
                    released[which] |= action == "release"
                elif released[which]:
                    continue
                elif action == "arm" or not armed[which]:
                    arm(which, delay)
            continue
        which, token = payload
        if token != gen[which]:
            continue
        armed[which] = False
        fires[which].append(now)
        delay = next(scripts[which], None)
        if delay is not None:
            arm(which, delay)
    return fires, pops


class Owner:
    def __init__(self, log, script):
        self.log = log
        self.script = script

    def fire(self):
        self.log.append(self.deadline.sim.now)
        delay = next(self.script, None)
        if delay is not None:
            self.deadline.arm(delay)


def live_entries(sim, deadline):
    return [
        entry for entry in sim._queue
        if entry[2] is _deadline_pop
        and entry[3][0] is deadline
        and entry[3][1] == deadline._token
    ]


def dead_entries(sim, released):
    """Entries retired by token or left by a deadline in ``released``."""
    return [
        entry for entry in sim._queue
        if entry[2] is _deadline_pop
        and (entry[3][1] != entry[3][0]._token or entry[3][0] in released)
    ]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_deadline_fires_where_push_every_arm_would(seed):
    steps, rearms = random_program(seed)
    sim = Simulator()
    owners = []
    for which in range(N_DEADLINES):
        owner = Owner([], iter(rearms[which]))
        owner.deadline = Deadline(sim, owner, Owner.fire)
        owners.append(owner)
    deadlines = [owner.deadline for owner in owners]
    released = set()

    def heapify(queue):  # the purge's last step: every dead entry is gone
        assert dead_entries(sim, released) == []
        heapq.heapify(queue)

    def check():
        for deadline in deadlines:
            live = live_entries(sim, deadline)
            assert len(live) <= 1
            if deadline.armed:  # due no earlier than its live entry pops
                assert len(live) == 1 and live[0][0] <= deadline.when
        assert sim._dead_entries == len(dead_entries(sim, released))

    def step(actions):
        for action, which, delay in actions:
            deadline = deadlines[which]
            if action == "cancel":
                deadline.cancel()
            elif action == "release":
                released.add(deadline)
                deadline.release()
            elif deadline in released:
                continue
            elif action == "arm" or not deadline.armed:
                deadline.arm(delay)
        check()

    for at, actions in steps:
        sim.schedule_call(at, step, actions)
    # Floor 1: a purge runs whenever dead entries outnumber live ones.
    with mock.patch.object(engine, "_PURGE_FLOOR", 1), \
            mock.patch.object(engine, "heapify", heapify):
        while peek(sim) != float("inf"):
            step_sim(sim)
            check()

    expected, reference_pops = reference_fires(steps, rearms)
    assert [owner.log for owner in owners] == expected  # exact floats
    assert sim.events_processed <= reference_pops


def test_a_purge_drops_retired_and_released_entries_only(monkeypatch):
    """Released twice counts once; a cancelled deadline keeps its entry
    (a re-arm may reuse it), so every later push takes the seq it would
    have taken without the purge."""
    monkeypatch.setattr(engine, "_PURGE_FLOOR", 2)
    sim = Simulator()
    owner = Owner([], iter(()))
    moved, released, cancelled, kept = (
        Deadline(sim, owner, Owner.fire) for _ in range(4)
    )
    for deadline in (moved, released, cancelled, kept):
        deadline.arm(1.0)
    moved.arm(0.5)  # retires its 1.0 entry
    cancelled.cancel()
    released.release()
    released.release()  # TIME_WAIT's settle after close: no second count
    kept.arm(0.25)
    assert sim._dead_entries == 3 and len(sim._queue) == 6  # half: no purge
    moved.arm(0.4)  # 4 dead of 7: purged
    assert sim._dead_entries == 0 and dead_entries(sim, {released}) == []
    assert sorted((entry[0], entry[1]) for entry in sim._queue) == [(0.25, 5), (0.4, 6), (1.0, 2)]
    cancelled.arm(2.0)  # later than the kept entry: no push
    assert len(sim._queue) == 3


def test_moving_earlier_pushes_one_entry_and_later_pushes_none():
    sim = Simulator()
    log = []
    owner = Owner(log, iter(()))
    owner.deadline = deadline = Deadline(sim, owner, Owner.fire)
    deadline.arm(1.0)  # the SYN's initial RTO
    deadline.arm(0.2)  # a measured RTO: earlier, so a second entry
    assert len(sim._queue) == 2 and len(live_entries(sim, deadline)) == 1
    for _ in range(5):
        deadline.arm(0.3)  # later: only the deadline moves
    assert len(sim._queue) == 2
    sim.run()
    assert log == [0.3]
    # 0.2 pops and re-pushes itself at 0.3; the retired 1.0 entry pops last.
    assert sim.events_processed == 3 and sim.now == 1.0


def test_release_lets_the_owner_die_while_its_entry_is_pending():
    sim = Simulator()
    owner = Owner([], iter(()))
    owner.deadline = deadline = Deadline(sim, owner, Owner.fire)
    deadline.arm(0.2)
    ref = weakref.ref(owner)
    gc.disable()  # the owner must go by reference count alone
    try:
        deadline.release()
        del owner
        assert ref() is None
    finally:
        gc.enable()
    assert len(live_entries(sim, deadline)) == 1  # still queued ...
    sim.run()
    assert sim.events_processed == 1 and not deadline.armed  # ... and a no-op
