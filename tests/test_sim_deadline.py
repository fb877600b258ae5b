"""``sim.Deadline``: a lazily re-armed timer with one live queue entry.

The reference is what TCP, QUIC and RDMA each hand-rolled before: every
arm pushes a fresh entry carrying a generation token, cancel bumps the
token, and an entry whose token is stale pops as a no-op.  A deadline must
fire at exactly the floats that model fires at, each time from its latest
push as the model does, while keeping at most one live entry in the
queue, and a released deadline must not keep its owner alive through the
entries it leaves behind.  Retired and released entries are dead: the
simulator counts them and purges them from the queue, which must not move
a single fire.
"""

import gc
import heapq
import math
import random
import weakref
from itertools import count
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Deadline, Simulator
from repro.sim import engine

from conftest import peek, step as step_sim

N_DEADLINES = 3


def random_program(seed):
    """Scripted steps ``(at, actions)`` plus each deadline's re-arm script.

    An action is ``(kind, which, delay)``: ``arm`` restarts the timer,
    ``arm_idle`` arms it only when disarmed (TCP's RTO without restart,
    the delayed ACK), ``arm_back`` restarts it to land on exactly the
    value of one of its earlier arm targets still ahead (``delay`` is the
    index; see :func:`landing_delay`), ``cancel`` disarms it, ``release``
    disarms it and drops its owner for good (a connection closing; a
    second release is TIME_WAIT's settle after close).  A released
    deadline is never armed again.  A step may act on the same deadline
    twice at one instant (QUIC's ``_on_ack`` then ``_pump``).  Times are
    random floats, so a fire never ties with a scripted step, and two
    deadlines never share a float.
    """
    rng = random.Random(seed)
    steps, at = [], 0.0
    for _ in range(rng.randint(1, 40)):
        at += rng.choice([0.0, rng.uniform(0.0, 1.5)])
        actions = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(
                ["arm"] * 4 + ["arm_idle"] * 2 + ["arm_back"] * 2 + ["cancel"] * 2 + ["release"]
            )
            if kind == "arm_back":
                delay = rng.randrange(4)
            else:
                delay = rng.uniform(0.0, 3.0)
            actions.append((kind, rng.randrange(N_DEADLINES), delay))
        steps.append((at, actions))
    # A fire re-arms (an RTO retransmits and backs off) with the next
    # entry of its script: a delay, ``("back", index)`` for an
    # ``arm_back``, or None, which ends the chain.
    rearms = [
        [
            rng.choice([None, rng.uniform(0.0, 2.0), ("back", rng.randrange(4))])
            for _ in range(60)
        ]
        for _ in range(N_DEADLINES)
    ]
    return steps, rearms


def landing_delay(now, targets, index):
    """A delay that makes ``now + delay`` exactly equal to an earlier arm
    target still ahead of ``now`` (the ``index``-th of them, wrapping), or
    None.  The target's entry, if it was retired, may still be queued: the
    re-arm's entry then has the same value but is another float object."""
    ahead = sorted({target for target in targets if target > now})
    if not ahead:
        return None
    target = ahead[index % len(ahead)]
    delay = target - now
    for candidate in (delay, math.nextafter(delay, math.inf), math.nextafter(delay, 0.0)):
        if now + candidate == target:
            return candidate
    return None


def reference_fires(steps, rearms):
    """Push on every arm, retire by generation token.

    Returns each deadline's fire times, the number of pops, and the fire
    log ``(time, which)`` in fire order.  Each fire pops the deadline's
    latest push (its token is the current one) — the property the lazy
    deadline is checked for seq by seq.
    """
    heap, seq = [], count()
    gen = [0] * N_DEADLINES
    armed = [False] * N_DEADLINES
    released = [False] * N_DEADLINES
    targets = [[] for _ in range(N_DEADLINES)]
    latest = [None] * N_DEADLINES
    fires = [[] for _ in range(N_DEADLINES)]
    log = []
    scripts = [iter(script) for script in rearms]
    now = 0.0

    def arm(which, delay):
        gen[which] += 1
        armed[which] = True
        targets[which].append(now + delay)
        latest[which] = next(seq)
        heapq.heappush(heap, (now + delay, latest[which], "fire", (which, gen[which])))

    for at, actions in steps:
        heapq.heappush(heap, (at, next(seq), "step", actions))
    pops = 0
    while heap:
        now, entry_seq, kind, payload = heapq.heappop(heap)
        pops += 1
        if kind == "step":
            for action, which, delay in payload:
                if action in ("cancel", "release"):
                    gen[which] += 1
                    armed[which] = False
                    released[which] |= action == "release"
                elif released[which]:
                    continue
                elif action == "arm_back":
                    delay = landing_delay(now, targets[which], delay)
                    if delay is not None:
                        arm(which, delay)
                elif action == "arm" or not armed[which]:
                    arm(which, delay)
            continue
        which, token = payload
        if token != gen[which]:
            continue
        assert entry_seq == latest[which]
        armed[which] = False
        fires[which].append(now)
        log.append((now, which))
        delay = next(scripts[which], None)
        if isinstance(delay, tuple):
            delay = landing_delay(now, targets[which], delay[1])
        if delay is not None:
            arm(which, delay)
    return fires, pops, log


class Owner:
    def __init__(self, log, script):
        self.log = log
        self.script = script

    def fire(self):
        self.log.append(self.deadline.sim.now)
        delay = next(self.script, None)
        if delay is not None:
            self.deadline.arm(delay)


class ScriptedOwner(Owner):
    """An :class:`Owner` whose script may hold ``("back", index)``
    re-arms; records every arm target, as :func:`reference_fires` does."""

    def __init__(self, log, script, fired):
        super().__init__(log, script)
        self.targets = []
        self.fired = fired

    def arm(self, delay):
        self.deadline.arm(delay)
        self.targets.append(self.deadline.when)

    def fire(self):
        sim = self.deadline.sim
        self.log.append(sim.now)
        self.fired.append(self)
        delay = next(self.script, None)
        if isinstance(delay, tuple):
            delay = landing_delay(sim.now, self.targets, delay[1])
        if delay is not None:
            self.arm(delay)


def run_lazy(sim, steps, rearms, released, after_step):
    """Run a program on :class:`Deadline`s, one queue entry at a time.

    ``after_step(owners, entry, fired)`` runs after every entry with the
    entry just popped and the owner it fired (None if it fired nothing).
    Released deadlines are added to ``released``.  Returns the owners.
    """
    owners, fired = [], []
    for which in range(N_DEADLINES):
        owner = ScriptedOwner([], iter(rearms[which]), fired)
        owner.deadline = Deadline(sim, owner, ScriptedOwner.fire)
        owners.append(owner)

    def step(actions):
        for action, which, delay in actions:
            owner = owners[which]
            deadline = owner.deadline
            if action == "cancel":
                deadline.cancel()
            elif action == "release":
                released.add(deadline)
                deadline.release()
            elif deadline in released:
                continue
            elif action == "arm_back":
                delay = landing_delay(sim.now, owner.targets, delay)
                if delay is not None:
                    owner.arm(delay)
            elif action == "arm" or not deadline.armed:
                owner.arm(delay)

    for at, actions in steps:
        sim.schedule_call(at, step, actions)
    while peek(sim) != float("inf"):
        entry = sim._queue[0]
        before = len(fired)
        step_sim(sim)
        after_step(owners, entry, fired[-1] if len(fired) > before else None)
    return owners


def live_entries(sim, deadline):
    """Entries whose ``when`` is the deadline's own ``_at`` float object."""
    return [
        entry for entry in sim._queue
        if entry[2] is deadline and entry[0] is deadline._at
    ]


def dead_entries(sim, released):
    """Entries retired (their float is not the deadline's ``_at``) or left
    by a deadline in ``released``."""
    return [
        entry for entry in sim._queue
        if type(entry[2]) is Deadline
        and (entry[0] is not entry[2]._at or entry[2] in released)
    ]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_deadline_fires_where_push_every_arm_would(seed):
    steps, rearms = random_program(seed)
    sim, released = Simulator(), set()
    latest = {}  # deadline -> seq of its newest entry ever pushed
    log = []

    def heapify(queue):  # the purge's last step: every dead entry is gone
        assert dead_entries(sim, released) == []
        heapq.heapify(queue)

    def after_step(owners, entry, fired):
        if fired is not None:  # a fire pops its deadline's latest push
            assert entry[2] is fired.deadline and entry[1] == latest[entry[2]]
            log.append((sim.now, owners.index(fired)))
        for deadline in (owner.deadline for owner in owners):
            live = live_entries(sim, deadline)
            assert len(live) <= 1
            if deadline.armed:  # due no earlier than its live entry pops
                assert len(live) == 1 and live[0][0] <= deadline.when
            mine = [entry for entry in sim._queue if entry[2] is deadline]
            assert all(entry[3] == () for entry in mine)  # one tuple per entry
            if mine:
                latest[deadline] = max(latest.get(deadline, -1), *(e[1] for e in mine))
        assert sim._dead_entries == len(dead_entries(sim, released))

    # Floor 1: a purge runs whenever dead entries reach a quarter of the queue.
    with mock.patch.object(engine, "_PURGE_FLOOR", 1), \
            mock.patch.object(engine, "heapify", heapify):
        owners = run_lazy(sim, steps, rearms, released, after_step)

    expected, reference_pops, expected_log = reference_fires(steps, rearms)
    assert [owner.log for owner in owners] == expected  # exact floats
    assert log == expected_log  # and in the same order
    assert sim.events_processed <= reference_pops


def test_rearm_programs_land_on_retired_floats():
    """The random programs do reach the case identity exists for: a
    re-arm whose entry has exactly the value of a retired entry still
    queued, as another float object."""
    landed = set()
    for seed in range(80):
        steps, rearms = random_program(seed)
        sim = Simulator()

        def after_step(owners, _entry, _fired):
            for deadline in (owner.deadline for owner in owners):
                mine = [entry for entry in sim._queue if entry[2] is deadline]
                landed.update(
                    (seed, a[1], b[1]) for a in mine for b in mine
                    if a[1] < b[1] and a[0] == b[0] and a[0] is not b[0]
                )

        run_lazy(sim, steps, rearms, set(), after_step)
    assert len(landed) >= 10


def test_a_rearm_on_a_retired_entrys_float_fires_in_its_own_turn():
    """A re-arm landing on exactly the value of a retired entry still
    queued: the retired entry pops first (lower seq) and must stay a
    no-op, so a call queued between the two pushes runs before the fire,
    as it does when every arm pushes.  A value test would fire early."""
    sim = Simulator()
    order = []

    def fire(_owner):
        order.append(("fire", sim.now))
        if len(order) == 1:
            deadline.arm(0.5)  # 0.5 + 0.5: exactly 1.0, a new float object

    deadline = Deadline(sim, object(), fire)
    deadline.arm(1.0)
    deadline.arm(0.5)  # retires the 1.0 entry
    sim.schedule_call(1.0, order.append, "call")  # after the 1.0 entry, before the re-arm
    sim.run(until=0.75)
    at_one = [entry for entry in sim._queue if entry[2] is deadline]
    assert [entry[0] for entry in at_one] == [1.0, 1.0]
    assert at_one[0][0] is not at_one[1][0]
    sim.run()
    assert order == [("fire", 0.5), "call", ("fire", 1.0)]
    assert sim._dead_entries == 0


def test_a_purge_drops_retired_and_released_entries_only(monkeypatch):
    """Released twice counts once; a cancelled deadline keeps its entry
    (a re-arm may reuse it), so every later push takes the seq it would
    have taken without the purge.  The purge runs once the dead entries
    reach the floor and a quarter of the queue: 4 dead of 17 entries stay
    queued, 4 of 16 are purged."""
    monkeypatch.setattr(engine, "_PURGE_FLOOR", 2)
    for fillers in (10, 9):
        sim = Simulator()
        owner = Owner([], iter(()))
        moved, released, cancelled, kept, *others = (
            Deadline(sim, owner, Owner.fire) for _ in range(4 + fillers)
        )
        for deadline in (moved, released, cancelled, kept, *others):
            deadline.arm(1.0)
        moved.arm(0.5)  # retires its 1.0 entry
        cancelled.cancel()
        released.release()
        released.release()  # TIME_WAIT's settle after close: no second count
        kept.arm(0.25)  # retires its 1.0 entry
        assert sim._dead_entries == 3 and len(sim._queue) == 6 + fillers
        moved.arm(0.4)  # the fourth dead entry
        if fillers == 10:  # just under a quarter: no purge
            assert sim._dead_entries == 4 and len(sim._queue) == 17
            assert len(dead_entries(sim, {released})) == 4
            continue
        # A quarter exactly: purged.
        assert sim._dead_entries == 0 and dead_entries(sim, {released}) == []
        assert sorted((entry[0], entry[1]) for entry in sim._queue) == [
            (0.25, 14), (0.4, 15), (1.0, 2), *((1.0, seq) for seq in range(4, 13))
        ]
        cancelled.arm(2.0)  # later than the kept entry: no push
        assert len(sim._queue) == 12


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
