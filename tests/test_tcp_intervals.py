"""Interval-set arithmetic: unit tests plus hypothesis invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from conftest import make_linked_stacks, transfer
from repro.net import IIDLoss
from repro.tcp.buffers import NOTHING_HELD, OutOfOrder
from repro.tcp.intervals import EMPTY, IntervalSet


def gaps(ivs, start, end):
    """Every hole of ``[start, end)`` and their size, from the two lookups
    the SACK sender makes (asked for the whole span, ``holes`` returns all)."""
    span = max(end - start, 0)
    return ivs.holes(start, end, span), span - ivs.covered(start, end)


def union(first, second):
    """``first | second`` built as the sender keeps its ``_covered``."""
    both = first.copy()
    for start, end in second:
        both.add(start, end)
    return both


def test_empty_set():
    ivs = IntervalSet()
    assert not ivs
    assert ivs.total() == 0
    assert ivs.max_end() == 0
    assert gaps(ivs, 0, 10) == ([(0, 10)], 10)


def test_add_disjoint():
    ivs = IntervalSet()
    assert ivs.add(0, 10) == 10
    assert ivs.add(20, 30) == 10
    assert ivs.intervals() == [(0, 10), (20, 30)]
    assert ivs.total() == 20


def test_add_overlapping_merges():
    ivs = IntervalSet()
    ivs.add(0, 10)
    assert ivs.add(5, 15) == 5  # only the new bytes count
    assert ivs.intervals() == [(0, 15)]


def test_add_adjacent_merges():
    ivs = IntervalSet()
    ivs.add(0, 10)
    ivs.add(10, 20)
    assert ivs.intervals() == [(0, 20)]


def test_add_bridging_gap_merges_three():
    ivs = IntervalSet()
    ivs.add(0, 5)
    ivs.add(10, 15)
    assert ivs.add(3, 12) == 5
    assert ivs.intervals() == [(0, 15)]


def test_add_empty_range_is_noop():
    ivs = IntervalSet()
    assert ivs.add(5, 5) == 0
    assert not ivs


def test_holes():
    ivs = IntervalSet()
    ivs.add(10, 20)
    ivs.add(30, 40)
    assert gaps(ivs, 0, 50) == ([(0, 10), (20, 30), (40, 50)], 30)
    assert gaps(ivs, 10, 40) == ([(20, 30)], 10)
    assert gaps(ivs, 12, 18) == ([], 0)
    # Asked for fewer bytes, holes stops at the hole that reaches them.
    assert ivs.holes(0, 50, 1) == [(0, 10)]
    assert ivs.holes(0, 50, 11) == [(0, 10), (20, 30)]
    assert ivs.holes(15, 50, 0) == []


def test_trim_below():
    ivs = IntervalSet()
    ivs.add(0, 10)
    ivs.add(20, 30)
    ivs.trim_below(25)
    assert ivs.intervals() == [(25, 30)]


def test_trim_below_everything():
    ivs = IntervalSet()
    ivs.add(0, 10)
    ivs.trim_below(100)
    assert not ivs


def test_first_raises_on_empty():
    with pytest.raises(IndexError):
        IntervalSet().first()


def covered_points(ivs):
    return {x for start, end in ivs for x in range(start, end)}


ranges = st.lists(
    st.tuples(st.integers(0, 200), st.integers(1, 50)).map(
        lambda t: (t[0], t[0] + t[1])
    ),
    min_size=0,
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(ranges=ranges)
def test_property_matches_reference_set(ranges):
    """IntervalSet must agree with a naive per-integer reference model."""
    ivs = IntervalSet()
    reference = set()
    for start, end in ranges:
        newly = ivs.add(start, end)
        added = set(range(start, end)) - reference
        assert newly == len(added)
        reference |= set(range(start, end))
    assert ivs.total() == len(reference)
    assert covered_points(ivs) == reference
    # Intervals are sorted, disjoint, non-adjacent.
    intervals = ivs.intervals()
    for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
        assert e1 < s2
    # Holes + coverage partition the probed span.
    holes, size = gaps(ivs, 0, 300)
    assert {x for s, e in holes for x in range(s, e)} == set(range(300)) - reference
    assert size + len(reference) == 300


@settings(max_examples=100, deadline=None)
@given(ranges=ranges, cutoff=st.integers(0, 250))
def test_property_trim_below_matches_reference(ranges, cutoff):
    ivs = IntervalSet()
    reference = set()
    for start, end in ranges:
        ivs.add(start, end)
        reference |= set(range(start, end))
    ivs.trim_below(cutoff)
    reference = {x for x in reference if x >= cutoff}
    assert ivs.total() == len(reference)
    assert covered_points(ivs) == reference


# -- the indexed structure against a set-of-ints model ----------------------

SPAN = 120  # sequence space the machines play in (small, so ranges collide)
points = st.integers(0, SPAN)


def runs(members, start, end):
    """Maximal runs of consecutive integers of ``members`` within [start, end)."""
    found, run_start = [], None
    for x in range(start, end):
        if x in members:
            if run_start is None:
                run_start = x
        elif run_start is not None:
            found.append((run_start, x))
            run_start = None
    if run_start is not None:
        found.append((run_start, end))
    return found


class IntervalSetMachine(RuleBasedStateMachine):
    """Two sets (a SACK scoreboard and its repaired-marks) against int sets."""

    def __init__(self):
        super().__init__()
        self.sets = (IntervalSet(), IntervalSet())
        self.models = (set(), set())

    @rule(which=st.integers(0, 1), start=points, length=st.integers(0, 25))
    def add(self, which, start, length):
        end = start + length
        fresh = set(range(start, end)) - self.models[which]
        assert self.sets[which].add(start, end) == len(fresh)
        self.models[which].update(fresh)

    @rule(which=st.integers(0, 1), length=st.integers(1, 10))
    def add_at_tail(self, which, length):
        # The in-order shape (next packet number, next segment) that takes
        # the append path; with a gap of 0 it extends, otherwise appends.
        ivs, model = self.sets[which], self.models[which]
        for gap in (0, 2):
            start = ivs.max_end() + gap
            assert ivs.add(start, start + length) == length
            model.update(range(start, start + length))

    @rule(which=st.integers(0, 1), cutoff=points)
    def trim_below(self, which, cutoff):
        model = self.models[which]
        below = {x for x in model if x < cutoff}
        assert self.sets[which].trim_below(cutoff) == len(below)
        model -= below

    @rule(which=st.integers(0, 1))
    def clear(self, which):
        self.sets[which].clear()
        self.models[which].clear()

    @rule(start=points, end=points, want=st.integers(0, 30))
    def probe(self, start, end, want):
        for ivs, model in zip(self.sets, self.models):
            missing = set(range(start, end)) - model
            assert gaps(ivs, start, end) == (runs(missing, start, end), len(missing))
        first, second = self.sets
        neither = set(range(start, end)) - self.models[0] - self.models[1]
        found, size = gaps(union(first, second), start, end)
        assert found == runs(neither, start, end)
        assert size == len(neither)
        # The sender's budgeted lookup: the holes, in order, up to the
        # first that brings the total to ``want``.
        prefix, total = [], 0
        for lo, hi in found:
            if total >= want:
                break
            prefix.append((lo, hi))
            total += hi - lo
        assert union(first, second).holes(start, end, want) == prefix

    @invariant()
    def agrees_with_model(self):
        for ivs, model in zip(self.sets, self.models):
            top = max(model) + 1 if model else 0
            expected = runs(model, 0, top)
            assert ivs.intervals() == list(ivs) == expected
            assert len(ivs) == len(expected) and bool(ivs) == bool(model)
            assert ivs.total() == len(model)
            assert ivs.max_end() == top
            assert [ivs[k] for k in range(len(ivs))] == expected
            for k, (lo, hi) in enumerate(expected):
                assert ivs.find(lo) == ivs.find(hi - 1) == k
                assert ivs.find(hi) == -1  # non-adjacent: hi starts a gap
            if model:
                assert ivs.first() == expected[0] and ivs[-1] == expected[-1]
            else:
                with pytest.raises(IndexError):
                    ivs.first()


TestIntervalSetMachine = IntervalSetMachine.TestCase
TestIntervalSetMachine.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)


def test_empty_sets_share_their_storage():
    """The flyweight: no per-set container until there is coverage, and none
    left behind once it is gone (idle connections hold three of these)."""
    fresh, used = IntervalSet(), IntervalSet()
    used.add(5, 9)
    used.trim_below(9)
    cleared = IntervalSet()
    cleared.add(1, 2)
    cleared.clear()
    assert fresh._b is used._b is cleared._b
    assert IntervalSet.__slots__ == ("_b", "_total")  # 48-byte size class


def test_shared_empty_reads_like_an_empty_set_and_refuses_mutation():
    other = IntervalSet()
    other.add(3, 7)
    assert not EMPTY and len(EMPTY) == 0 and EMPTY.total() == 0
    assert EMPTY.trim_below(10) == 0 and EMPTY.find(5) == -1
    assert gaps(EMPTY, 0, 10) == ([(0, 10)], 10)
    assert gaps(union(EMPTY, other), 0, 10) == ([(0, 3), (7, 10)], 6)
    assert gaps(union(other, EMPTY), 0, 10) == ([(0, 3), (7, 10)], 6)
    with pytest.raises(TypeError, match="read-only"):
        EMPTY.add(1, 2)
    EMPTY.clear()  # a no-op, not a way to corrupt every connection
    assert not EMPTY and EMPTY.intervals() == [] and IntervalSet().intervals() == []


def test_only_a_connection_that_sees_loss_gets_its_own_scoreboards():
    clean = transfer(make_linked_stacks(), total_bytes=200_000)["client_conn"]
    assert clean.cold.sacked is EMPTY and clean.cold.rexmitted is EMPTY
    assert clean.ooo is NOTHING_HELD

    rig = make_linked_stacks(loss=IIDLoss(0.02, seed=5))
    result = transfer(rig, total_bytes=500_000)
    lossy = result["client_conn"]
    assert result["received"] == 500_000 and rig.stack_a.stats.retransmits > 0
    assert lossy.cold.sacked is not EMPTY and type(lossy.cold.sacked) is IntervalSet

    queue = OutOfOrder()
    assert queue.receive(0, 0, 100) == 100 and not queue  # in order
    assert queue.receive(100, 200, 250) == 100 and queue.total() == 50
    assert queue.sack_blocks() == ((200, 250),)
    assert queue.receive(100, 100, 200) == 250 and not queue
    assert not EMPTY and not NOTHING_HELD  # nothing leaked into them


def test_trim_below_nothing_below_leaves_the_list_alone():
    ivs = IntervalSet()
    ivs.add(10, 20)
    ivs.add(30, 40)
    held = ivs._b
    assert ivs.trim_below(10) == 0 and ivs.trim_below(3) == 0
    assert ivs._b is held and ivs.intervals() == [(10, 20), (30, 40)]


class _Counted(list):
    """A boundary list that counts the boundaries read out of it: one per
    index (each probe of a bisect is one), the length of each slice."""

    reads = 0

    def __getitem__(self, index):
        got = list.__getitem__(self, index)
        _Counted.reads += len(got) if index.__class__ is slice else 1
        return got


def counted(ivs):
    """``ivs`` with its boundaries in a :class:`_Counted` (the mutators
    edit the list in place, so it stays counted)."""
    ivs._b = _Counted(ivs._b)
    return ivs


def test_per_call_cost_does_not_grow_with_the_scoreboard():
    """add / find probe one spot, a full hole walk is linear, and the
    sender's recovery lookup costs what it returns.

    Cost is the boundaries each call reads, counted, so the ratios are
    exact on any host.  A scan from the head per call made add linear and
    the sender's hole finder quadratic (every hole of one set rescanned
    the other): 4x the intervals cost 4x and 16x.  Indexed, add and find
    read a bisect's worth (1.5x allows its log growth) and the holes of
    both sets, from scratch (their union, then every hole of it), cost
    linear time plus a bisect per merged interval (5x).  The sender keeps
    the union instead, and its recovery lookup (the holes' size from the
    window's low edge, then one MSS of holes) must not sweep at all: 1.5x
    for 4x the intervals.
    """

    def build(n):
        sacked, repaired = IntervalSet(), IntervalSet()
        for k in range(n):
            sacked.add(40 * k, 40 * k + 10)  # SACKed segment, then a hole
            if k % 2:
                repaired.add(40 * k + 10, 40 * k + 25)  # hole partly repaired
        return sacked, repaired

    def per_call(n):
        sacked, repaired = build(n)
        counted(sacked)
        top = 40 * n
        probes = [(7919 * k) % top for k in range(400)]  # across the set
        _Counted.reads = 0
        for at in probes:
            at -= at % 40
            sacked.add(at + 12, at + 14)  # lands mid-set, in a hole
            sacked.find(at + 13)
            sacked.trim_below(0)
        point = _Counted.reads / len(probes)
        _Counted.reads = 0
        both = counted(sacked.copy())
        for start, end in repaired:
            both.add(start, end)
        found, size = gaps(both, 0, top)
        sweep = _Counted.reads
        assert size == sum(hi - lo for lo, hi in found) > 0
        covered = counted(union(sacked, repaired))
        _Counted.reads = 0
        for at in probes:
            lost = top - covered.covered(0, top)
            covered.holes(at, top, 1448)
        lookup = _Counted.reads / len(probes)
        assert lost == size
        return point, sweep, lookup

    small, large = per_call(2000), per_call(8000)
    point_ratio, sweep_ratio, lookup_ratio = (
        big / little for big, little in zip(large, small)
    )
    assert point_ratio <= 1.5, f"add/find grew {point_ratio:.2f}x for 4x the intervals"
    assert sweep_ratio <= 5.0, f"gap sweep grew {sweep_ratio:.2f}x for 4x the intervals"
    assert lookup_ratio <= 1.5, (
        f"recovery lookup grew {lookup_ratio:.2f}x for 4x the intervals"
    )
