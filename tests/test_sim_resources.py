"""Unit and property tests for Store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator, Store


# --------------------------------------------------------------------- Store --
def test_store_fifo_order(sim):
    store = Store(sim)
    got = []

    def producer(sim):
        for i in range(5):
            yield store.put(i)

    def consumer(sim):
        for _ in range(5):
            item = yield store.get()
            got.append(item)

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert got == [0, 1, 2, 3, 4]


def test_store_get_blocks_until_put(sim):
    store = Store(sim)
    times = []

    def consumer(sim):
        item = yield store.get()
        times.append((sim.now, item))

    def producer(sim):
        yield sim.timeout(3.0)
        yield store.put("late")

    sim.process(consumer(sim))
    sim.process(producer(sim))
    sim.run()
    assert times == [(3.0, "late")]


def test_store_capacity_blocks_put(sim):
    store = Store(sim, capacity=1)
    progress = []

    def producer(sim):
        yield store.put("a")
        progress.append(("a", sim.now))
        yield store.put("b")
        progress.append(("b", sim.now))

    def consumer(sim):
        yield sim.timeout(2.0)
        yield store.get()

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert progress == [("a", 0.0), ("b", 2.0)]


def test_store_try_put_respects_capacity(sim):
    store = Store(sim, capacity=1)
    assert store.try_put(1) is True
    assert store.try_put(2) is False
    assert list(store.items) == [1]


def test_store_rejects_bad_capacity(sim):
    with pytest.raises(ValueError):
        Store(sim, capacity=0)


@settings(max_examples=50, deadline=None)
@given(items=st.lists(st.integers(), min_size=1, max_size=40))
def test_store_preserves_order_property(items):
    """Whatever goes in comes out in exactly the same order."""
    sim = Simulator()
    store = Store(sim, capacity=7)
    out = []

    def producer(sim):
        for item in items:
            yield store.put(item)

    def consumer(sim):
        for _ in items:
            value = yield store.get()
            out.append(value)

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert out == items
