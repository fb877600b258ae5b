"""Unit tests for events: triggering, failure, composition."""

import pytest

from repro.sim import AnyOf, Event, Simulator, SimulationError


def test_event_succeed_delivers_value(sim):
    event = Event(sim)
    seen = []
    event.add_callback(lambda ev: seen.append(ev.value))
    event.succeed("hello")
    sim.run()
    assert seen == ["hello"]


def test_event_double_trigger_rejected(sim):
    event = Event(sim)
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()
    with pytest.raises(SimulationError):
        event.fail(RuntimeError())


def test_event_fail_requires_exception(sim):
    event = Event(sim)
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_value_before_trigger_raises(sim):
    with pytest.raises(SimulationError):
        _ = Event(sim).value


def test_callback_after_processed_runs_immediately(sim):
    event = Event(sim)
    event.succeed(7)
    sim.run()
    late = []
    event.add_callback(lambda ev: late.append(ev.value))
    assert late == [7]


def test_triggered_and_processed_flags(sim):
    event = Event(sim)
    assert not event.triggered and not event.processed
    event.succeed()
    assert event.triggered and not event.processed
    sim.run()
    assert event.processed


def test_any_of_fires_on_first(sim):
    first = sim.timeout(1.0, value="a")
    second = sim.timeout(5.0, value="b")
    any_of = sim.any_of([first, second])
    sim.run(until=2.0)
    assert any_of.processed
    assert any_of.value == {first: "a"}


def test_any_of_propagates_failure(sim):
    bad = Event(sim)
    sim.schedule_call(1.0, lambda: bad.fail(ValueError("nope")))
    any_of = sim.any_of([bad, sim.timeout(10.0)])
    sim.run(until=2.0)
    assert any_of.triggered and not any_of.ok
    assert isinstance(any_of.value, ValueError)


def test_condition_rejects_foreign_events(sim):
    other = Simulator()
    with pytest.raises(SimulationError):
        AnyOf(sim, [Event(other)])
