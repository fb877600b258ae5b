"""Unit tests for generator-based processes."""

import pytest

from repro.sim import Event, Simulator, SimulationError


def test_process_runs_and_returns_value(sim):
    def body(sim):
        yield sim.timeout(1.0)
        return "done"

    proc = sim.process(body(sim))
    sim.run()
    assert proc.processed
    assert proc.value == "done"


def test_process_requires_generator(sim):
    with pytest.raises(TypeError):
        sim.process(lambda: None)


def test_process_waits_on_event_value(sim):
    seen = []

    def body(sim):
        value = yield sim.timeout(2.0, value="payload")
        seen.append((sim.now, value))

    sim.process(body(sim))
    sim.run()
    assert seen == [(2.0, "payload")]


def test_processes_can_wait_on_each_other(sim):
    def child(sim):
        yield sim.timeout(3.0)
        return 99

    def parent(sim):
        result = yield sim.process(child(sim))
        return result + 1

    proc = sim.process(parent(sim))
    sim.run()
    assert proc.value == 100


def test_failed_event_raises_inside_process(sim):
    caught = []

    def body(sim):
        bad = Event(sim)
        sim.schedule_call(1.0, lambda: bad.fail(ValueError("x")))
        try:
            yield bad
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(body(sim))
    sim.run()
    assert caught == ["x"]


def test_unwaited_crash_surfaces(sim):
    def body(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("crash")

    sim.process(body(sim))
    with pytest.raises(RuntimeError, match="crash"):
        sim.run()


def test_waited_crash_fails_the_process_event(sim):
    def child(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("inner")

    outcome = []

    def parent(sim):
        try:
            yield sim.process(child(sim))
        except RuntimeError as exc:
            outcome.append(str(exc))

    sim.process(parent(sim))
    sim.run()
    assert outcome == ["inner"]


def test_yielding_non_event_is_an_error(sim):
    def body(sim):
        yield 42

    sim.process(body(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_is_alive_tracks_lifecycle(sim):
    def body(sim):
        yield sim.timeout(1.0)

    proc = sim.process(body(sim))
    assert proc.is_alive
    sim.run()
    assert not proc.is_alive


def test_process_starts_at_current_time(sim):
    stamps = []

    def body(sim):
        stamps.append(sim.now)
        yield sim.timeout(0.1)

    def spawner(sim):
        yield sim.timeout(5.0)
        sim.process(body(sim))

    sim.process(spawner(sim))
    sim.run()
    assert stamps == [5.0]
