"""Unit tests for the simulation kernel: clock, scheduling, run modes."""

import pytest

from repro.sim import Simulator

from conftest import peek


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_clock_custom_start():
    assert Simulator(start_time=5.0).now == 5.0


def test_timeout_advances_clock(sim):
    fired = []
    sim.timeout(2.5).add_callback(lambda ev: fired.append(sim.now))
    sim.run()
    assert fired == [2.5]


def test_timeout_carries_value(sim):
    timeout = sim.timeout(1.0, value="payload")
    sim.run()
    assert timeout.value == "payload"


def test_negative_timeout_rejected(sim):
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_events_fire_in_time_order(sim):
    order = []
    for delay in (3.0, 1.0, 2.0):
        sim.timeout(delay, value=delay).add_callback(
            lambda ev: order.append(ev.value)
        )
    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_same_time_events_fifo(sim):
    order = []
    for tag in range(5):
        sim.timeout(1.0, value=tag).add_callback(lambda ev: order.append(ev.value))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_run_until_stops_clock_exactly(sim):
    sim.timeout(10.0)
    sim.run(until=4.0)
    assert sim.now == 4.0


def test_run_until_processes_boundary_events(sim):
    fired = []
    sim.timeout(4.0).add_callback(lambda ev: fired.append(True))
    sim.run(until=4.0)
    assert fired == [True]


def test_run_until_past_raises(sim):
    sim.run(until=5.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_run_drains_queue_without_until(sim):
    sim.timeout(1.0)
    sim.timeout(7.0)
    sim.run()
    assert sim.now == 7.0


def test_peek_reports_next_event_time(sim):
    sim.timeout(3.0)
    sim.timeout(1.5)
    assert peek(sim) == 1.5


def test_peek_empty_is_infinite(sim):
    assert peek(sim) == float("inf")


def test_schedule_call_runs_function(sim):
    seen = []
    sim.schedule_call(2.0, seen.append, "x")
    sim.run()
    assert seen == ["x"]


def test_clock_never_goes_backwards(sim):
    stamps = []
    for delay in (5.0, 1.0, 3.0, 1.0):
        sim.timeout(delay).add_callback(lambda ev: stamps.append(sim.now))
    sim.run()
    assert stamps == sorted(stamps)
