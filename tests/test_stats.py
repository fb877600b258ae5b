"""Measurement primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.stats import LatencyRecorder, ThroughputMeter, percentile
from repro.stats.series import PeriodicSampler


def test_percentile_basics():
    values = [1, 2, 3, 4, 5]
    assert percentile(values, 0) == 1
    assert percentile(values, 50) == 3
    assert percentile(values, 100) == 5


def test_percentile_interpolates():
    assert percentile([0, 10], 25) == pytest.approx(2.5)


def test_percentile_validates():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 101)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0, 1e6), min_size=1, max_size=50), st.floats(0, 100))
def test_percentile_property_within_range(values, p):
    result = percentile(values, p)
    assert min(values) <= result <= max(values)


def test_throughput_meter_counts_after_warmup(sim):
    meter = ThroughputMeter(sim, warmup=1.0)

    def feed(s):
        yield s.timeout(0.5)
        meter.record(100)  # before warmup: ignored
        yield s.timeout(1.0)
        meter.record(1000)
        yield s.timeout(1.0)
        meter.record(1000)

    sim.process(feed(sim))
    sim.run()
    assert meter.bytes == 2000
    assert meter.bps() == pytest.approx(2000 * 8 / 1.0)


def test_throughput_meter_until_argument(sim):
    meter = ThroughputMeter(sim)
    meter.record(1000)
    assert meter.bps(until=2.0) == pytest.approx(1000 * 8 / 2.0)


def test_throughput_meter_empty_is_zero(sim):
    assert ThroughputMeter(sim).bps() == 0.0


def test_latency_recorder_summary():
    recorder = LatencyRecorder()
    for value in (0.001, 0.002, 0.003):
        recorder.record(value)
    assert recorder.mean == pytest.approx(0.002)
    assert recorder.p(50) == pytest.approx(0.002)
    summary = recorder.summary_us()
    assert summary["count"] == 3
    assert summary["p99_us"] == pytest.approx(2980, rel=0.01)


def test_latency_recorder_rejects_negative():
    with pytest.raises(ValueError):
        LatencyRecorder().record(-0.1)


def test_periodic_sampler_collects(sim):
    counter = {"n": 0}

    def probe():
        counter["n"] += 1
        return counter["n"]

    sampler = PeriodicSampler(sim, probe, interval=0.5)
    sim.run(until=2.6)
    assert len(sampler.series) == 5
    assert sampler.series[-1][1] == 5
