"""Fastpass-style arbiter: grant schedule and end-to-end zero-queue."""

import pytest

from repro.netkernel.arbiter import FastpassArbiter
from repro.sim import Simulator


def test_grants_never_oversubscribe(sim):
    arbiter = FastpassArbiter(sim, fabric_rate_bps=8e9, control_delay=0.0,
                              utilization_target=1.0)
    starts = []
    for _ in range(5):
        arbiter.request(1_000_000).add_callback(lambda ev: starts.append(sim.now))
    sim.run()
    # 1 MB at 1 GB/s = 1 ms spacing between grant starts.
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    assert all(gap == pytest.approx(0.001) for gap in gaps)


def test_control_delay_floors_first_grant(sim):
    arbiter = FastpassArbiter(sim, fabric_rate_bps=1e9, control_delay=50e-6)
    fired = []
    arbiter.request(100).add_callback(lambda ev: fired.append(sim.now))
    sim.run()
    assert fired[0] == pytest.approx(50e-6)


def test_idle_fabric_grants_immediately_after_control_delay(sim):
    arbiter = FastpassArbiter(sim, fabric_rate_bps=1e9, control_delay=0.0)
    granted = arbiter.request(100)
    sim.run()
    assert granted.processed


def test_backlog_reporting(sim):
    arbiter = FastpassArbiter(sim, fabric_rate_bps=8e6, control_delay=0.0,
                              utilization_target=1.0)
    arbiter.request(1_000_000)  # 1 second of fabric time
    assert arbiter._horizon - sim.now == pytest.approx(1.0)


def test_counters(sim):
    arbiter = FastpassArbiter(sim, fabric_rate_bps=1e9)
    arbiter.request(100)
    arbiter.request(200)
    assert arbiter.grants_issued == 2
    assert arbiter.bytes_granted == 300


def test_validation(sim):
    with pytest.raises(ValueError):
        FastpassArbiter(sim, fabric_rate_bps=0)
    with pytest.raises(ValueError):
        FastpassArbiter(sim, fabric_rate_bps=1e9, control_delay=-1)
    with pytest.raises(ValueError):
        FastpassArbiter(sim, fabric_rate_bps=1e9, utilization_target=0)
    arbiter = FastpassArbiter(sim, fabric_rate_bps=1e9)
    with pytest.raises(ValueError):
        arbiter.request(0)


@pytest.mark.slow
def test_end_to_end_zero_queue():
    from repro.experiments.ablation_fastpass import _measure

    tcp_only = _measure(False, duration=0.3, warmup=0.1)
    fastpass = _measure(True, duration=0.3, warmup=0.1)
    assert fastpass["queue_max_kb"] < 10
    assert tcp_only["queue_max_kb"] > 500
    assert fastpass["rpc_p99_us"] < tcp_only["rpc_p99_us"]
