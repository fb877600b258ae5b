"""Congestion control end-to-end: dynamics on simulated paths."""

import pytest

from repro.net import Endpoint, IIDLoss
from repro.tcp import StackConfig

from conftest import make_linked_stacks, transfer


def run_flow(cc, rate_bps, delay, loss=None, duration=20.0, ecn_threshold=None,
             queue_bytes=256 * 1024, ecn=False):
    """Continuous flow; returns (goodput_bps, client_conn)."""
    rig = make_linked_stacks(
        rate_bps=rate_bps,
        delay=delay,
        loss=loss,
        cc_a=cc,
        queue_bytes=queue_bytes,
        ecn_threshold_bytes=ecn_threshold,
    )
    got = {"n": 0, "first": None}
    state = {}

    def server(sim):
        # Mirror the sender's CC so DCTCP gets accurate (per-segment) echo.
        listener = rig.stack_b.listen(5000, congestion_control=cc)
        conn = yield listener.accept()
        while True:
            n = yield conn.recv(1 << 20)
            if n == 0:
                break
            if sim.now > duration * 0.25:
                if got["first"] is None:
                    got["first"] = sim.now
                got["n"] += n

    def client(sim):
        conn = rig.stack_a.connect(
            Endpoint("10.0.0.2", 5000), congestion_control=cc, ecn=ecn
        )
        state["conn"] = conn
        yield conn.established
        while True:
            yield conn.send(65536)

    rig.sim.process(server(rig.sim))
    rig.sim.process(client(rig.sim))
    rig.run(until=duration)
    span = duration - (got["first"] or duration)
    bps = got["n"] * 8 / span if span > 0 else 0.0
    return bps, state["conn"]


@pytest.mark.parametrize("cc", ["reno", "cubic", "bbr", "ctcp"])
def test_all_algorithms_fill_a_clean_pipe(cc):
    bps, _ = run_flow(cc, rate_bps=50e6, delay=0.01, duration=10.0)
    assert bps > 0.7 * 50e6, f"{cc} reached only {bps/1e6:.1f} Mbps"


def test_bbr_beats_cubic_under_random_loss():
    bbr, _ = run_flow("bbr", 12e6, 0.175, loss=IIDLoss(0.001, seed=4), duration=30.0)
    cubic, _ = run_flow("cubic", 12e6, 0.175, loss=IIDLoss(0.001, seed=4), duration=30.0)
    assert bbr > 2 * cubic


def test_cubic_beats_reno_on_long_fat_path():
    cubic, _ = run_flow("cubic", 12e6, 0.175, loss=IIDLoss(0.0005, seed=7), duration=40.0)
    reno, _ = run_flow("reno", 12e6, 0.175, loss=IIDLoss(0.0005, seed=7), duration=40.0)
    assert cubic > reno


def test_bbr_keeps_queue_small_vs_cubic():
    """BBR paces near the BDP; cubic fills the buffer (bufferbloat)."""
    _, bbr_conn = run_flow("bbr", 50e6, 0.02, duration=10.0, queue_bytes=1 << 20)
    _, cubic_conn = run_flow("cubic", 50e6, 0.02, duration=10.0, queue_bytes=1 << 20)
    # Smoothed RTT reflects standing queue: cubic's should be much larger.
    assert cubic_conn.rtt.srtt > bbr_conn.rtt.srtt * 1.5


def test_dctcp_holds_queue_at_ecn_threshold():
    bps, conn = run_flow(
        "dctcp",
        100e6,
        0.001,
        duration=5.0,
        ecn_threshold=64 * 1024,
        queue_bytes=1 << 20,
        ecn=True,
    )
    assert bps > 0.7 * 100e6
    # The sender's stack carries this one connection.
    assert conn.stack.stats.ecn_echoes > 0
    # Standing queue stays near the marking threshold, not the full buffer.
    queueing_delay = conn.rtt.srtt - 2 * 0.001
    assert queueing_delay < (400 * 1024 * 8 / 100e6)


def test_classic_ecn_reduces_without_loss():
    bps, conn = run_flow(
        "cubic",
        100e6,
        0.001,
        duration=5.0,
        ecn_threshold=64 * 1024,
        queue_bytes=4 << 20,  # too deep to overflow
        ecn=True,
    )
    assert conn.stack.stats.ecn_echoes > 0
    assert conn.stack.stats.retransmits == 0  # marking, not dropping
    assert bps > 0.6 * 100e6


def test_two_cubic_flows_share_fairly():
    rig = make_linked_stacks(rate_bps=100e6, delay=0.005, queue_bytes=256 * 1024)
    got = {0: 0, 1: 0}

    def server(sim, port, index):
        listener = rig.stack_b.listen(port)
        conn = yield listener.accept()
        while True:
            n = yield conn.recv(1 << 20)
            if n == 0:
                break
            if sim.now > 5.0:
                got[index] += n

    def client(sim, port):
        conn = rig.stack_a.connect(Endpoint("10.0.0.2", port))
        yield conn.established
        while True:
            yield conn.send(65536)

    for i in range(2):
        rig.sim.process(server(rig.sim, 5000 + i, i))
        rig.sim.process(client(rig.sim, 5000 + i))
    rig.run(until=20.0)
    ratio = max(got.values()) / max(1, min(got.values()))
    assert ratio < 2.5  # rough fairness
