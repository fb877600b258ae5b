"""More property-based coverage of TCP internals."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.tcp import RttEstimator
from repro.tcp.cc import make
from repro.tcp.cc.base import RateSample


@settings(max_examples=100, deadline=None)
@given(samples=st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=60))
def test_rtt_estimator_invariants(samples):
    """RTO stays within configured bounds; min_rtt is the true minimum."""
    estimator = RttEstimator(min_rto=0.2, max_rto=60.0)
    for sample in samples:
        estimator.on_sample(sample)
    assert estimator.min_rtt == pytest.approx(min(samples))
    assert 0.2 <= estimator.rto <= 60.0
    assert min(samples) <= estimator.srtt <= max(samples)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["reno", "cubic", "bbr", "ctcp", "dctcp"]),
    events=st.lists(
        st.one_of(
            st.tuples(st.just("ack"), st.integers(1, 65536), st.floats(0.001, 1.0)),
            st.tuples(st.just("loss"), st.integers(0, 10_000_000), st.floats(0, 0)),
            st.tuples(st.just("rto"), st.integers(0, 0), st.floats(0, 0)),
            st.tuples(st.just("ecn"), st.integers(0, 10_000_000), st.floats(0, 0)),
        ),
        max_size=60,
    ),
)
def test_cc_window_always_positive_and_finite(name, events):
    """No event sequence may drive any algorithm's window to <= 0, NaN or
    infinity — the sender would stall or explode."""
    cc = make(name, mss=1448)
    now = 0.0
    delivered = 0
    for kind, arg, rtt in events:
        now += 0.01
        if kind == "ack":
            delivered += arg
            cc.on_ack(
                RateSample(
                    newly_acked=arg,
                    rtt=rtt,
                    delivery_rate=arg / max(rtt, 1e-6),
                    delivered_total=delivered,
                    prior_delivered=max(0, delivered - 2 * arg),
                    in_flight=arg,
                    now=now,
                )
            )
        elif kind == "loss":
            cc.on_loss_event(arg)
            cc.on_recovery_exit()
        elif kind == "rto":
            cc.on_rto()
        elif kind == "ecn":
            cc.on_ecn(arg)
            cc.on_recovery_exit()
        window = cc.window()
        assert window >= cc.mss
        assert window < 2**40
        rate = cc.pacing_rate()
        if rate is not None:
            assert rate > 0


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    chunks=st.lists(st.integers(1, 20_000), min_size=1, max_size=8),
    read_size=st.integers(1, 30_000),
)
def test_property_stream_boundaries_invisible(chunks, read_size):
    """TCP is a byte stream: write boundaries never affect what is read."""
    from conftest import make_linked_stacks
    from repro.net import Endpoint

    rig = make_linked_stacks(rate_bps=1e9, delay=1e-4)
    total = sum(chunks)
    reads = []

    def server(sim):
        listener = rig.stack_b.listen(5000)
        conn = yield listener.accept()
        while True:
            n = yield conn.recv(read_size)
            if n == 0:
                break
            reads.append(n)

    def client(sim):
        conn = rig.stack_a.connect(Endpoint("10.0.0.2", 5000))
        yield conn.established
        for chunk in chunks:
            yield conn.send(chunk)
        yield conn.close()

    rig.sim.process(server(rig.sim))
    rig.sim.process(client(rig.sim))
    rig.run(until=120.0)
    assert sum(reads) == total
    assert all(0 < n <= read_size for n in reads)
