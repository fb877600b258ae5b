"""Unit tests for each congestion-control algorithm's control law."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcp.cc import (
    Bbr,
    CompoundTcp,
    Cubic,
    Dctcp,
    Reno,
    available,
    make,
)
from repro.tcp.cc.base import RateSample
from repro.tcp.cc.bbr import BW_FILTER_ROUNDS

MSS = 1448


def ack(cc, nbytes=MSS, rtt=0.05, now=0.0, rate=None, in_flight=0,
        delivered=0, prior=0, ce=False, app_limited=False):
    cc.on_ack(
        RateSample(
            newly_acked=nbytes,
            rtt=rtt,
            delivery_rate=rate,
            delivered_total=delivered,
            prior_delivered=prior,
            in_flight=in_flight,
            ce_marked=ce,
            is_app_limited=app_limited,
            now=now,
        )
    )


# -------------------------------------------------------------------- registry --
def test_registry_lists_all_algorithms():
    assert set(available()) >= {"reno", "cubic", "bbr", "ctcp", "dctcp"}


def test_make_by_name():
    assert isinstance(make("cubic"), Cubic)
    assert isinstance(make("bbr", mss=1000), Bbr)


def test_make_unknown_raises():
    with pytest.raises(KeyError):
        make("quic-magic")


# ------------------------------------------------------------------------ Reno --
def test_reno_slow_start_doubles_per_rtt():
    cc = Reno(mss=MSS, initial_window_segments=10)
    start = cc.cwnd
    for _ in range(10):
        ack(cc)
    assert cc.cwnd == start + 10 * MSS


def test_reno_congestion_avoidance_linear():
    cc = Reno(mss=MSS)
    cc.ssthresh = cc.cwnd  # force avoidance
    window = cc.cwnd
    acked = 0
    while acked < window:
        ack(cc)
        acked += MSS
    assert cc.cwnd == pytest.approx(window + MSS, abs=1)


def test_reno_halves_on_loss():
    cc = Reno(mss=MSS)
    in_flight = int(cc.cwnd)
    cc.on_loss_event(in_flight)
    assert cc.cwnd == pytest.approx(in_flight / 2)
    assert cc.in_recovery


def test_reno_freezes_during_recovery():
    cc = Reno(mss=MSS)
    cc.on_loss_event(int(cc.cwnd))
    window = cc.cwnd
    ack(cc)
    assert cc.cwnd == window


def test_reno_rto_collapses_to_one_mss():
    cc = Reno(mss=MSS)
    cc.on_rto()
    assert cc.cwnd == MSS


def test_cc_window_floor_is_one_mss():
    cc = Reno(mss=MSS)
    cc.cwnd = 10.0
    assert cc.window() == MSS


# ----------------------------------------------------------------------- Cubic --
def test_cubic_slow_start_like_reno():
    cc = Cubic(mss=MSS)
    start = cc.cwnd
    ack(cc)
    assert cc.cwnd == start + MSS


def test_cubic_reduces_by_beta():
    cc = Cubic(mss=MSS)
    cc.ssthresh = cc.cwnd
    window_seg = cc.cwnd / MSS
    cc.on_loss_event(int(cc.cwnd))
    assert cc.cwnd / MSS == pytest.approx(window_seg * Cubic.BETA, rel=0.01)


def test_cubic_regrows_toward_wmax():
    cc = Cubic(mss=MSS)
    cc.ssthresh = cc.cwnd = 100 * MSS
    cc.on_loss_event(100 * MSS)
    cc.on_recovery_exit()
    dropped = cc.cwnd
    now = 0.0
    for i in range(2000):
        now += 0.01
        ack(cc, rtt=0.05, now=now)
    assert cc.cwnd > dropped
    # Should be back near the pre-loss window after K seconds.
    assert cc.cwnd / MSS >= 95


def test_cubic_fast_convergence_lowers_wmax():
    cc = Cubic(mss=MSS)
    cc.ssthresh = cc.cwnd = 100 * MSS
    cc.on_loss_event(0)
    first_wmax = cc.w_max
    cc.in_recovery = False
    cc.on_loss_event(0)  # second loss with a smaller window
    assert cc.w_max < first_wmax


def test_cubic_long_rtt_growth_beats_reno():
    """Cubic's time-based regrowth is what Reno lacks at long RTT: after a
    loss at 200 ms RTT, cubic must regain far more window in 20 s than
    Reno's one-segment-per-RTT could."""
    rtt, seconds = 0.2, 20.0
    cc = Cubic(mss=MSS)
    cc.ssthresh = cc.cwnd = 50 * MSS
    cc.on_loss_event(50 * MSS)
    cc.on_recovery_exit()
    now = 0.0
    while now < seconds:
        now += rtt
        ack(cc, rtt=rtt, now=now)
    reno_equivalent = 50 * Cubic.BETA + seconds / rtt  # segments
    assert cc.cwnd / MSS > 1.5 * reno_equivalent


# ------------------------------------------------------------------------- BBR --
def test_bbr_starts_in_startup_with_high_gain():
    cc = Bbr(mss=MSS)
    assert cc.state == "STARTUP"
    assert cc.pacing_gain > 2.0


def test_bbr_builds_bandwidth_model():
    cc = Bbr(mss=MSS)
    ack(cc, rate=1e6, rtt=0.1, now=0.1, delivered=MSS)
    assert cc.btl_bw == 1e6
    assert cc.min_rtt == 0.1


def test_bbr_app_limited_samples_cannot_lower_estimate():
    cc = Bbr(mss=MSS)
    ack(cc, rate=1e6, rtt=0.1, now=0.1)
    ack(cc, rate=1e3, rtt=0.1, now=0.2, app_limited=True)
    assert cc.btl_bw == 1e6


def test_bbr_exits_startup_when_bw_plateaus():
    cc = Bbr(mss=MSS)
    now, delivered = 0.0, 0
    # Feed a constant-bandwidth signal across many rounds.
    for round_no in range(12):
        now += 0.1
        delivered += 10 * MSS
        ack(
            cc,
            nbytes=MSS,
            rate=2e6,
            rtt=0.1,
            now=now,
            delivered=delivered,
            prior=delivered - 10 * MSS,
            in_flight=10 * MSS,
        )
    assert cc.state in ("DRAIN", "PROBE_BW")
    assert cc.full_pipe


def test_bbr_pacing_rate_tracks_model():
    cc = Bbr(mss=MSS)
    ack(cc, rate=1e7, rtt=0.05, now=0.1)
    assert cc.pacing_rate() == pytest.approx(cc.pacing_gain * 1e7)


def test_bbr_ignores_isolated_loss():
    cc = Bbr(mss=MSS)
    ack(cc, rate=1e7, rtt=0.05, now=0.1)
    window = cc.cwnd
    cc.on_loss_event(int(window))
    assert cc.cwnd == window  # no reduction


def test_bbr_cwnd_is_gain_times_bdp():
    cc = Bbr(mss=MSS)
    cc.state = "PROBE_BW"
    cc.cwnd_gain = 2.0
    ack(cc, rate=1e7, rtt=0.1, now=0.1)
    assert cc.cwnd == pytest.approx(max(4 * MSS, 2.0 * 1e7 * 0.1), rel=0.01)


def test_bbr_rto_conservation():
    cc = Bbr(mss=MSS)
    cc.on_rto()
    assert cc.cwnd == MSS


@settings(max_examples=300, deadline=None)
@given(
    stream=st.lists(
        st.tuples(
            st.booleans(),  # does this ACK end a round?
            st.one_of(st.none(), st.integers(1, 12).map(float)),  # few values: ties
            st.booleans(),  # app-limited flight?
        ),
        max_size=120,
    )
)
def test_bbr_bandwidth_filter_is_the_windowed_max(stream):
    """The monotone queue must report what rescanning every sample would.

    Reference: keep all accepted samples and take the max over those with
    ``round > round_count - 10`` on each accepted sample; an app-limited
    sample at or below the estimate is skipped and leaves it untouched,
    even when older samples have aged out meanwhile.
    """
    cc = Bbr(mss=MSS)
    kept, estimate, round_count = [], 0.0, 0
    delivered, round_end = 0, 0
    for ends_round, rate, app_limited in stream:
        delivered += MSS
        prior = round_end if ends_round else round_end - 1
        if ends_round:
            round_count += 1
            round_end = delivered
        ack(cc, rate=rate, delivered=delivered, prior=prior, app_limited=app_limited)
        if rate is not None and not (app_limited and rate <= estimate):
            kept.append((round_count, rate))
            estimate = max(r for at, r in kept if at > round_count - BW_FILTER_ROUNDS)
        assert cc.round_count == round_count
        assert cc.btl_bw == estimate
        queued = [r for _at, r in cc._bw_samples]
        assert queued == sorted(set(queued), reverse=True)  # strictly decreasing


# -------------------------------------------------------------------- Compound --
def test_ctcp_dwnd_grows_when_no_queueing():
    cc = CompoundTcp(mss=MSS)
    cc.ssthresh = cc._loss_cwnd  # leave slow start
    for _ in range(100):
        ack(cc, rtt=0.1)  # rtt == base_rtt: no queueing signal
    assert cc.dwnd > 0


def test_ctcp_dwnd_shrinks_under_queueing_delay():
    cc = CompoundTcp(mss=MSS)
    cc.ssthresh = cc._loss_cwnd
    cc.base_rtt = 0.05
    cc.dwnd = 50 * MSS
    cc._recompute()
    for _ in range(200):
        ack(cc, rtt=0.4)  # heavy queueing: diff >> gamma
    assert cc.dwnd < 50 * MSS


def test_ctcp_loss_halves_total_window():
    cc = CompoundTcp(mss=MSS)
    cc.ssthresh = cc._loss_cwnd
    cc.dwnd = 40 * MSS
    cc._recompute()
    before = cc.cwnd
    cc.on_loss_event(int(before))
    assert cc.cwnd == pytest.approx(before * 0.5, rel=0.15)


def test_ctcp_window_is_cwnd_plus_dwnd():
    cc = CompoundTcp(mss=MSS)
    cc.dwnd = 10 * MSS
    cc._recompute()
    assert cc.cwnd == pytest.approx(cc._loss_cwnd + cc.dwnd)


# ----------------------------------------------------------------------- DCTCP --
def test_dctcp_wants_accurate_ecn():
    assert Dctcp(mss=MSS).wants_accurate_ecn


def test_dctcp_alpha_tracks_marking_fraction():
    cc = Dctcp(mss=MSS)
    # Several windows with ~50% marked bytes.
    for _ in range(400):
        ack(cc, ce=True)
        ack(cc, ce=False)
    assert 0.3 < cc.alpha < 0.7


def test_dctcp_alpha_decays_without_marks():
    cc = Dctcp(mss=MSS)
    cc.ssthresh = cc.cwnd  # hold the window ~steady so windows complete
    for _ in range(3000):
        ack(cc, ce=False)
    assert cc.alpha < 0.05


def test_dctcp_reduction_proportional_to_alpha():
    cc = Dctcp(mss=MSS)
    cc.ssthresh = cc.cwnd = 100 * MSS
    cc.alpha = 0.5
    # One full window with some marks triggers cwnd *= (1 - alpha/2).
    acked = 0
    before = cc.cwnd
    while acked <= before:
        ack(cc, ce=True)
        acked += MSS
    assert cc.cwnd < before
    assert cc.cwnd > before * 0.5  # much gentler than a Reno halving


def test_dctcp_loss_still_halves():
    cc = Dctcp(mss=MSS)
    cc.on_loss_event(100 * MSS)
    assert cc.cwnd == pytest.approx(50 * MSS)


# --------------------------------------------------------------------- HyStart --
def test_hystart_exits_slow_start_on_delay_increase():
    cc = Cubic(mss=MSS)
    assert cc.hystart and not cc.hystart_fired
    delivered = 0
    now = 0.0
    # Several rounds at base RTT, then rounds with climbing RTT.  Every
    # ack in a round carries prior_delivered == delivered at round start
    # (that is when its packet was sent), so rounds are detected properly.
    for round_no in range(12):
        rtt = 0.05 if round_no < 4 else 0.05 + 0.01 * (round_no - 3)
        round_start = delivered
        for _ in range(12):
            now += rtt / 12
            delivered += MSS
            ack(cc, rtt=rtt, now=now, delivered=delivered, prior=round_start)
        if cc.hystart_fired:
            break
    assert cc.hystart_fired
    assert cc.ssthresh <= cc.cwnd


def test_hystart_quiet_on_flat_rtt():
    cc = Cubic(mss=MSS)
    delivered = 0
    now = 0.0
    for _ in range(200):
        now += 0.005
        delivered += MSS
        ack(cc, rtt=0.05, now=now, delivered=delivered, prior=delivered)
    assert not cc.hystart_fired


def test_hystart_can_be_disabled():
    cc = Cubic(mss=MSS, hystart=False)
    delivered = 0
    now = 0.0
    for i in range(300):
        now += 0.01
        delivered += MSS
        ack(cc, rtt=0.05 + i * 0.001, now=now, delivered=delivered, prior=delivered)
    assert not cc.hystart_fired
