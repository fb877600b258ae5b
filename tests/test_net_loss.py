"""Loss model statistics and validation."""

import pytest

from repro.net import EpisodicLoss, IIDLoss, NoLoss


def test_no_loss_never_drops():
    model = NoLoss()
    assert not any(model.should_drop(t * 0.1) for t in range(1000))


def test_iid_loss_rate_is_about_right():
    model = IIDLoss(0.1, seed=42)
    drops = sum(model.should_drop() for _ in range(20_000))
    assert 0.08 < drops / 20_000 < 0.12


def test_iid_loss_zero_probability():
    model = IIDLoss(0.0)
    assert not any(model.should_drop() for _ in range(1000))


def test_iid_loss_is_deterministic_per_seed():
    a = [IIDLoss(0.5, seed=7).should_drop() for _ in range(100)]
    b = [IIDLoss(0.5, seed=7).should_drop() for _ in range(100)]
    assert a == b


def test_iid_loss_validates_probability():
    with pytest.raises(ValueError):
        IIDLoss(1.1)
    with pytest.raises(ValueError):
        IIDLoss(-0.1)


def test_iid_loss_certain_drop_allowed():
    model = IIDLoss(1.0)
    assert all(model.should_drop() for _ in range(10))


def test_episodic_loss_drops_burst_at_episode():
    model = EpisodicLoss(mean_interval=10.0, burst_len=3, seed=1)
    # Probe far past the first scheduled episode.
    drops = [model.should_drop(now=1000.0) for _ in range(10)]
    assert drops[:3] == [True, True, True]
    assert not any(drops[3:])


def test_episodic_loss_no_drops_before_first_episode():
    model = EpisodicLoss(mean_interval=1e9, burst_len=2, seed=1)
    assert not any(model.should_drop(now=0.001 * i) for i in range(100))


def test_episodic_background_loss():
    model = EpisodicLoss(mean_interval=1e9, burst_len=1, background_p=0.5, seed=3)
    drops = sum(model.should_drop(now=0.0) for _ in range(2000))
    assert 800 < drops < 1200


def test_episodic_validates_arguments():
    with pytest.raises(ValueError):
        EpisodicLoss(0.0)
    with pytest.raises(ValueError):
        EpisodicLoss(1.0, burst_len=0)
    with pytest.raises(ValueError):
        EpisodicLoss(1.0, background_p=1.0)
