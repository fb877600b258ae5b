"""Per-tenant QoS: token buckets and end-to-end rate caps."""

import pytest

from repro.apps import BulkReceiver, BulkSender
from repro.experiments.common import make_lan_testbed
from repro.faults import Fault, FaultInjector, FaultKind, FaultPlan
from repro.net import Endpoint
from repro.netkernel import CoreEngineConfig, NsmSpec, TokenBucket


# ----------------------------------------------------------------- TokenBucket --
def test_bucket_immediate_within_burst(sim):
    bucket = TokenBucket(sim, rate_bps=8e6, burst_bytes=100_000)
    taken = bucket.take(50_000)
    assert taken.triggered


def test_bucket_blocks_until_refill(sim):
    bucket = TokenBucket(sim, rate_bps=8e6, burst_bytes=65536)  # 1 MB/s
    bucket.take(65536)  # drain the burst
    fired = []
    bucket.take(100_000).add_callback(lambda ev: fired.append(sim.now))
    sim.run(until=0.05)
    assert fired == []
    sim.run(until=0.2)
    assert len(fired) == 1
    assert fired[0] == pytest.approx(0.1, rel=0.05)  # 100 KB at 1 MB/s


def test_bucket_serves_waiters_fifo(sim):
    bucket = TokenBucket(sim, rate_bps=8e6, burst_bytes=65536)
    bucket.take(65536)
    order = []
    bucket.take(200_000).add_callback(lambda ev: order.append("big"))
    bucket.take(100).add_callback(lambda ev: order.append("small"))
    sim.run(until=1.0)
    assert order == ["big", "small"]  # no starvation of the large request


def test_bucket_sustained_rate(sim):
    bucket = TokenBucket(sim, rate_bps=80e6, burst_bytes=65536)  # 10 MB/s
    done = {}

    def pump(sim):
        total = 0
        while total < 10_000_000:
            yield bucket.take(65536)
            total += 65536
        done["at"] = sim.now

    sim.process(pump(sim))
    sim.run(until=10.0)
    # 10 MB at 10 MB/s ~ 1 s (minus one initial burst).
    assert done["at"] == pytest.approx(1.0, rel=0.05)


def test_bucket_validates(sim):
    with pytest.raises(ValueError):
        TokenBucket(sim, rate_bps=0)
    bucket = TokenBucket(sim, rate_bps=1e6)
    with pytest.raises(ValueError):
        bucket.take(-1)


# ----------------------------------------------------------------- end to end --
CAP_BPS = 4e9


def _goodput_gbps(testbed, vm, duration=0.25, warmup=0.08):
    """Stream from ``vm`` to a sink on host B; goodput after ``warmup``."""
    nsm_rx = testbed.hypervisor_b.boot_nsm(NsmSpec())
    sink = testbed.hypervisor_b.boot_netkernel_vm("sink", nsm_rx, vcpus=4)
    receiver = BulkReceiver(testbed.sim, sink.api, 5000, warmup=warmup)
    BulkSender(testbed.sim, vm.api, Endpoint(sink.api.ip, 5000))
    testbed.sim.run(until=duration)
    return receiver.meter.bps(until=duration) / 1e9


@pytest.mark.slow
def test_rate_cap_enforced_end_to_end():
    from repro.experiments.ablation_qos import measure_rate_cap

    measured = measure_rate_cap(cap_bps=8e9, duration=0.25, warmup=0.08)
    assert measured == pytest.approx(8.0, rel=0.05)


@pytest.mark.slow
def test_uncapped_tenant_exceeds_cap_level():
    testbed = make_lan_testbed()
    nsm_tx = testbed.hypervisor_a.boot_nsm(NsmSpec())
    vm_tx = testbed.hypervisor_a.boot_netkernel_vm("t", nsm_tx)
    assert _goodput_gbps(testbed, vm_tx) > 15.0


# ------------------------------------------------------- the cap's owner --
def test_rate_cap_is_registered_with_coreengine():
    testbed = make_lan_testbed()
    hyp = testbed.hypervisor_a
    nsm = hyp.boot_nsm(NsmSpec(max_tenants=2))
    capped = hyp.boot_netkernel_vm("capped", nsm, rate_limit_bps=CAP_BPS)
    free = hyp.boot_netkernel_vm("free", nsm)
    assert hyp.coreengine.rate_caps == {capped.vm_id: CAP_BPS}
    assert nsm.servicelib.rate_caps is hyp.coreengine.rate_caps
    assert nsm.servicelib._rate_bucket(capped.vm_id) is not None
    assert nsm.servicelib._rate_bucket(free.vm_id) is None


@pytest.mark.slow
def test_rate_cap_survives_warm_standby_failover():
    """The standby booted from a default spec still enforces the cap: it
    belongs to the tenant, not to the dead NSM's spec."""
    testbed = make_lan_testbed(
        coreengine_config=CoreEngineConfig(heartbeat_interval=0.001)
    )
    hyp = testbed.hypervisor_a
    nsm = hyp.boot_nsm(NsmSpec())
    vm = hyp.boot_netkernel_vm("capped", nsm, rate_limit_bps=CAP_BPS)
    hyp.enable_failover(standbys=1)
    injector = FaultInjector(
        testbed.sim,
        FaultPlan.scripted([Fault(at=0.0, kind=FaultKind.NSM_CRASH, target="nsm")]),
    )
    injector.register_nsm("nsm", nsm)
    injector.start()
    testbed.sim.run(until=0.01)  # the watchdog's misses declare it dead
    serving = hyp.coreengine.attachment_of(vm.vm_id).nsm
    assert serving is not nsm and not serving.failed
    assert serving.servicelib._rate_bucket(vm.vm_id) is not None
    assert _goodput_gbps(testbed, vm) == pytest.approx(CAP_BPS / 1e9, rel=0.05)


@pytest.mark.slow
def test_rate_cap_survives_live_migration():
    """A capped tenant's live flow stays capped after it moves to a
    destination NSM booted without any QoS setting."""
    testbed = make_lan_testbed()
    hyp = testbed.hypervisor_a
    src = hyp.boot_nsm(NsmSpec(), name="src")
    dst = hyp.boot_nsm(NsmSpec(), name="dst")
    vm = hyp.boot_netkernel_vm("capped", src, rate_limit_bps=CAP_BPS)
    coordinator = hyp.migrate_nsm(src, dst, at=0.01)
    measured = _goodput_gbps(testbed, vm)
    assert coordinator.record["committed"]
    assert hyp.coreengine.attachment_of(vm.vm_id).nsm is dst
    assert dst.servicelib._rate_bucket(vm.vm_id) is not None
    assert measured == pytest.approx(CAP_BPS / 1e9, rel=0.05)


@pytest.mark.slow
def test_capped_tenant_completes_a_bounded_transfer():
    testbed = make_lan_testbed()
    sim = testbed.sim
    nsm_tx = testbed.hypervisor_a.boot_nsm(NsmSpec())
    nsm_rx = testbed.hypervisor_b.boot_nsm(NsmSpec())
    vm_tx = testbed.hypervisor_a.boot_netkernel_vm(
        "t", nsm_tx, rate_limit_bps=CAP_BPS
    )
    vm_rx = testbed.hypervisor_b.boot_netkernel_vm("s", nsm_rx, vcpus=4)
    receiver = BulkReceiver(sim, vm_rx.api, 5000)
    BulkSender(sim, vm_tx.api, Endpoint(vm_rx.api.ip, 5000), total_bytes=2_000_000)
    sim.run(until=2.0)
    assert receiver.meter.bytes == 2_000_000
