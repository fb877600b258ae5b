"""Fault injection, datapath timeouts, NSM failover, chaos harness."""

import pytest

from repro.api.errors import ConnectionReset, OperationTimedOut
from repro.experiments.chaos import run_chaos, run_chaos_smoke
from repro.experiments.common import make_lan_testbed
from repro.experiments.figure4 import measure_lan_throughput
from repro.faults import Fault, FaultInjector, FaultKind, FaultPlan
from repro.net import Endpoint
from repro.netkernel import CoreEngineConfig, Nqe, NqeOp, NqeRing, NsmSpec


# --------------------------------------------------------------- fault plans --
def random_plan(seed, faults=6):
    return FaultPlan.random(
        seed,
        duration=1.0,
        nsm_targets=("n1", "n2"),
        ring_targets=("r1",),
        region_targets=("hp1",),
        nic_targets=("nic1",),
        ce_targets=("ce1",),
        faults=faults,
    )


def test_random_plan_is_deterministic():
    a, b = random_plan(42), random_plan(42)
    assert a.faults == b.faults
    assert len(a) == 6


def test_random_plan_seed_changes_schedule():
    assert random_plan(1).faults != random_plan(2).faults


def test_random_plan_caps_crashes():
    plan = FaultPlan.random(
        9, duration=1.0, nsm_targets=("n1", "n2"), faults=40, crashes=1
    )
    crashes = [f for f in plan if f.kind is FaultKind.NSM_CRASH]
    assert len(crashes) <= 1


def test_plan_sorted_by_time():
    plan = FaultPlan.scripted(
        [
            Fault(at=0.5, kind=FaultKind.NSM_CRASH, target="n"),
            Fault(at=0.1, kind=FaultKind.NSM_CRASH, target="m"),
        ]
    )
    assert [f.at for f in plan] == [0.1, 0.5]


def test_fault_validation():
    with pytest.raises(ValueError):
        Fault(at=-1.0, kind=FaultKind.NSM_CRASH, target="n")
    with pytest.raises(ValueError):
        Fault(at=0.0, kind=FaultKind.NIC_BLACKHOLE, target="n")  # no duration
    with pytest.raises(ValueError):
        Fault(at=0.0, kind=FaultKind.NSM_SLOWDOWN, target="n", duration=1, factor=0)
    with pytest.raises(ValueError):
        Fault(at=0.0, kind=FaultKind.LINK_LOSS, target="w", duration=1, loss_p=0.0)


def test_plan_describe_mentions_every_fault():
    plan = random_plan(3)
    text = plan.describe()
    assert all(f.kind.value in text for f in plan)


# ------------------------------------------------------------- the injector --
def test_injector_rejects_unknown_target(sim):
    plan = FaultPlan.scripted([Fault(at=0.1, kind=FaultKind.NSM_CRASH, target="?")])
    injector = FaultInjector(sim, plan)
    with pytest.raises(KeyError):
        injector.start()


def test_injector_ring_drop_and_duplicate(sim):
    ring = NqeRing(sim, capacity=8)
    for _ in range(3):
        ring.push(Nqe(op=NqeOp.DATA, vm_id=1, fd=3))
    plan = FaultPlan.scripted(
        [
            Fault(at=0.01, kind=FaultKind.RING_DROP, target="r", count=2),
            Fault(at=0.02, kind=FaultKind.RING_DUP, target="r", count=1),
        ]
    )
    injector = FaultInjector(sim, plan)
    injector.register_ring("r", ring)
    injector.start()
    sim.run(until=0.03)
    # 3 - 2 dropped + 1 duplicated = 2 queued
    assert len(ring) == 2
    assert ring.dropped_corrupt == 2
    assert ring.duplicated_corrupt == 1
    assert [rec["kind"] for rec in injector.injected] == ["ring-drop", "ring-dup"]


def test_injector_nic_blackhole_repairs(sim):
    from repro.net import OffloadConfig, VirtualNIC

    nic = VirtualNIC(sim, "10.9.9.9", OffloadConfig())
    plan = FaultPlan.scripted(
        [Fault(at=0.01, kind=FaultKind.NIC_BLACKHOLE, target="nic", duration=0.05)]
    )
    injector = FaultInjector(sim, plan)
    injector.register_nic("nic", nic)
    injector.start()
    sim.run(until=0.02)
    assert nic.failed
    sim.run(until=0.1)
    assert not nic.failed
    assert injector.recovered and injector.recovered[0]["kind"] == "nic-blackhole"


def test_injector_hugepage_exhaust_releases(sim):
    from repro.netkernel.hugepages import HugePageRegion

    region = HugePageRegion(sim, memcpy=None)
    plan = FaultPlan.scripted(
        [Fault(at=0.01, kind=FaultKind.HUGEPAGE_EXHAUST, target="hp", duration=0.05)]
    )
    injector = FaultInjector(sim, plan)
    injector.register_region("hp", region)
    injector.start()
    sim.run(until=0.02)
    assert region.free_bytes == 0
    sim.run(until=0.1)
    assert region.free_bytes > 0


# ----------------------------------------------- GuestLib timeouts (ETIMEDOUT) --
def _boot_pair(config):
    testbed = make_lan_testbed(coreengine_config=config)
    nsm_a = testbed.hypervisor_a.boot_nsm(NsmSpec())
    nsm_b = testbed.hypervisor_b.boot_nsm(NsmSpec())
    vm_a = testbed.hypervisor_a.boot_netkernel_vm("c", nsm_a)
    vm_b = testbed.hypervisor_b.boot_netkernel_vm("s", nsm_b)
    return testbed, nsm_a, nsm_b, vm_a, vm_b


def test_connect_to_dead_nsm_times_out_typed(monkeypatch):
    monkeypatch.setattr("repro.netkernel.guestlib.OP_RETRIES", 1)
    config = CoreEngineConfig(op_timeout=0.001)
    testbed, _, nsm_b, vm_a, vm_b = _boot_pair(config)
    nsm_b.crash()  # server side dead; handshake can never complete
    caught = []

    def client(api, remote):
        fd = yield api.socket()
        try:
            yield api.connect(fd, remote)
        except OperationTimedOut as exc:
            caught.append(exc)

    testbed.sim.process(client(vm_a.api, Endpoint(vm_b.api.ip, 5000)))
    testbed.sim.run(until=0.1)
    assert len(caught) == 1
    assert vm_a.api.op_timeouts == 1
    assert vm_a.api.op_retries_sent == 1  # one retry before giving up


def test_op_timeout_retry_recovers_without_duplicates():
    """A retried op whose original still completes is not double-counted."""
    config = CoreEngineConfig(op_timeout=0.002)
    testbed, _, _, vm_a, vm_b = _boot_pair(config)
    from repro.apps import BulkReceiver, BulkSender

    rx = BulkReceiver(testbed.sim, vm_b.api, 5000)
    tx = BulkSender(testbed.sim, vm_a.api, Endpoint(vm_b.api.ip, 5000),
                    total_bytes=512 * 1024)
    testbed.sim.run(until=0.2)
    assert rx.meter.bytes == 512 * 1024
    assert tx.bytes_sent == 512 * 1024


def test_retried_socket_gets_the_same_fd_and_leaks_nothing():
    """A SOCKET retried while CoreEngine is stalled is answered once.

    The retry reuses the original's token; CoreEngine remembers which fd
    it gave that token, so the retry creates no second conntable mapping
    and no second NSM backend that nobody would ever close.
    """
    config = CoreEngineConfig(op_timeout=0.001)
    testbed = make_lan_testbed(coreengine_config=config)
    hypervisor = testbed.hypervisor_a
    nsm = hypervisor.boot_nsm(NsmSpec())
    vm = hypervisor.boot_netkernel_vm("c", nsm)
    ce = hypervisor.coreengine
    fds = []

    def app(api):
        fd = yield api.socket()
        fds.append(fd)
        yield api.close(fd)

    ce.core.execute(0.0025)  # a CE_STALL: the SOCKET times out once
    testbed.sim.process(app(vm.api))
    testbed.sim.run(until=0.05)
    assert vm.api.op_retries_sent == 1
    assert len(fds) == 1
    assert ce.table.connections_of_vm(vm.vm_id) == []
    assert not nsm.servicelib._backends


# ------------------------------------------------------------ failover e2e --
def test_nsm_crash_mid_transfer_fails_over_and_recovers():
    result = run_chaos_smoke(seed=7, flows=2)
    assert result.unrecovered == 0
    assert len(result.failovers) >= 1
    assert result.failovers[0]["nsm"].startswith("nsm")
    assert result.failovers[0]["standby"] is not None
    assert result.failovers[0]["connections_reset"] > 0
    # Every flow reconnected to the standby and kept moving bytes.
    assert all(flow.reconnects >= 1 for flow in result.flows)
    assert all(flow.recovered for flow in result.flows)
    # Recovery latency was measured and is sane (detection budget is 3 ms).
    assert result.recovery and 0 <= result.recovery[0][1] < 0.1
    assert result.goodput_gbps > 1.0
    # The datapath surfaced typed errors, not hangs.
    assert result.resets_seen > 0


def test_failover_resets_inflight_ops_typed():
    """In-flight ops against the dead NSM fail ECONNRESET via RESET nqes."""
    config = CoreEngineConfig(op_timeout=0.002, heartbeat_interval=0.001)
    testbed, _, nsm_b, vm_a, vm_b = _boot_pair(config)
    testbed.hypervisor_b.enable_failover(standbys=1)
    caught = []

    def server(api):
        fd = yield api.socket()
        yield api.bind(fd, 5000)
        yield api.listen(fd)
        try:
            yield api.accept(fd)
        except ConnectionReset as exc:
            caught.append(exc)

    testbed.sim.process(server(vm_b.api))
    testbed.sim.schedule_call(0.02, nsm_b.crash)
    testbed.sim.run(until=0.1)
    assert len(caught) == 1
    assert vm_b.api.resets_seen >= 1
    assert testbed.hypervisor_b.coreengine.failovers


def test_slow_nsm_is_suspected_not_killed():
    """A merely-slow NSM (NSM_SLOWDOWN) trips suspicion, not failover.

    Heartbeat budget is 3 ms (1 ms interval x 3 misses) and the kill
    deadline is twice that under the default grace factor.  A ~4.5 ms
    heartbeat gap lands between the two: the watchdog must record a
    suspicion, then clear it when the late heartbeat arrives — killing
    a live NSM here would reset every tenant connection for nothing.
    """
    config = CoreEngineConfig(op_timeout=0.002, heartbeat_interval=0.001)
    testbed = make_lan_testbed(coreengine_config=config)
    nsm_b = testbed.hypervisor_b.boot_nsm(NsmSpec())
    testbed.hypervisor_b.boot_netkernel_vm("s", nsm_b)
    testbed.hypervisor_b.enable_failover(standbys=1)
    ce = testbed.hypervisor_b.coreengine
    # One ServiceLib op at 15000x the 300 ns base cost stalls heartbeat
    # service for ~4.5 ms before the degradation heals.
    testbed.sim.schedule_call(0.02, nsm_b.servicelib.set_degraded, 15000.0)
    testbed.sim.schedule_call(0.024, nsm_b.servicelib.set_degraded, 1.0)
    testbed.sim.run(until=0.1)
    assert ce.heartbeat_suspicions.get(nsm_b.nsm_id, 0) >= 1
    assert not ce.failovers
    assert not nsm_b.failed
    assert nsm_b.nsm_id not in ce._suspected_since  # suspicion cleared


def test_zero_grace_kills_the_slow_nsm(monkeypatch):
    """Without the grace window the same slowdown is a false positive."""
    monkeypatch.setattr("repro.netkernel.coreengine.HEARTBEAT_GRACE", 0.0)
    config = CoreEngineConfig(op_timeout=0.002, heartbeat_interval=0.001)
    testbed = make_lan_testbed(coreengine_config=config)
    nsm_b = testbed.hypervisor_b.boot_nsm(NsmSpec())
    testbed.hypervisor_b.boot_netkernel_vm("s", nsm_b)
    testbed.hypervisor_b.enable_failover(standbys=1)
    ce = testbed.hypervisor_b.coreengine
    testbed.sim.schedule_call(0.02, nsm_b.servicelib.set_degraded, 15000.0)
    testbed.sim.schedule_call(0.024, nsm_b.servicelib.set_degraded, 1.0)
    testbed.sim.run(until=0.1)
    assert ce.failovers and ce.failovers[0]["nsm"] == nsm_b.name
    assert nsm_b.failed


def test_failover_racing_hostile_tenant_spares_innocents():
    """Crashing an abused NSM must not evict other NSMs' connections.

    A hostile tenant floods its own NSM's rings while an innocent tenant
    on a *different* NSM of the same host streams bulk data.  When the
    abused NSM is crashed mid-flood and failed over, eviction must be
    scoped to the dead NSM: the innocent tenant sees no resets and its
    conntable mappings stay put.
    """
    from repro.experiments.chaos import ChaosReceiver, ChaosSender

    config = CoreEngineConfig(op_timeout=0.002, heartbeat_interval=0.001)
    testbed = make_lan_testbed(coreengine_config=config)
    hyp_a, hyp_b = testbed.hypervisor_a, testbed.hypervisor_b
    nsm_a = hyp_a.boot_nsm(NsmSpec())
    nsm_hostile = hyp_b.boot_nsm(NsmSpec(), name="nsm_hostile")
    nsm_innocent = hyp_b.boot_nsm(NsmSpec(), name="nsm_innocent")
    vm_client = hyp_a.boot_netkernel_vm("client", nsm_a)
    vm_hostile = hyp_b.boot_netkernel_vm("hostile", nsm_hostile)
    vm_innocent = hyp_b.boot_netkernel_vm("innocent", nsm_innocent)
    hyp_b.enable_failover(standbys=1)
    ce = hyp_b.coreengine
    rx = ChaosReceiver(testbed.sim, vm_innocent.api, 5000)
    ChaosSender(testbed.sim, vm_client.api, Endpoint(vm_innocent.api.ip, 5000))
    plan = FaultPlan.scripted(
        [
            Fault(
                at=0.02,
                kind=FaultKind.HOSTILE_TENANT,
                target="bad",
                duration=0.06,
                count=8,
            ),
            Fault(at=0.04, kind=FaultKind.NSM_CRASH, target="bad-nsm"),
        ]
    )
    injector = FaultInjector(testbed.sim, plan)
    injector.register_tenant("bad", ce.attachment_of(vm_hostile.vm_id), ce)
    injector.register_nsm("bad-nsm", nsm_hostile)
    injector.start()
    testbed.sim.run(until=0.12)
    assert ce.failovers and ce.failovers[0]["nsm"] == "nsm_hostile"
    assert vm_innocent.api.resets_seen == 0
    assert rx.errors == 0
    # The innocent flow kept moving bytes well past the crash...
    assert rx.last_success_at > 0.05
    # ...and its mappings still point at its own, living NSM.
    conns = ce.table.connections_of_vm(vm_innocent.vm_id)
    assert conns
    for key in conns:
        assert ce.table.to_nsm(*key)[0] == nsm_innocent.nsm_id


def test_standby_pool_exhaustion_degrades_gracefully():
    """No standby left: connections still reset, nothing deadlocks."""
    config = CoreEngineConfig(op_timeout=0.002, heartbeat_interval=0.001)
    testbed, _, nsm_b, vm_a, vm_b = _boot_pair(config)
    hyp_b = testbed.hypervisor_b
    hyp_b.enable_failover(standbys=0)
    hyp_b.host.reserve_memory(hyp_b.host.memory_gb - hyp_b.host._memory_used_gb)
    testbed.sim.schedule_call(0.02, nsm_b.crash)
    testbed.sim.run(until=0.1)
    assert hyp_b.coreengine.failovers
    assert hyp_b.coreengine.failovers[0]["standby"] is None


# ------------------------------------------------------------- golden runs --
def test_empty_plan_is_bit_identical_to_figure4():
    base = measure_lan_throughput("netkernel", flows=2, duration=0.12, warmup=0.03)
    result = run_chaos(flows=2, duration=0.12, warmup=0.03)
    assert result.goodput_gbps == base
    assert result.plan_faults == 0
    assert result.errors == 0
    assert result.unrecovered == 0
