"""Live NSM migration: zero-loss handoff, rollback, chaos state machine."""

import pytest

from repro.experiments.chaos import ChaosReceiver, ChaosSender
from repro.experiments.common import make_lan_testbed
from repro.experiments.migration import run_migration, run_migration_chaos
from repro.faults import FaultKind
from repro.net import Endpoint
from repro.netkernel import CoreEngineConfig, NsmSpec
from repro.netkernel.migration import MigrationCoordinator, MigrationPhase


# ------------------------------------------------------------- golden runs --
def test_fault_free_tcp_migration_is_zero_loss():
    """Migration mid-transfer delivers the exact byte budget: the guest
    sees a bounded freeze and nothing else."""
    baseline = run_migration(family="tcp", migrate=False)
    migrated = run_migration(family="tcp")
    assert baseline.guest_errors == 0
    assert baseline.bytes_received == baseline.bytes_expected
    assert migrated.committed
    assert migrated.final_phase == "commit"
    assert migrated.guest_errors == 0
    assert migrated.bytes_received == migrated.bytes_expected
    # Byte-for-byte identical application-level transfer vs. no migration.
    assert migrated.bytes_received == baseline.bytes_received
    assert not migrated.invariant_violations
    assert migrated.connections_moved > 0
    assert migrated.bytes_transferred > 0
    # Guest-visible freeze is bounded and charged to simulated clocks.
    assert migrated.freeze_seconds is not None
    assert 0 < migrated.freeze_seconds < 1e-3
    assert [p for p, _ in migrated.phases] == [
        "prepare", "freeze", "transfer", "repoint", "resume", "commit",
    ]


def test_fault_free_quic_migration_is_zero_loss():
    baseline = run_migration(family="quic", migrate=False)
    migrated = run_migration(family="quic")
    assert migrated.committed
    assert migrated.guest_errors == 0
    assert migrated.bytes_received == migrated.bytes_expected
    assert migrated.bytes_received == baseline.bytes_received
    assert not migrated.invariant_violations
    assert migrated.freeze_seconds is not None and migrated.freeze_seconds < 1e-3
    # The QUIC snapshots carry connection IDs, not TCP sequence space.
    kinds = {s.get("kind") for s in migrated.record["snapshots"]}
    assert "quic" in kinds


def test_tcp_snapshots_serialize_stack_state():
    result = run_migration(family="tcp")
    conn_snaps = [s for s in result.record["snapshots"] if s.get("kind") == "tcp"]
    assert conn_snaps
    for snap in conn_snaps:
        assert snap["state"] == "established"
        assert snap["cc"] == "cubic"
        assert snap["cwnd"] > 0
        assert snap["snd_nxt"] >= snap["snd_una"] >= 0
        assert snap["state_bytes"] >= 256
        assert "rtx_queue_bytes" in snap


# ---------------------------------------------------------------- rollback --
def test_abort_at_every_boundary_rolls_back_zero_loss():
    sweep = run_migration_chaos(family="tcp", kinds=(FaultKind.MIGRATION_ABORT,))
    assert not sweep.failures
    assert len(sweep.cases) == 5
    for _, _phase, case in sweep.cases:
        assert case.final_phase == "rolled-back"
        assert case.bytes_received == case.bytes_expected
        assert case.guest_errors == 0
        assert not case.invariant_violations


def test_dest_crash_mid_transfer_rolls_back_zero_loss():
    sweep = run_migration_chaos(
        family="tcp", kinds=(FaultKind.DEST_CRASH_MID_TRANSFER,)
    )
    assert not sweep.failures
    for _, _phase, case in sweep.cases:
        assert case.rolled_back
        assert "failed" in case.reason
        assert case.bytes_received == case.bytes_expected


def test_split_brain_source_is_fenced():
    """A source that resumes after COMMIT is crashed on first offense and
    the destination keeps exclusive ownership of the cID space."""
    sweep = run_migration_chaos(family="tcp", kinds=(FaultKind.SPLIT_BRAIN,))
    assert not sweep.failures
    for _, _phase, case in sweep.cases:
        assert case.committed  # split brain is a post-commit hazard
        assert case.fenced_sources >= 1
        assert case.zombie_nqes >= 1
        assert case.bytes_received == case.bytes_expected
        assert not case.invariant_violations


def test_quic_migration_chaos_boundaries():
    sweep = run_migration_chaos(family="quic", phases=("transfer", "resume"))
    assert not sweep.failures


# ------------------------------------------------------- state machine unit --
def _boot_migration_pair(tenant_count=1, family="tcp", flow=False):
    """src/dst NSM pair on host B; ``flow=True`` adds a live bulk flow
    from a host-A client into the first tenant before any migration."""
    testbed = make_lan_testbed(coreengine_config=CoreEngineConfig())
    hyp = testbed.hypervisor_b
    spec = lambda: NsmSpec(stack_family=family, max_tenants=4)  # noqa: E731
    src = hyp.boot_nsm(spec(), name="src")
    dst = hyp.boot_nsm(spec(), name="dst")
    vms = [hyp.boot_netkernel_vm(f"t{i}", src) for i in range(tenant_count)]
    apps = None
    if flow:
        nsm_a = testbed.hypervisor_a.boot_nsm(spec())
        client = testbed.hypervisor_a.boot_netkernel_vm("client", nsm_a)
        rx = ChaosReceiver(testbed.sim, vms[0].api, 5000)
        tx = ChaosSender(
            testbed.sim, client.api, Endpoint(vms[0].api.ip, 5000)
        )
        apps = (rx, tx)
    return testbed, hyp, src, dst, vms, apps


def test_prepare_rejects_per_tenant_tcp():
    """TCP is wire-identified by the NSM IP: per-tenant moves must be
    refused (QUIC routes by cID and may move one tenant)."""
    testbed, hyp, src, dst, vms, _ = _boot_migration_pair(tenant_count=2)
    coordinator = hyp.migrate_nsm(src, dst, tenant=vms[0].vm_id)
    testbed.sim.run(until=0.01)
    assert coordinator.record["rolled_back"]
    assert "wire-identified" in coordinator.record["reason"]


def test_prepare_rejects_busy_destination():
    testbed, hyp, src, dst, vms, _ = _boot_migration_pair()
    hyp.boot_netkernel_vm("squatter", dst)  # dst no longer idle
    coordinator = hyp.migrate_nsm(src, dst)
    testbed.sim.run(until=0.01)
    assert coordinator.record["rolled_back"]
    assert "idle" in coordinator.record["reason"]


def test_prepare_rejects_cross_host_ip_takeover():
    testbed = make_lan_testbed(coreengine_config=CoreEngineConfig())
    src = testbed.hypervisor_b.boot_nsm(NsmSpec(), name="src")
    far = testbed.hypervisor_a.boot_nsm(NsmSpec(), name="far")
    testbed.hypervisor_b.boot_netkernel_vm("t0", src)
    coordinator = testbed.hypervisor_b.migrate_nsm(src, far)
    testbed.sim.run(until=0.01)
    assert coordinator.record["rolled_back"]
    assert "same-host" in coordinator.record["reason"]


def test_one_migration_in_flight_per_coreengine():
    testbed, hyp, src, dst, vms, _ = _boot_migration_pair()
    hyp.migrate_nsm(src, dst, at=0.001)
    second = MigrationCoordinator(hyp.coreengine, src, dst)
    raised = []

    def try_second():
        with pytest.raises(RuntimeError, match="in flight"):
            second.start()
        raised.append(True)

    # Launch the second while the first is between phase boundaries.
    testbed.sim.schedule_call(0.0010015, try_second)
    testbed.sim.run(until=0.01)
    assert raised


def test_drain_marker_duplicates_are_ignored():
    testbed, hyp, src, dst, vms, _ = _boot_migration_pair()
    coordinator = MigrationCoordinator(hyp.coreengine, src, dst)
    from repro.sim import Event

    wait = {"paths": set(), "event": Event(testbed.sim)}
    coordinator._marker_waits[7] = wait
    payload = (coordinator.migration_id, 7)
    coordinator.on_drain_marker("job", payload)
    coordinator.on_drain_marker("receive", payload)
    assert wait["event"].triggered
    assert 7 not in coordinator._marker_waits
    # Replays of a completed marker (ring corruption) dedup silently.
    coordinator.on_drain_marker("receive", payload)
    coordinator.on_drain_marker("job", (999, 7))  # someone else's marker
    assert coordinator.duplicate_markers == 1


def test_rollback_restores_conntable_and_ip():
    """An abort landing after REPOINT reverses the re-point: table,
    aliases, tenant lists and NSM IP are exactly as before."""
    testbed, hyp, src, dst, vms, apps = _boot_migration_pair(flow=True)
    ce = hyp.coreengine
    sim = testbed.sim
    src_ip = src.ip
    coordinator = hyp.migrate_nsm(src, dst, at=0.002)
    state = {}

    def capture_then_abort():
        # Spin in fine steps until the coordinator is inside REPOINT's
        # dwell window, then abort before the RESUME-boundary check.
        while coordinator.phase not in (
            MigrationPhase.REPOINT,
            MigrationPhase.COMMIT,
            MigrationPhase.ROLLED_BACK,
        ):
            yield sim.timeout(2e-7)
        assert coordinator.phase is MigrationPhase.REPOINT
        coordinator.request_abort("operator abort")

    def capture_baseline():
        state["conns"] = {
            key: ce.table.to_nsm(*key)
            for key in ce.table.connections_of_vm(vms[0].vm_id)
        }

    sim.schedule_call(0.0019, capture_baseline)
    sim.process(capture_then_abort())
    sim.run(until=0.02)
    assert state["conns"], "flow never established"
    assert coordinator.record["rolled_back"]
    assert coordinator.record["reason"] == "operator abort"
    assert src.ip == src_ip
    assert src.tenant_vm_ids == [vms[0].vm_id]
    assert dst.tenant_vm_ids == []
    for vm_key, nsm_key in state["conns"].items():
        assert ce.table.to_nsm(*vm_key) == nsm_key
    assert not ce.table.audit()
    rx, tx = apps
    assert rx.errors == 0 and tx.errors == 0
    # The flow keeps moving bytes on the source after the rollback.
    assert rx.last_success_at > coordinator.record["finished_at"]


def test_commit_repoints_conntable_and_keeps_aliases():
    testbed, hyp, src, dst, vms, apps = _boot_migration_pair(flow=True)
    ce = hyp.coreengine
    src_ip = src.ip
    coordinator = hyp.migrate_nsm(src, dst, at=0.002)
    testbed.sim.run(until=0.02)
    assert coordinator.record["committed"]
    assert coordinator.record["connections_moved"] > 0
    assert dst.ip == src_ip  # IP takeover
    assert src.tenant_vm_ids == []
    assert dst.tenant_vm_ids == [vms[0].vm_id]
    for vm_key in ce.table.connections_of_vm(vms[0].vm_id):
        assert ce.table.to_nsm(*vm_key)[0] == dst.nsm_id
    # Retired <NSM, cID> keys stay aliased for exactly-once forwarding
    # and stale-source fencing.
    assert len(ce.table._alias) >= coordinator.record["connections_moved"]
    assert not ce.table.audit()
    rx, tx = apps
    assert rx.errors == 0 and tx.errors == 0
    assert rx.last_success_at > coordinator.record["finished_at"]
