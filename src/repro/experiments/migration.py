"""Live NSM migration harness (``repro migrate``).

The migration harness runs a *finite* transfer (every sender ships an
exact byte budget, closes, and the receiver drains to EOF) so zero-loss
is checkable byte-for-byte: a run is golden when the receivers land on
exactly ``bytes_expected`` with zero guest-visible errors, whether or
not a migration (or an injected migration fault) happened mid-flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..api.errors import SocketError
from ..api.socket_api import SocketApi
from ..apps.bulk import WRITE_SIZE
from ..faults import FaultInjector, FaultKind, FaultPlan
from ..net import Endpoint
from ..netkernel import CoreEngineConfig, NsmSpec
from ..sim import Simulator
from .chaos import (
    CHAOS_HEARTBEAT_INTERVAL,
    CHAOS_HEARTBEAT_MISS,
    CHAOS_OP_TIMEOUT,
    ChaosReceiver,
)
from .common import FIG4_SOCKET_BUF, make_lan_testbed
from .registry import Experiment
from .table import Column, Table

__all__ = [
    "EXPERIMENT",
    "MigrationRunResult",
    "MigrationChaosResult",
    "run_migration",
    "run_migration_chaos",
]


class _FiniteSender:
    """Ships exactly ``total_bytes`` then closes — the zero-loss probe."""

    def __init__(
        self,
        sim: Simulator,
        api: SocketApi,
        remote: Endpoint,
        total_bytes: int,
    ) -> None:
        self.sim = sim
        self.api = api
        self.remote = remote
        self.total_bytes = total_bytes
        self.bytes_sent = 0
        self.errors = 0
        self.process = sim.process(self._run(), name=f"mig-tx:{remote}")

    def _run(self):
        try:
            fd = yield self.api.socket()
            yield self.api.connect(fd, self.remote)
            while self.bytes_sent < self.total_bytes:
                n = min(WRITE_SIZE, self.total_bytes - self.bytes_sent)
                yield self.api.send(fd, n)
                self.bytes_sent += n
            yield self.api.close(fd)
        except SocketError:
            self.errors += 1


@dataclass
class MigrationRunResult:
    """One migration run's outcome plus the zero-loss verdict."""

    family: str
    final_phase: Optional[str]
    committed: bool
    rolled_back: bool
    reason: Optional[str]
    #: ``(phase, entered_at)`` pairs from the coordinator's log.
    phases: List[tuple]
    freeze_seconds: Optional[float]
    bytes_expected: int
    bytes_received: int
    guest_errors: int
    connections_moved: int
    bytes_transferred: int
    drain_rounds: int
    duplicate_markers: int
    fenced_sources: int
    zombie_nqes: int
    invariant_violations: List[str]
    record: Optional[dict]

    @property
    def zero_loss(self) -> bool:
        return (
            self.bytes_received == self.bytes_expected
            and self.guest_errors == 0
            and not self.invariant_violations
        )

    @property
    def clean_exit(self) -> bool:
        """Migration (if any) ended in a clean COMMIT or clean ROLLBACK."""
        return self.final_phase in (None, "commit", "rolled-back")

    def text(self) -> str:
        return "\n".join([
            f"live migration [{self.family}]: "
            f"{'COMMIT' if self.committed else self.final_phase}",
            f"  {self.connections_moved} connection(s) moved, "
            f"{self.bytes_transferred}B of stack state, "
            f"{self.drain_rounds} drain round(s)",
            f"  guest-visible freeze: {_fmt_us(self.freeze_seconds)}",
            f"  transfer: {self.bytes_received}/{self.bytes_expected}B "
            f"delivered, {self.guest_errors} guest error(s), "
            f"{len(self.invariant_violations)} invariant violation(s)",
            "  phases: "
            + " -> ".join(f"{p}@{t * 1e3:.3f}ms" for p, t in self.phases),
        ])


def run_migration(
    family: str = "tcp",
    migrate: bool = True,
    fault: Optional[FaultKind] = None,
    fault_at: Optional[float] = None,
    flows: int = 2,
    total_mb: int = 8,
) -> MigrationRunResult:
    """A finite LAN transfer (CUBIC NSMs, 50 ms) with a live NSM
    migration launched mid-flight.

    The server VM's NSM (``src``) migrates whole-NSM onto an idle
    same-host destination 1 ms in, while ``flows`` finite bulk flows are
    in progress.  ``fault`` (one of :data:`repro.faults.MIGRATION_KINDS`)
    is injected at ``fault_at`` through a scripted plan targeting the
    coordinator, and arms the chaos fault tolerance.  A
    :class:`~repro.faults.InvariantChecker` watches both CoreEngines for
    the whole run; ``migrate=False`` runs the identical workload with no
    migration — the byte-identity baseline.
    """
    from ..faults import MIGRATION_KINDS, Fault, InvariantChecker

    ft = fault is not None
    config = CoreEngineConfig(
        op_timeout=CHAOS_OP_TIMEOUT if ft else None,
        heartbeat_interval=CHAOS_HEARTBEAT_INTERVAL if ft else None,
        heartbeat_miss=CHAOS_HEARTBEAT_MISS,
    )
    testbed = make_lan_testbed(coreengine_config=config)
    sim = testbed.sim
    overrides = {"rcvbuf": FIG4_SOCKET_BUF, "sndbuf": FIG4_SOCKET_BUF}
    spec = lambda: NsmSpec(  # noqa: E731 — fresh spec per NSM
        tcp_overrides=overrides, stack_family=family
    )
    nsm_a = testbed.hypervisor_a.boot_nsm(spec())
    src = testbed.hypervisor_b.boot_nsm(spec(), name="nsm_src")
    vm_a = testbed.hypervisor_a.boot_netkernel_vm("client", nsm_a, vcpus=4)
    vm_b = testbed.hypervisor_b.boot_netkernel_vm("server", src, vcpus=4)

    checker = InvariantChecker()
    checker.install(testbed.hypervisor_a.coreengine)
    checker.install(testbed.hypervisor_b.coreengine)
    for label, ce, vm in (
        ("vm_a", testbed.hypervisor_a.coreengine, vm_a),
        ("vm_b", testbed.hypervisor_b.coreengine, vm_b),
    ):
        checker.watch_region(f"{label}.hp", ce.attachment_of(vm.vm_id).region)

    coordinator = None
    if migrate:
        dst = testbed.hypervisor_b.boot_nsm(spec(), name="nsm_dst")
        coordinator = testbed.hypervisor_b.migrate_nsm(src, dst, at=1e-3)
        if fault is not None:
            if fault not in MIGRATION_KINDS:
                raise ValueError(f"{fault} is not a migration fault kind")
            if fault_at is None:
                raise ValueError("fault injection needs fault_at")
            injector = FaultInjector(
                sim, FaultPlan.scripted([Fault(at=fault_at, kind=fault, target="mig")])
            )
            injector.register_migration("mig", coordinator)
            injector.start()

    per_flow = total_mb * 1024 * 1024
    receivers: List[ChaosReceiver] = []
    senders: List[_FiniteSender] = []
    for i in range(flows):
        port = 5000 + i
        receivers.append(ChaosReceiver(sim, vm_b.api, port))
        senders.append(
            _FiniteSender(sim, vm_a.api, Endpoint(vm_b.api.ip, port), per_flow)
        )
    sim.run(until=0.05)

    checker.audit()
    record = coordinator.record if coordinator is not None else None
    return MigrationRunResult(
        family=family,
        final_phase=coordinator.phase.value if coordinator is not None else None,
        committed=bool(record and record.get("committed")),
        rolled_back=bool(record and record.get("rolled_back")),
        reason=record.get("reason") if record else None,
        phases=list(coordinator.phase_log) if coordinator is not None else [],
        freeze_seconds=record.get("freeze_seconds") if record else None,
        bytes_expected=per_flow * flows,
        bytes_received=sum(rx.bytes for rx in receivers),
        guest_errors=sum(rx.errors for rx in receivers)
        + sum(tx.errors for tx in senders),
        connections_moved=record.get("connections_moved", 0) if record else 0,
        bytes_transferred=record.get("bytes_transferred", 0) if record else 0,
        drain_rounds=record.get("drain_rounds", 0) if record else 0,
        duplicate_markers=(
            coordinator.duplicate_markers if coordinator is not None else 0
        ),
        fenced_sources=len(record.get("fenced_sources", [])) if record else 0,
        zombie_nqes=coordinator.zombie_nqes if coordinator is not None else 0,
        invariant_violations=list(checker.violations),
        record=record,
    )


#: Phases whose entry boundary the chaos sweep injects faults into.
_INJECTABLE_PHASES = ("prepare", "freeze", "transfer", "repoint", "resume")


@dataclass
class MigrationChaosResult:
    """A boundary-sweep of migration faults plus the fault-free pilot."""

    family: str
    pilot: MigrationRunResult
    cases: List[tuple] = field(default_factory=list, init=False)  # (kind, phase, result)
    failures: List[str] = field(default_factory=list)

    def text(self) -> str:
        """The pilot, then one row per (fault kind, phase) case."""
        return CASES.fill(
            (
                dict(vars(case), kind=kind.value, boundary=phase,
                     verdict="ok" if case.zero_loss and case.clean_exit else "FAIL")
                for kind, phase, case in self.cases
            ),
            **vars(self.pilot),
            verdict="COMMIT" if self.pilot.committed else "ROLLBACK",
            freeze=_fmt_us(self.pilot.freeze_seconds),
            clean=len(self.cases) - len(self.failures),
            cases=len(self.cases),
            failed=f", {len(self.failures)} FAILED" if self.failures else "",
        ).text()


#: A migration chaos sweep's report: one headerless row per case.
CASES = Table(
    "migration chaos [{family}]: pilot {verdict} freeze={freeze} "
    "moved={connections_moved} conn(s) state={bytes_transferred}B "
    "drain_rounds={drain_rounds}",
    (
        Column("kind", fmt=">24"),
        Column("at", derive=lambda r: f"@{r['boundary']:<8} -> {r['final_phase']:<11}"),
        Column("bytes", derive=lambda r: f"bytes {r['bytes_received']}/{r['bytes_expected']}"),
        Column("errors", derive=lambda r: f"errors={r['guest_errors']}"),
        Column(
            "violations",
            derive=lambda r: f"violations={len(r['invariant_violations'])}"
            + (f" fenced={r['fenced_sources']}" if r["fenced_sources"] else ""),
        ),
        Column("verdict"),
    ),
    below=("  {clean}/{cases} fault cases clean{failed}",),
    indent="  ",
)


def _fmt_us(seconds: Optional[float]) -> str:
    return f"{seconds * 1e6:.1f}us" if seconds is not None else "-"


def _check_case(result: MigrationRunResult, label: str, failures: List[str]) -> None:
    if not result.clean_exit:
        failures.append(f"{label}: ended in {result.final_phase}, not commit/rollback")
    if result.bytes_received != result.bytes_expected:
        failures.append(
            f"{label}: received {result.bytes_received}B, "
            f"expected {result.bytes_expected}B"
        )
    if result.guest_errors:
        failures.append(f"{label}: {result.guest_errors} guest-visible error(s)")
    if result.invariant_violations:
        failures.append(
            f"{label}: {len(result.invariant_violations)} invariant violation(s): "
            + "; ".join(result.invariant_violations[:3])
        )


def run_migration_chaos(
    family: str = "tcp",
    phases=_INJECTABLE_PHASES,
    kinds=None,
    **run_kwargs,
) -> MigrationChaosResult:
    """Inject every migration fault kind at every phase boundary.

    A fault-free pilot run learns the phase-boundary times from the
    coordinator's log (the simulation is deterministic, so a replay hits
    the same boundaries); each (kind, phase) case then replays with the
    fault landing just inside that boundary's dwell window.  Every case
    must end in a clean COMMIT or clean ROLLBACK with the full byte
    budget delivered, zero guest errors and zero invariant violations.
    """
    from ..faults import FaultKind as FK

    kinds = kinds or (
        FK.MIGRATION_ABORT,
        FK.DEST_CRASH_MID_TRANSFER,
        FK.SPLIT_BRAIN,
    )
    pilot = run_migration(family=family, **run_kwargs)
    result = MigrationChaosResult(family=family, pilot=pilot)
    if not pilot.committed:
        result.failures.append(
            f"pilot: fault-free migration did not commit ({pilot.reason})"
        )
    _check_case(pilot, "pilot", result.failures)
    boundaries = {phase: at for phase, at in pilot.phases}
    #: Land mid-dwell: the coordinator re-checks aborts and destination
    #: health after each boundary's ``PHASE_PAUSE`` wait.
    epsilon = 0.5e-6
    for kind in kinds:
        for phase in phases:
            if phase not in boundaries:
                continue
            case = run_migration(
                family=family,
                fault=kind,
                fault_at=boundaries[phase] + epsilon,
                **run_kwargs,
            )
            result.cases.append((kind, phase, case))
            _check_case(case, f"{kind.value}@{phase}", result.failures)
            if kind is FK.SPLIT_BRAIN and case.committed and not case.fenced_sources:
                result.failures.append(
                    f"{kind.value}@{phase}: committed but the stale source "
                    "was never fenced"
                )
    return result


def _run(smoke: bool, chaos: bool, family: str, flows: int, total_mb: int):
    if smoke:  # the full boundary sweep for TCP, abbreviated for QUIC
        return [
            run_migration_chaos(family="tcp"),
            run_migration_chaos(family="quic", phases=("transfer", "resume")),
        ]
    if chaos:
        return run_migration_chaos(family=family, flows=flows, total_mb=total_mb)
    return run_migration(family=family, flows=flows, total_mb=total_mb)


def _check(result, smoke: bool, chaos: bool, **_params):
    if smoke:
        return "migrate --smoke", [f for sweep in result for f in sweep.failures]
    if chaos:
        return "migrate --chaos", result.failures
    zero_loss = result.zero_loss and result.committed
    return "migrate", [] if zero_loss else ["migration was not zero-loss"]


#: ``repro migrate``: one live migration, its fault sweep (``chaos``), or
#: the CI smoke (both families' sweeps); each must end zero-loss.
EXPERIMENT = Experiment(
    points=lambda smoke=False, chaos=False, family="tcp", flows=2, total_mb=8: [
        (f"migrate:{family}", (smoke, chaos, family, flows, total_mb))
    ],
    measure=_run,
    text=lambda result, smoke, **_params: (
        "\n\n".join(sweep.text() for sweep in result) if smoke else result.text()
    ),
    check=_check,
)
