"""Chaos harness: figure workloads under a fault plan (``repro chaos``).

Runs the Figure 4 LAN bulk-transfer workload on the NetKernel datapath
while a :class:`~repro.faults.FaultInjector` executes a
:class:`~repro.faults.FaultPlan`, and reports what the paper's
deployability story demands: goodput per fault phase, recovery latency
(fault to first subsequent successful op), typed error counts, failover
records, and how many flows never recovered.

The chaos applications are deliberately *resilient* versions of the bulk
apps: they catch :class:`~repro.api.errors.SocketError` (ETIMEDOUT from
GuestLib op timeouts, ECONNRESET from failover) and reconnect, the way a
retrying RPC client or a supervised server would.  With an empty plan
and fault tolerance off, they execute the exact op sequence of
``measure_lan_throughput`` — the golden bit-identical baseline.

Canonical injector target names registered by :func:`run_chaos`:

========================  =====================================================
``nsm_a`` / ``nsm_b``     client- / server-side NSM (crash, slowdown)
``ce_a`` / ``ce_b``       the two CoreEngines (stall)
``vm_a.job`` etc.         tenant rings: ``vm_{a,b}.{job,cq,rq}``
``nsm_a.job`` etc.        NSM rings: ``nsm_{a,b}.{job,cq,rq}``
``vm_a.hp`` / ``vm_b.hp`` tenant huge-page regions (exhaustion)
``nsm_a.nic`` etc.        NSM NICs (blackhole)
``wire.ab`` / ``wire.ba`` LAN wire directions (loss burst)
========================  =====================================================
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional

from ..api.errors import SocketError
from ..api.socket_api import SocketApi
from ..apps.bulk import READ_SIZE, WRITE_SIZE
from ..faults import FaultInjector, FaultKind, FaultPlan
from ..net import Endpoint
from ..netkernel import CoreEngineConfig, NsmSpec
from ..sim import Simulator
from .common import FIG4_SOCKET_BUF, make_lan_testbed

__all__ = [
    "ChaosReceiver",
    "ChaosSender",
    "ChaosFlow",
    "ChaosResult",
    "default_random_plan",
    "run_chaos",
    "run_chaos_fuzz",
    "render_fuzz_sweep",
    "MigrationRunResult",
    "MigrationChaosResult",
    "run_migration",
    "run_migration_chaos",
    "run_migration_smoke",
]

#: Chaos-mode fault-tolerance defaults (simulated seconds).  The op
#: timeout sits well above a healthy op's turnaround (microseconds) and
#: the watchdog declares death after 3 ms of silence.
CHAOS_OP_TIMEOUT = 0.002
CHAOS_HEARTBEAT_INTERVAL = 0.001
CHAOS_HEARTBEAT_MISS = 3
#: Back off this long after a failed connect/transfer before retrying.
CHAOS_RETRY_DELAY = 0.001


class _RecoveryTracker:
    """Matches each fault time with the first successful op after it."""

    def __init__(self, sim: Simulator, fault_times: List[float]) -> None:
        self.sim = sim
        self._pending = deque(sorted(fault_times))
        #: ``(fault_at, latency_seconds)`` per fault, in fault order.
        self.samples: List[tuple] = []

    def success(self) -> None:
        now = self.sim.now
        while self._pending and self._pending[0] <= now:
            fault_at = self._pending.popleft()
            self.samples.append((fault_at, now - fault_at))


class ChaosReceiver:
    """A supervised bulk server: re-listens after resets, accepts forever.

    Each accepted connection is drained by its own process, so a stale
    connection (its peer's NSM died silently) cannot head-of-line block
    the accept loop — the reconnecting sender gets served.
    """

    def __init__(
        self,
        sim: Simulator,
        api: SocketApi,
        port: int,
        tracker: Optional[_RecoveryTracker] = None,
        warmup: float = 0.0,
        phase_edges: Optional[List[float]] = None,
    ) -> None:
        self.sim = sim
        self.api = api
        self.port = port
        self.warmup = warmup
        self.tracker = tracker
        self.phase_edges = list(phase_edges or [])
        self.phase_bytes = [0] * (len(self.phase_edges) + 1)
        self._phase = 0
        self.bytes = 0
        self.first_at: Optional[float] = None
        self.errors = 0
        self.connections_served = 0
        self.last_success_at = -1.0
        self.process = sim.process(self._listen(), name=f"chaos-rx:{port}")

    def _record(self, nbytes: int) -> None:
        now = self.sim.now
        self.last_success_at = now
        if self.tracker is not None:
            self.tracker.success()
        if now < self.warmup:
            return
        while self._phase < len(self.phase_edges) and now >= self.phase_edges[self._phase]:
            self._phase += 1
        self.phase_bytes[self._phase] += nbytes
        if self.first_at is None:
            self.first_at = now
        self.bytes += nbytes

    def _listen(self):
        while True:
            try:
                fd = yield self.api.socket()
                yield self.api.bind(fd, self.port)
                yield self.api.listen(fd)
                while True:
                    conn_fd = yield self.api.accept(fd)
                    self.connections_served += 1
                    self.sim.process(
                        self._drain(conn_fd),
                        name=f"chaos-rx:{self.port}.c{self.connections_served}",
                    )
            except SocketError:
                # Listener reset (our NSM failed over) or setup timed out:
                # back off, then stand up a fresh listener.
                self.errors += 1
                yield self.sim.timeout(CHAOS_RETRY_DELAY)

    def _drain(self, conn_fd: int):
        try:
            while True:
                n = yield self.api.recv(conn_fd, READ_SIZE)
                if n == 0:
                    break
                self._record(n)
        except SocketError:
            self.errors += 1
        try:
            yield self.api.close(conn_fd)
        except SocketError:
            pass

    def goodput_bps(self, until: float) -> float:
        """Post-warmup goodput, computed exactly as ThroughputMeter.bps
        so an empty-plan chaos run is bit-comparable to figure4."""
        if self.first_at is None:
            return 0.0
        span = until - self.first_at
        return self.bytes * 8.0 / span if span > 0 else 0.0


class ChaosSender:
    """A retrying bulk client: reconnects on timeout or reset."""

    def __init__(
        self,
        sim: Simulator,
        api: SocketApi,
        remote: Endpoint,
    ) -> None:
        self.sim = sim
        self.api = api
        self.remote = remote
        self.bytes_sent = 0
        self.errors = 0
        self.connects = 0
        self.last_success_at = -1.0
        self.process = sim.process(self._run(), name=f"chaos-tx:{remote}")

    def _run(self):
        while True:
            try:
                fd = yield self.api.socket()
                yield self.api.connect(fd, self.remote)
                self.connects += 1
                while True:
                    yield self.api.send(fd, WRITE_SIZE)
                    self.bytes_sent += WRITE_SIZE
                    self.last_success_at = self.sim.now
            except SocketError:
                self.errors += 1
                yield self.sim.timeout(CHAOS_RETRY_DELAY)


@dataclass
class ChaosFlow:
    port: int
    bytes: int
    bytes_sent: int
    reconnects: int
    connections_served: int
    last_success_at: float
    recovered: bool


@dataclass
class ChaosResult:
    duration: float
    warmup: float
    plan_faults: int
    seed: Optional[int]
    goodput_gbps: float
    #: ``(phase_start, phase_end, gbps)`` — phases split at fault times.
    phase_gbps: List[tuple]
    #: ``(fault_at, latency)`` — first successful op after each fault.
    recovery: List[tuple]
    errors: int
    op_timeouts: int
    resets_seen: int
    failovers: List[dict]
    injected: List[dict]
    recovered_faults: List[dict]
    unrecovered: int
    flows: List[ChaosFlow] = field(default_factory=list)

    def table(self) -> str:
        lines = [
            f"chaos: {self.plan_faults} fault(s), seed={self.seed}, "
            f"{len(self.flows)} flow(s), {self.duration}s "
            f"(warmup {self.warmup}s)",
            f"  aggregate goodput: {self.goodput_gbps:.2f} Gbps",
        ]
        if len(self.phase_gbps) > 1:
            lines.append("  per-phase goodput:")
            for start, end, gbps in self.phase_gbps:
                lines.append(f"    [{start:.3f}, {end:.3f}) {gbps:7.2f} Gbps")
        for at, latency in self.recovery:
            lines.append(f"  fault@{at:.3f}s -> first success +{latency * 1e3:.3f} ms")
        for record in self.failovers:
            lines.append(
                f"  failover: {record['nsm']} -> {record['standby']} "
                f"at {record['detected_at']:.3f}s "
                f"({record['connections_reset']} conn(s) reset)"
            )
        lines.append(
            f"  errors={self.errors} op_timeouts={self.op_timeouts} "
            f"resets={self.resets_seen} unrecovered_flows={self.unrecovered}"
        )
        return "\n".join(lines)


def default_random_plan(
    seed: int,
    duration: float,
    warmup: float = 0.05,
    faults: int = 6,
) -> FaultPlan:
    """A seeded random plan over :func:`run_chaos`'s canonical targets.

    Faults land in ``[warmup, 0.7 * duration]`` so the run has room to
    demonstrate recovery before the clock stops.
    """
    return FaultPlan.random(
        seed,
        duration=0.7 * duration,
        start=warmup,
        nsm_targets=("nsm_a", "nsm_b"),
        ring_targets=("vm_a.job", "vm_b.rq", "nsm_b.rq"),
        region_targets=("vm_a.hp", "vm_b.hp"),
        nic_targets=("nsm_a.nic", "nsm_b.nic"),
        ce_targets=("ce_a", "ce_b"),
        tenant_targets=("vm_a", "vm_b"),
        faults=faults,
        crashes=1,
    )


def run_chaos(
    plan: Optional[FaultPlan] = None,
    flows: int = 2,
    duration: float = 0.35,
    warmup: float = 0.05,
) -> ChaosResult:
    """Figure 4's LAN workload (CUBIC NSMs) under ``plan``; returns chaos
    metrics.

    A plan with faults arms GuestLib op timeouts, the heartbeat watchdog
    and one warm standby per host; an empty plan runs without them, so it
    reproduces the untolerant baseline bit-identically.
    """
    plan = plan if plan is not None else FaultPlan.empty()
    ft = len(plan) > 0
    config = CoreEngineConfig(
        op_timeout=CHAOS_OP_TIMEOUT if ft else None,
        heartbeat_interval=CHAOS_HEARTBEAT_INTERVAL if ft else None,
        heartbeat_miss=CHAOS_HEARTBEAT_MISS,
    )
    testbed = make_lan_testbed(coreengine_config=config)
    sim = testbed.sim
    overrides = {"rcvbuf": FIG4_SOCKET_BUF, "sndbuf": FIG4_SOCKET_BUF}
    spec = lambda: NsmSpec(tcp_overrides=overrides)  # noqa: E731 — fresh spec per NSM

    nsm_a = testbed.hypervisor_a.boot_nsm(spec())
    nsm_b = testbed.hypervisor_b.boot_nsm(spec())
    if ft:
        testbed.hypervisor_a.enable_failover(spec=spec())
        testbed.hypervisor_b.enable_failover(spec=spec())
    vm_a = testbed.hypervisor_a.boot_netkernel_vm("client", nsm_a, vcpus=4)
    vm_b = testbed.hypervisor_b.boot_netkernel_vm("server", nsm_b, vcpus=4)

    injector = FaultInjector(sim, plan)
    ce_a, ce_b = testbed.hypervisor_a.coreengine, testbed.hypervisor_b.coreengine
    injector.register_nsm("nsm_a", nsm_a)
    injector.register_nsm("nsm_b", nsm_b)
    injector.register_coreengine("ce_a", ce_a)
    injector.register_coreengine("ce_b", ce_b)
    for label, ce, vm in (("vm_a", ce_a, vm_a), ("vm_b", ce_b, vm_b)):
        attachment = ce.attachment_of(vm.vm_id)
        injector.register_ring(f"{label}.job", attachment.job_queue)
        injector.register_ring(f"{label}.cq", attachment.completion_queue)
        injector.register_ring(f"{label}.rq", attachment.receive_queue)
        injector.register_region(f"{label}.hp", attachment.region)
        injector.register_tenant(label, attachment, ce)
    for label, ce, nsm in (("nsm_a", ce_a, nsm_a), ("nsm_b", ce_b, nsm_b)):
        queues = ce.nsm_queues(nsm.nsm_id)
        injector.register_ring(f"{label}.job", queues.job)
        injector.register_ring(f"{label}.cq", queues.completion)
        injector.register_ring(f"{label}.rq", queues.receive)
        injector.register_nic(f"{label}.nic", nsm.nic)
    injector.register_link("wire.ab", testbed.wire.a_to_b)
    injector.register_link("wire.ba", testbed.wire.b_to_a)
    injector.start()

    fault_times = [f.at for f in plan]
    tracker = _RecoveryTracker(sim, fault_times)
    phase_edges = sorted({t for t in fault_times if warmup < t < duration})

    receivers: List[ChaosReceiver] = []
    senders: List[ChaosSender] = []
    for i in range(flows):
        port = 5000 + i
        receivers.append(
            ChaosReceiver(
                sim,
                vm_b.api,
                port,
                tracker=tracker,
                warmup=warmup,
                phase_edges=phase_edges,
            )
        )
        # Senders get no tracker: a SEND "succeeds" once the bytes enter
        # the local NSM's buffer, which says nothing about the far side.
        # Recovery is only claimed on end-to-end delivered bytes.
        senders.append(ChaosSender(sim, vm_a.api, Endpoint(vm_b.api.ip, port)))
    sim.run(until=duration)

    last_fault_at = max(fault_times) if fault_times else 0.0
    flow_stats: List[ChaosFlow] = []
    for rx, tx in zip(receivers, senders):
        recovered = rx.last_success_at >= last_fault_at
        flow_stats.append(
            ChaosFlow(
                port=rx.port,
                bytes=rx.bytes,
                bytes_sent=tx.bytes_sent,
                reconnects=max(0, tx.connects - 1),
                connections_served=rx.connections_served,
                last_success_at=max(rx.last_success_at, tx.last_success_at),
                recovered=recovered,
            )
        )
    edges = [warmup, *phase_edges, duration]
    phase_gbps = []
    for p in range(len(edges) - 1):
        span = edges[p + 1] - edges[p]
        total = sum(rx.phase_bytes[p] for rx in receivers)
        phase_gbps.append(
            (edges[p], edges[p + 1], total * 8.0 / span / 1e9 if span > 0 else 0.0)
        )
    guestlibs = [vm_a.api, vm_b.api]
    return ChaosResult(
        duration=duration,
        warmup=warmup,
        plan_faults=len(plan),
        seed=plan.seed,
        goodput_gbps=sum(rx.goodput_bps(duration) for rx in receivers) / 1e9,
        phase_gbps=phase_gbps,
        recovery=list(tracker.samples),
        errors=sum(rx.errors for rx in receivers) + sum(tx.errors for tx in senders),
        op_timeouts=sum(gl.op_timeouts for gl in guestlibs),
        resets_seen=sum(gl.resets_seen for gl in guestlibs),
        failovers=list(ce_a.failovers) + list(ce_b.failovers),
        injected=list(injector.injected),
        recovered_faults=list(injector.recovered),
        unrecovered=sum(1 for f in flow_stats if not f.recovered),
        flows=flow_stats,
    )


def _fuzz_run(
    seed: int, flows: int, duration: float, warmup: float, faults: int
) -> ChaosResult:
    """One fuzz iteration (module-level so worker processes can pickle it)."""
    plan = default_random_plan(seed, duration=duration, warmup=warmup, faults=faults)
    return run_chaos(plan, flows=flows, duration=duration, warmup=warmup)


def run_chaos_fuzz(
    count: int = 8,
    base_seed: int = 7,
    flows: int = 2,
    duration: float = 0.2,
    warmup: float = 0.0,
    faults: int = 5,
    jobs: int = 1,
    progress=None,
):
    """A sweep of seeded random fault plans; returns ``List[RunResult]``.

    Per-run seeds derive from ``base_seed`` via
    :func:`repro.parallel.derive_seed`, so the sweep is reproducible and
    ``jobs=N`` is run-for-run bit-identical to ``jobs=1``.  A run that
    crashes (worker death included) occupies its slot as a typed
    :class:`~repro.parallel.RunFailure` without stopping the sweep.
    """
    from ..parallel import ParallelRunner, RunSpec, derive_seed

    specs = [
        RunSpec(
            key=f"chaos-fuzz:{derive_seed(base_seed, index)}",
            fn=_fuzz_run,
            args=(derive_seed(base_seed, index), flows, duration, warmup, faults),
        )
        for index in range(count)
    ]
    return ParallelRunner(jobs=jobs, progress=progress).run(specs)


def render_fuzz_sweep(outcomes) -> str:
    """Human-readable table of a :func:`run_chaos_fuzz` sweep."""
    lines = [
        f"chaos fuzz sweep: {len(outcomes)} run(s)",
        f"{'run':>24} {'goodput':>9} {'faults':>7} {'errors':>7} "
        f"{'timeouts':>9} {'unrecovered':>12}",
    ]
    failures = 0
    for outcome in outcomes:
        if outcome.error is not None:
            failures += 1
            lines.append(f"{outcome.key:>24} FAILED — {outcome.error}")
            continue
        result = outcome.value
        lines.append(
            f"{outcome.key:>24} {result.goodput_gbps:>5.2f} Gbps "
            f"{result.plan_faults:>7} {result.errors:>7} "
            f"{result.op_timeouts:>9} {result.unrecovered:>12}"
        )
    lines.append(
        f"{sum(1 for o in outcomes if o.error is None)}/{len(outcomes)} runs ok"
        + (f", {failures} FAILED" if failures else "")
    )
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Live migration chaos (``repro migrate``)
# --------------------------------------------------------------------------
#
# The migration harness runs a *finite* transfer (every sender ships an
# exact byte budget, closes, and the receiver drains to EOF) so zero-loss
# is checkable byte-for-byte: a run is golden when the receivers land on
# exactly ``bytes_expected`` with zero guest-visible errors, whether or
# not a migration (or an injected migration fault) happened mid-flight.


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

    def table(self) -> str:
        lines = [
            f"migration chaos [{self.family}]: pilot "
            f"{'COMMIT' if self.pilot.committed else 'ROLLBACK'} "
            f"freeze={_fmt_us(self.pilot.freeze_seconds)} "
            f"moved={self.pilot.connections_moved} conn(s) "
            f"state={self.pilot.bytes_transferred}B "
            f"drain_rounds={self.pilot.drain_rounds}",
        ]
        for kind, phase, result in self.cases:
            verdict = "ok" if (result.zero_loss and result.clean_exit) else "FAIL"
            extra = ""
            if result.fenced_sources:
                extra = f" fenced={result.fenced_sources}"
            lines.append(
                f"  {kind.value:>24} @{phase:<8} -> {result.final_phase:<11} "
                f"bytes {result.bytes_received}/{result.bytes_expected} "
                f"errors={result.guest_errors} "
                f"violations={len(result.invariant_violations)}{extra} {verdict}"
            )
        lines.append(
            f"  {len(self.cases) - len(self.failures)}/{len(self.cases)} "
            "fault cases clean"
            + (f", {len(self.failures)} FAILED" if self.failures else "")
        )
        return "\n".join(lines)


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


def run_migration_smoke() -> List[MigrationChaosResult]:
    """CI smoke: the full boundary sweep for TCP, abbreviated for QUIC."""
    return [
        run_migration_chaos(family="tcp"),
        run_migration_chaos(family="quic", phases=("transfer", "resume")),
    ]


def run_chaos_smoke(seed: int = 7, flows: int = 2) -> ChaosResult:
    """The CI smoke configuration: one NSM crash mid-transfer, then a
    hostile-tenant phase (ring flood + huge-page hoard), short run."""
    from ..faults import Fault

    plan = FaultPlan.scripted(
        [
            Fault(at=0.12, kind=FaultKind.NSM_CRASH, target="nsm_b"),
            Fault(
                at=0.22,
                kind=FaultKind.HOSTILE_TENANT,
                target="vm_a",
                duration=0.04,
                count=8,
            ),
        ]
    )
    plan.seed = seed
    return run_chaos(plan, flows=flows, duration=0.3, warmup=0.05)
