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
from dataclasses import dataclass, field, replace
from typing import List, Optional

from ..api.errors import SocketError
from ..api.socket_api import SocketApi
from ..apps.bulk import READ_SIZE, WRITE_SIZE
from ..faults import FaultInjector, FaultKind, FaultPlan
from ..net import Endpoint
from ..netkernel import CoreEngineConfig, NsmSpec
from ..sim import Simulator
from .common import FIG4_SOCKET_BUF, make_lan_testbed
from .registry import Experiment, UsageError
from .table import Column, Table

__all__ = [
    "ChaosReceiver",
    "ChaosSender",
    "ChaosFlow",
    "ChaosResult",
    "EXPERIMENT",
    "default_random_plan",
    "run_chaos",
    "run_chaos_fuzz",
    "run_chaos_smoke",
    "render_fuzz_sweep",
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

    def text(self) -> str:
        """The report: each fault phase's goodput, between notes."""
        phases = self.phase_gbps if len(self.phase_gbps) > 1 else []
        below = [
            f"  fault@{at:.3f}s -> first success +{latency * 1e3:.3f} ms"
            for at, latency in self.recovery
        ] + [
            f"  failover: {record['nsm']} -> {record['standby']} "
            f"at {record['detected_at']:.3f}s "
            f"({record['connections_reset']} conn(s) reset)"
            for record in self.failovers
        ]
        table = replace(
            CHAOS,
            above=CHAOS.above + ("  per-phase goodput:",) * bool(phases),
            below=(*below, *CHAOS.below),
        )
        return table.fill(
            (dict(start=start, end=end, gbps=gbps) for start, end, gbps in phases),
            **vars(self),
            flow_count=len(self.flows),
        ).text()


#: A chaos run's report; its rows are the goodput of each fault phase.
CHAOS = Table(
    "chaos: {plan_faults} fault(s), seed={seed}, {flow_count} flow(s), "
    "{duration}s (warmup {warmup}s)",
    (
        Column("span", derive=lambda r: f"[{r['start']:.3f}, {r['end']:.3f})"),
        Column("gbps", fmt="7.2f", unit=" Gbps"),
    ),
    above=("  aggregate goodput: {goodput_gbps:.2f} Gbps",),
    below=(
        "  errors={errors} op_timeouts={op_timeouts} "
        "resets={resets_seen} unrecovered_flows={unrecovered}",
    ),
    indent="    ",
)


#: A random plan's faults land in ``[warmup, FAULT_SPAN * duration]``.
FAULT_SPAN = 0.7
#: Seconds of traffic before the first fault may land.
WARMUP = 0.05


def default_random_plan(
    seed: int,
    duration: float,
    warmup: float = WARMUP,
    faults: int = 6,
) -> FaultPlan:
    """A seeded random plan over :func:`run_chaos`'s canonical targets.

    Faults land in ``[warmup, FAULT_SPAN * duration]`` so the run has
    room to demonstrate recovery before the clock stops.
    """
    return FaultPlan.random(
        seed,
        duration=FAULT_SPAN * duration,
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
    warmup: float = WARMUP,
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


def _smoke_failures(result: ChaosResult) -> List[str]:
    failures = []
    if result.unrecovered:
        failures.append(f"{result.unrecovered} unrecovered flow(s)")
    if not result.failovers:
        failures.append("NSM crash produced no failover")
    if not any(rec["kind"] == "hostile-tenant" for rec in result.recovered_faults):
        failures.append("hostile-tenant fault recorded no recovery")
    return failures


def _run(smoke: bool, seed: int, flows: int, faults: int, duration: float) -> ChaosResult:
    if smoke:
        return run_chaos_smoke(seed=seed, flows=flows)
    plan = default_random_plan(seed, duration=duration, faults=faults)
    return run_chaos(plan, flows=flows, duration=duration)


def _text(result: ChaosResult, smoke, seed, faults, duration, **_params) -> str:
    if smoke:
        return result.text()
    plan = default_random_plan(seed, duration=duration, faults=faults)
    return plan.describe() + "\n" + result.text()


def _points(smoke=False, seed=7, flows=2, faults=6, duration=0.35):
    if not smoke and FAULT_SPAN * duration <= WARMUP:
        raise UsageError(
            f"--duration must exceed {WARMUP / FAULT_SPAN:.4g} s: random faults "
            f"land in [{WARMUP} s, {FAULT_SPAN} x duration], got {duration}"
        )
    return [(f"chaos:{seed}", (smoke, seed, flows, faults, duration))]


#: ``repro chaos``: one run under a seeded random plan, or (``smoke``) the
#: scripted NSM crash and hostile tenant, which must be recovered from.
EXPERIMENT = Experiment(
    points=_points,
    measure=_run,
    text=_text,
    check=lambda result, smoke, **_params: (
        ("chaos --smoke", _smoke_failures(result)) if smoke else None
    ),
)
