"""``repro stackswap``: the tenant-defined-stack payoff experiment.

Two claims, one run:

**A. Stack swap is a provisioning knob.**  The *same* guest application
(socket / connect / send / close against the GuestLib API) runs first
against a TCP-family NSM, then a QUIC-family NSM — the only change is
``NsmSpec(stack_family=...)``.  Short flows measure connection *setup
latency* (socket() + connect()); the QUIC NSM's tenant-keyed 0-RTT
resumption beats the TCP three-way handshake at the tail, so a legacy
guest app silently gains 0-RTT by the provider swapping the stack
underneath it.

**B. Isolation makes the knob safe.**  A shared NSM hosts a victim and a
hostile co-tenant; the hostile one hoards huge pages and floods its job
ring (:data:`~repro.faults.FaultKind.HOSTILE_TENANT`).  With CoreEngine
per-tenant quotas on (``CoreEngineConfig.tenant_quota_nqes``) the
victim's goodput is intact; with quotas off the flood starves it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..apps import BulkReceiver, BulkSender
from ..faults import Fault, FaultInjector, FaultKind, FaultPlan
from ..net import Endpoint
from ..netkernel import CoreEngineConfig, NsmSpec
from ..sim import Simulator
from .common import make_lan_testbed

__all__ = ["SetupLatency", "IsolationRun", "StackSwapResult", "run_stackswap"]

#: Quota tuning for part B: 1 nqe per 5 µs cycle = 200k job nqes/s per
#: tenant — far above any honest tenant's op rate (a line-rate bulk flow
#: issues ~72k SENDs/s) and far below a flood's.
ISOLATION_QUOTA_NQES = 1
#: The flood: up to 64 valid-fd ops pushed every ~10 µs.
HOSTILE_FLOOD_COUNT = 64


@dataclass
class SetupLatency:
    """Per-family connection setup latencies (seconds)."""

    family: str
    samples: List[float] = field(default_factory=list, init=False)
    #: QUIC only: how many measured connects resumed 0-RTT.
    resumptions_0rtt: int = 0
    handshakes: int = 0

    def _pct(self, q: float) -> float:
        if not self.samples:
            return float("nan")
        ordered = sorted(self.samples)
        return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))]

    @property
    def p50(self) -> float:
        return self._pct(0.50)

    @property
    def p99(self) -> float:
        return self._pct(0.99)


@dataclass
class IsolationRun:
    quotas: bool
    hostile: bool
    victim_gbps: float


@dataclass
class StackSwapResult:
    setup: Dict[str, SetupLatency]
    isolation: List[IsolationRun]

    def _iso(self, quotas: bool, hostile: bool) -> IsolationRun:
        for run in self.isolation:
            if run.quotas == quotas and run.hostile == hostile:
                return run
        raise KeyError((quotas, hostile))

    def degradation(self, quotas: bool) -> float:
        """Victim goodput lost to the hostile tenant (fraction)."""
        clean = self._iso(quotas, False).victim_gbps
        if clean == 0:
            return float("nan")
        return (clean - self._iso(quotas, True).victim_gbps) / clean

    def failures(self) -> List[str]:
        """Acceptance checks; empty means the experiment's claims hold."""
        out = []
        tcp, quic = self.setup["tcp"], self.setup["quic"]
        if not quic.p99 < tcp.p99:
            out.append(
                f"QUIC p99 setup {quic.p99 * 1e6:.1f}us not below "
                f"TCP p99 {tcp.p99 * 1e6:.1f}us"
            )
        if quic.resumptions_0rtt < len(quic.samples):
            out.append(
                f"only {quic.resumptions_0rtt}/{len(quic.samples)} measured "
                "QUIC connects resumed 0-RTT"
            )
        deg_on = self.degradation(True)
        if not deg_on < 0.10:
            out.append(
                f"victim degraded {deg_on * 100:.1f}% with quotas ON (>= 10%)"
            )
        deg_off = self.degradation(False)
        if not deg_off > 0.10:
            out.append(
                f"quotas-off hostile run degraded the victim only "
                f"{deg_off * 100:.1f}% — the flood is not hostile enough "
                "to demonstrate enforcement"
            )
        return out

    def table(self) -> str:
        tcp, quic = self.setup["tcp"], self.setup["quic"]
        lines = [
            "stackswap A: same guest app, stack family swapped underneath",
            f"{'family':>8} {'flows':>6} {'p50 setup':>12} {'p99 setup':>12} "
            f"{'0-RTT':>6}",
        ]
        for stats in (tcp, quic):
            lines.append(
                f"{stats.family:>8} {len(stats.samples):>6} "
                f"{stats.p50 * 1e6:>10.1f}us {stats.p99 * 1e6:>10.1f}us "
                f"{stats.resumptions_0rtt:>6}"
            )
        lines.append(
            f"  -> QUIC 0-RTT p99 is {tcp.p99 / quic.p99:.1f}x faster than "
            "the TCP handshake"
        )
        lines.append("stackswap B: hostile co-tenant on a shared NSM")
        lines.append(
            f"{'quotas':>8} {'hostile':>8} {'victim goodput':>15}"
        )
        for run in self.isolation:
            lines.append(
                f"{'on' if run.quotas else 'off':>8} "
                f"{'yes' if run.hostile else 'no':>8} "
                f"{run.victim_gbps:>10.2f} Gbps"
            )
        lines.append(
            f"  -> degradation: {self.degradation(False) * 100:.1f}% without "
            f"quotas, {self.degradation(True) * 100:.1f}% with quotas"
        )
        return "\n".join(lines)


# ------------------------------------------------------------------- part A --
def _short_flow_client(
    sim: Simulator, api, remote: Endpoint, samples: List[float],
    flows: int, stack, flow_bytes: int, settle: float,
):
    """The guest app: repeated short flows, timing socket()+connect().

    Flow 0 is an untimed warmup (the QUIC family pays its one 1-RTT
    handshake there).  Between flows the client idles long enough for
    FINs to be acked, then asks a QUIC stack to drop its idle
    connections — so every *measured* connect is a genuine fresh 0-RTT
    resumption, not same-connection stream reuse.
    """
    for index in range(flows + 1):
        started = sim.now
        fd = yield api.socket()
        yield api.connect(fd, remote)
        if index > 0:
            samples.append(sim.now - started)
        yield api.send(fd, flow_bytes)
        yield api.close(fd)
        yield sim.timeout(settle)
        if hasattr(stack, "close_idle_connections"):
            stack.close_idle_connections()


def _accept_loop(sim: Simulator, api, port: int):
    fd = yield api.socket()
    yield api.bind(fd, port)
    yield api.listen(fd)
    while True:
        conn_fd = yield api.accept(fd)
        sim.process(_drain(api, conn_fd), name=f"stackswap-drain:{conn_fd}")


def _drain(api, conn_fd: int):
    while True:
        n = yield api.recv(conn_fd, 1 << 20)
        if n == 0:
            break
    yield api.close(conn_fd)


def _measure_setup(family: str, flows: int) -> SetupLatency:
    testbed = make_lan_testbed()
    spec = lambda: NsmSpec(stack_family=family)  # noqa: E731 — fresh per NSM
    nsm_a = testbed.hypervisor_a.boot_nsm(spec())
    nsm_b = testbed.hypervisor_b.boot_nsm(spec())
    vm_a = testbed.hypervisor_a.boot_netkernel_vm("client", nsm_a, vcpus=2)
    vm_b = testbed.hypervisor_b.boot_netkernel_vm("server", nsm_b, vcpus=2)

    stats = SetupLatency(family=family)
    sim = testbed.sim
    sim.process(_accept_loop(sim, vm_b.api, 5000), name="stackswap-server")
    sim.process(
        _short_flow_client(
            sim, vm_a.api, Endpoint(vm_b.api.ip, 5000), stats.samples,
            flows, nsm_a.stack, 8192, settle=500e-6,
        ),
        name="stackswap-client",
    )
    testbed.run(until=0.2)
    stack_stats = getattr(nsm_a.stack, "stats", None)
    if stack_stats is not None:
        stats.resumptions_0rtt = getattr(stack_stats, "resumptions_0rtt", 0)
        stats.handshakes = getattr(stack_stats, "handshakes", 0)
    return stats


# ------------------------------------------------------------------- part B --
def _hostile_app(sim: Simulator, api, remote: Endpoint):
    """The hostile tenant's front: one real socket, held open.

    The injector's flood re-discovers this fd from the connection table,
    so its ops are *valid* — they cross CoreEngine and burn ServiceLib
    CPU on the shared NSM, which is what threatens the victim.
    """
    yield sim.timeout(0.002)
    fd = yield api.socket()
    yield api.connect(fd, remote)
    yield sim.timeout(1e9)  # hold the fd; the fault storm does the rest


def _measure_isolation(quotas: bool, hostile: bool, duration: float) -> float:
    config = CoreEngineConfig(
        tenant_quota_nqes=ISOLATION_QUOTA_NQES if quotas else None
    )
    testbed = make_lan_testbed(coreengine_config=config)
    nsm_shared = testbed.hypervisor_a.boot_nsm(NsmSpec(max_tenants=2))
    nsm_b = testbed.hypervisor_b.boot_nsm(NsmSpec())
    victim = testbed.hypervisor_a.boot_netkernel_vm("victim", nsm_shared, vcpus=2)
    attacker = testbed.hypervisor_a.boot_netkernel_vm(
        "attacker", nsm_shared, vcpus=2
    )
    server = testbed.hypervisor_b.boot_netkernel_vm("server", nsm_b, vcpus=2)

    sim = testbed.sim
    warmup = duration * 0.15
    rx = BulkReceiver(sim, server.api, 5000, warmup=warmup)
    BulkSender(sim, victim.api, Endpoint(server.api.ip, 5000), start_delay=0.002)
    BulkReceiver(sim, server.api, 5001, warmup=warmup)
    sim.process(
        _hostile_app(sim, attacker.api, Endpoint(server.api.ip, 5001)),
        name="stackswap-hostile",
    )
    if hostile:
        plan = FaultPlan.scripted(
            [
                Fault(
                    at=duration * 0.2,
                    kind=FaultKind.HOSTILE_TENANT,
                    target="attacker",
                    duration=duration * 0.7,
                    count=HOSTILE_FLOOD_COUNT,
                )
            ]
        )
        injector = FaultInjector(sim, plan)
        coreengine = testbed.hypervisor_a.coreengine
        injector.register_tenant(
            "attacker", coreengine.attachment_of(attacker.vm_id), coreengine
        )
        injector.start()
    testbed.run(until=duration)
    return rx.meter.bps(until=duration) / 1e9


def run_stackswap(
    flows: int = 20,
    duration: float = 0.15,
    quick: bool = False,
) -> StackSwapResult:
    """Run both halves; see :class:`StackSwapResult.failures` for checks."""
    if quick:
        flows, duration = min(flows, 8), min(duration, 0.1)
    setup = {
        family: _measure_setup(family, flows) for family in ("tcp", "quic")
    }
    isolation = [
        IsolationRun(q, h, _measure_isolation(q, h, duration))
        for q in (True, False)
        for h in (False, True)
    ]
    return StackSwapResult(setup=setup, isolation=isolation)
