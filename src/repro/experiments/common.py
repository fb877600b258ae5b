"""Shared experiment scaffolding: testbeds mirroring the paper's setup.

Two environments appear in §4:

* **LAN testbed** — two servers (Xeon 8-core @ 2.3 GHz, 192 GB) with
  40 GbE X710 NICs and SR-IOV, back-to-back (Figure 4, §4.2).
* **WAN path** — a server behind a 12 Mbps uplink in Beijing talking to a
  client in California, 350 ms average RTT (Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..host import PhysicalHost
from ..net import (
    AddressAllocator,
    DuplexLink,
    EpisodicLoss,
    LossModel,
    NoLoss,
    OffloadConfig,
    wire_bytes,
)
from ..netkernel import CoreEngineConfig, Hypervisor
from ..obs import runtime as obs_runtime
from ..obs.spans import Tracer
from ..sim import Simulator

if TYPE_CHECKING:
    from ..net.fabric import CoreSwitch


def _trace_sim(tracer: Optional[Tracer]) -> Simulator:
    """Create the testbed simulator, wiring an optional tracer first.

    The tracer must be installed *before* any component is constructed
    (components capture the process-wide tracer at build time), and needs
    the simulator for timestamps — so testbed factories route their
    ``Simulator()`` call through here.
    """
    if tracer is not None:
        obs_runtime.set_tracer(tracer)
    sim = Simulator()
    if tracer is not None:
        tracer.attach(sim)
    return sim


__all__ = [
    "LanTestbed",
    "WanTestbed",
    "ClusterTestbed",
    "make_cluster_testbed",
    "make_lan_testbed",
    "make_wan_testbed",
    "install_fluid",
    "LAN_RATE_BPS",
    "LAN_LINE_RATE_GBPS",
    "WAN_UPLINK_BPS",
    "WAN_RTT",
    "FIG4_SOCKET_BUF",
    "default_wan_loss",
]

#: 40 GbE, as in the prototype.
LAN_RATE_BPS = 40e9
#: Achievable TCP goodput on 40 GbE after framing overhead ("line rate
#: (~37 Gbps)" in §4.2).
LAN_LINE_RATE_GBPS = 37.6
#: Figure 5's server uplink and round-trip time.
WAN_UPLINK_BPS = 12e6
WAN_RTT = 0.350
#: Socket buffers for the Figure 4 runs (single flow below line rate,
#: two or more flows reach it — see EXPERIMENTS.md).
FIG4_SOCKET_BUF = 160 * 1024


def default_wan_loss(seed: int = 1) -> LossModel:
    """The calibrated Beijing->California loss process.

    Congestion episodes from cross traffic (Poisson, ~8 s apart) over a
    light random background loss — see DESIGN.md and EXPERIMENTS.md for
    the calibration rationale and its limits.
    """
    return EpisodicLoss(mean_interval=8.0, burst_len=1, background_p=3e-4, seed=seed)


def install_fluid(testbed, mode: str = "auto"):
    """Install a hybrid-fidelity controller on a two-host testbed.

    Must run after the testbed factory and *before* NSMs/VMs boot (TCP
    stacks register with the controller at construction).  Returns the
    :class:`~repro.sim.fluid.FidelityController`, or None when the
    testbed cannot host fluid flows — then the run is pure packet
    fidelity, bit-identical to ``--fidelity packet``:

    * ``mode`` is "packet"/None — fluid not requested;
    * either wire direction has a loss model — loss episodes are exactly
      the dynamics packet fidelity exists to model (so figure 5's WAN,
      with its calibrated EpisodicLoss uplink, always runs packets).
    """
    if mode in (None, "packet"):
        return None
    if mode != "auto":
        raise ValueError(f"fidelity must be 'packet' or 'auto': {mode!r}")
    fwd, rev = testbed.wire.a_to_b, testbed.wire.b_to_a
    if not isinstance(fwd.loss, NoLoss) or not isinstance(rev.loss, NoLoss):
        return None
    # Only fluid runs load the fluid engine.
    from ..sim.fluid import FidelityController

    controller = FidelityController(testbed.sim)
    # Route capacity is TCP goodput: line rate less framing overhead at
    # the default wire MSS (the 37.6-of-40 Gbps factor in §4.2).
    mss = 1448
    goodput = mss / wire_bytes(mss)
    controller.add_route(
        "10.1", "10.2", fwd.rate_bps / 8.0 * goodput, fwd.propagation_delay
    )
    controller.add_route(
        "10.2", "10.1", rev.rate_bps / 8.0 * goodput, rev.propagation_delay
    )
    return controller


class _RunnableTestbed:
    """The run/metrics surface every testbed shares."""

    sim: Simulator

    def run(self, until: Optional[float] = None) -> None:
        """Run the testbed's simulator to ``until``."""
        self.sim.run(until=until)

    @property
    def events_processed(self) -> int:
        return self.sim.events_processed


@dataclass
class LanTestbed(_RunnableTestbed):
    sim: Simulator
    host_a: PhysicalHost
    host_b: PhysicalHost
    hypervisor_a: Hypervisor
    hypervisor_b: Hypervisor
    wire: DuplexLink

    # ``benchmarks/ledger/workloads.py`` hands each app its host's
    # simulator by these names; a run has one simulator, so both are it.
    @property
    def sim_a(self) -> Simulator:
        return self.sim

    @property
    def sim_b(self) -> Simulator:
        return self.sim


def make_lan_testbed(
    rate_bps: float = LAN_RATE_BPS,
    propagation_delay: float = 5e-6,
    queue_bytes: int = 2 * 1024 * 1024,
    sriov: bool = True,
    coreengine_config: Optional[CoreEngineConfig] = None,
    tracer: Optional[Tracer] = None,
    offload: Optional[OffloadConfig] = None,
) -> LanTestbed:
    """Two back-to-back hosts, as in the prototype testbed (§4.1)."""
    sim = _trace_sim(tracer)
    host_a = PhysicalHost(
        sim, "hostA", "10.1.255.1", sriov=sriov,
        addresses=AddressAllocator("10.1"), offload=offload,
    )
    host_b = PhysicalHost(
        sim, "hostB", "10.2.255.1", sriov=sriov,
        addresses=AddressAllocator("10.2"), offload=offload,
    )
    wire = DuplexLink(
        sim,
        rate_bps=rate_bps,
        propagation_delay=propagation_delay,
        queue_bytes=queue_bytes,
        name="40g-wire",
    )
    host_a.pnic.wire = wire.a_to_b.send
    host_b.pnic.wire = wire.b_to_a.send
    wire.attach(host_a.pnic.wire_receive, host_b.pnic.wire_receive)
    return LanTestbed(
        sim=sim,
        host_a=host_a,
        host_b=host_b,
        hypervisor_a=Hypervisor(sim, host_a, coreengine_config),
        hypervisor_b=Hypervisor(sim, host_b, coreengine_config),
        wire=wire,
    )


@dataclass
class WanTestbed(_RunnableTestbed):
    sim: Simulator
    server_host: PhysicalHost
    client_host: PhysicalHost
    server_hypervisor: Hypervisor
    client_hypervisor: Hypervisor
    wire: DuplexLink

    # Aliases of ``sim`` for the ledger, as on :class:`LanTestbed`.
    @property
    def server_sim(self) -> Simulator:
        return self.sim

    @property
    def client_sim(self) -> Simulator:
        return self.sim


def make_wan_testbed(
    uplink_bps: float = WAN_UPLINK_BPS,
    downlink_bps: float = 100e6,
    rtt: float = WAN_RTT,
    queue_bytes: int = 96 * 1024,  # a shallow uplink-modem queue
    loss: Optional[LossModel] = None,
    seed: int = 1,
    coreengine_config: Optional[CoreEngineConfig] = None,
    tracer: Optional[Tracer] = None,
) -> WanTestbed:
    """Figure 5's path: datacenter server -> transpacific WAN -> client.

    Loss applies on the server's uplink direction (where the data flows);
    the reverse (ACK) direction is clean — asymmetric, like the real path.
    """
    # No TSO super-segments on the WAN path: at 12 Mbps, Linux's TSO
    # autosizing degenerates to MTU-sized frames anyway.
    wan_offload = OffloadConfig(tso=False)
    sim = _trace_sim(tracer)
    server = PhysicalHost(
        sim,
        "beijing",
        "10.1.255.1",
        addresses=AddressAllocator("10.1"),
        offload=wan_offload,
    )
    client = PhysicalHost(
        sim,
        "california",
        "10.2.255.1",
        addresses=AddressAllocator("10.2"),
        offload=wan_offload,
    )
    wire = DuplexLink(
        sim,
        rate_bps=uplink_bps,
        rate_bps_reverse=downlink_bps,
        propagation_delay=rtt / 2.0,
        queue_bytes=queue_bytes,
        loss=loss if loss is not None else default_wan_loss(seed),
        name="wan",
    )
    server.pnic.wire = wire.a_to_b.send
    client.pnic.wire = wire.b_to_a.send
    wire.attach(server.pnic.wire_receive, client.pnic.wire_receive)
    return WanTestbed(
        sim=sim,
        server_host=server,
        client_host=client,
        server_hypervisor=Hypervisor(sim, server, coreengine_config),
        client_hypervisor=Hypervisor(sim, client, coreengine_config),
        wire=wire,
    )


@dataclass
class ClusterTestbed(_RunnableTestbed):
    """N hosts joined by a core switch (multi-host scenarios)."""

    sim: Simulator
    hosts: list
    hypervisors: list
    core: CoreSwitch


def make_cluster_testbed(
    n_hosts: int = 4,
    rate_bps: float = LAN_RATE_BPS,
    propagation_delay: float = 5e-6,
    queue_bytes: int = 2 * 1024 * 1024,
    ecn_threshold_bytes: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> ClusterTestbed:
    """A small cluster: every host uplinks into one core switch."""
    from ..net.fabric import CoreSwitch

    if n_hosts < 2:
        raise ValueError("a cluster needs at least 2 hosts")
    sim = _trace_sim(tracer)
    core = CoreSwitch(sim, ecn_threshold_bytes=ecn_threshold_bytes)
    hosts, hypervisors = [], []
    for index in range(n_hosts):
        host = PhysicalHost(
            sim,
            f"host{index}",
            f"10.{index + 1}.255.1",
            addresses=AddressAllocator(f"10.{index + 1}"),
        )
        core.attach_host(
            host,
            rate_bps=rate_bps,
            propagation_delay=propagation_delay,
            queue_bytes=queue_bytes,
        )
        hosts.append(host)
        hypervisors.append(Hypervisor(sim, host))
    return ClusterTestbed(sim=sim, hosts=hosts, hypervisors=hypervisors, core=core)
