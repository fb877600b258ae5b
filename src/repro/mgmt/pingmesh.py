"""Pingmesh-style latency measurement and failure detection as NSMs (§5).

"Since the network stack is maintained by the provider, management
protocols such as failure detection [Pingmesh] and monitoring [Trumpet]
can be deployed readily as NSMs."

Each participating host gets a small management NSM (hypervisor-module
form — it is provider code, no tenant isolation needed) running directly
on the NSM's stack: an echo responder plus a prober that cycles through
every peer, opening a short connection and timing the echo.  Results feed
a mesh-wide latency map; probes that fail or time out raise failure
alarms with the affected (source, destination) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..net import Endpoint
from ..netkernel import NSM, NsmForm, NsmSpec
from ..netkernel.provision import Hypervisor
from ..sim import AnyOf, Simulator
from ..stats import LatencyRecorder
from ..tcp import ConnectionReset

__all__ = ["PingmeshMesh", "ProbeFailure", "PINGMESH_PORT"]

PINGMESH_PORT = 9  # echo, traditionally
PROBE_BYTES = 64
#: A probe unanswered this long (seconds) counts as a failure.
PROBE_TIMEOUT = 1.0


@dataclass
class ProbeFailure:
    at: float
    src: str
    dst: str
    reason: str


@dataclass
class _Agent:
    name: str
    hypervisor: Hypervisor
    nsm: NSM


class PingmeshMesh:
    """A full-mesh latency prober across hosts, deployed as NSMs."""

    def __init__(
        self,
        sim: Simulator,
        probe_interval: float = 0.05,
    ) -> None:
        if probe_interval <= 0:
            raise ValueError("probe interval must be positive")
        self.sim = sim
        self.probe_interval = probe_interval
        self._agents: Dict[str, _Agent] = {}
        self.latency: Dict[Tuple[str, str], LatencyRecorder] = {}
        self.failures: List[ProbeFailure] = []
        self.probes_sent = 0

    # ------------------------------------------------------------- topology --
    def add_agent(self, name: str, hypervisor: Hypervisor) -> NSM:
        """Deploy the management NSM on ``hypervisor`` and start its agent."""
        if name in self._agents:
            raise ValueError(f"duplicate agent {name!r}")
        nsm = hypervisor.boot_nsm(
            NsmSpec(
                congestion_control="cubic",
                form=NsmForm.HYPERVISOR_MODULE,
                max_tenants=1,
            ),
            name=f"pingmesh-{name}",
        )
        agent = _Agent(name=name, hypervisor=hypervisor, nsm=nsm)
        self._agents[name] = agent
        self.sim.process(self._responder(agent), name=f"pingmesh-echo-{name}")
        self.sim.process(self._prober(agent), name=f"pingmesh-probe-{name}")
        return nsm

    # --------------------------------------------------------------- agents --
    def _responder(self, agent: _Agent):
        listener = agent.nsm.stack.listen(PINGMESH_PORT)
        while True:
            conn = yield listener.accept()
            self.sim.process(self._echo_one(conn), name="pingmesh-echo-conn")

    def _echo_one(self, conn):
        got = 0
        while got < PROBE_BYTES:
            n = yield conn.recv(PROBE_BYTES)
            if n == 0:
                return
            got += n
        yield conn.send(PROBE_BYTES)
        yield conn.close()

    def _prober(self, agent: _Agent):
        # Small stagger so the full mesh does not probe in lockstep.
        yield self.sim.timeout(self.probe_interval * (len(self._agents) % 7) / 7)
        while True:
            yield self.sim.timeout(self.probe_interval)
            for peer_name, peer in list(self._agents.items()):
                if peer_name == agent.name:
                    continue
                yield from self._probe_once(agent, peer_name, peer)

    def _probe_once(self, agent: _Agent, peer_name: str, peer: _Agent):
        self.probes_sent += 1
        started = self.sim.now
        deadline = self.sim.timeout(PROBE_TIMEOUT)
        try:
            conn = agent.nsm.stack.connect(Endpoint(peer.nsm.ip, PINGMESH_PORT))
            # Held here: the connection lets go of it once it has fired.
            established = conn.established
            outcome = yield AnyOf(self.sim, [established, deadline])
            if established not in outcome:
                conn.abort()
                self._fail(agent.name, peer_name, "connect timeout")
                return
            yield conn.send(PROBE_BYTES)
            got = 0
            while got < PROBE_BYTES:
                read = conn.recv(PROBE_BYTES)
                outcome = yield AnyOf(self.sim, [read, deadline])
                if read not in outcome:
                    conn.abort()
                    self._fail(agent.name, peer_name, "echo timeout")
                    return
                n = read.value
                if n == 0:
                    self._fail(agent.name, peer_name, "connection closed")
                    return
                got += n
            self._record(agent.name, peer_name, self.sim.now - started)
            yield conn.close()
        except ConnectionReset:
            self._fail(agent.name, peer_name, "connection reset")

    # -------------------------------------------------------------- results --
    def _record(self, src: str, dst: str, rtt: float) -> None:
        recorder = self.latency.setdefault((src, dst), LatencyRecorder())
        recorder.record(rtt)

    def _fail(self, src: str, dst: str, reason: str) -> None:
        self.failures.append(
            ProbeFailure(at=self.sim.now, src=src, dst=dst, reason=reason)
        )

    def suspected_failures(self, window: float = 1.0) -> List[Tuple[str, str]]:
        """Pairs with a failure within the trailing ``window`` seconds."""
        cutoff = self.sim.now - window
        return sorted(
            {(f.src, f.dst) for f in self.failures if f.at >= cutoff}
        )

    def localize(self, window: float = 1.0) -> List[str]:
        """Hosts implicated in most of their failing pairs (the Pingmesh
        triage step: a host appearing on either side of at least half of
        its mesh pairs is the likely fault)."""
        pairs = self.suspected_failures(window)
        if not pairs:
            return []
        counts: Dict[str, int] = {}
        for src, dst in pairs:
            counts[src] = counts.get(src, 0) + 1
            counts[dst] = counts.get(dst, 0) + 1
        threshold = max(2, len(self._agents) - 1)
        return sorted(name for name, n in counts.items() if n >= threshold)

    def report(self) -> str:
        lines = [
            f"pingmesh: {len(self._agents)} agents, {self.probes_sent} probes, "
            f"{len(self.failures)} failures",
            f"{'pair':>24} {'probes':>7} {'p50':>9}",
        ]
        for (src, dst), recorder in sorted(self.latency.items()):
            lines.append(
                f"{src + '->' + dst:>24} {len(recorder):>7} "
                f"{recorder.p(50) * 1e6:>7.0f}us"
            )
        return "\n".join(lines)
