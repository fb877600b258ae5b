"""Hybrid fidelity engine: promotion/demotion boundaries and tolerances.

Three properties pin the engine down:

* ``--fidelity packet`` is bit-identical to a build with no controller
  installed (every hook is a single attribute test against None);
* ``--fidelity auto`` reproduces the packet-mode figures within a small
  stated tolerance on clean paths, and *exactly* on lossy paths (where
  the controller declines to install);
* any fault-plan window forces every fluid flow back to packets, and
  the slow-start -> fluid -> demote round trip preserves congestion
  state and conserves bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.apps import BulkReceiver, BulkSender
from repro.experiments.common import install_fluid, make_lan_testbed
from repro.faults import Fault, FaultInjector, FaultKind, FaultPlan
from repro.net import Endpoint
from repro.sim.fluid import FluidFlow


def _bulk_world(mode="auto", total_bytes=None, duration=0.05):
    """LAN testbed + one legacy-VM bulk flow, fluid controller installed."""
    testbed = make_lan_testbed()
    controller = install_fluid(testbed, mode=mode)
    vm_a = testbed.hypervisor_a.boot_legacy_vm("client", vcpus=2)
    vm_b = testbed.hypervisor_b.boot_legacy_vm("server", vcpus=2)
    receiver = BulkReceiver(testbed.sim_b, vm_b.api, port=5000)
    sender = BulkSender(
        testbed.sim_a, vm_a.api, Endpoint(vm_b.api.ip, 5000),
        total_bytes=total_bytes,
    )
    return testbed, controller, vm_a, vm_b, receiver, sender


def _is_fluid(conn):
    """True while ``conn``'s send side is a fluid flow."""
    return isinstance(conn._fluid, FluidFlow)


def _client_conn(vm):
    conns = list(vm.api.stack._connections.values())
    assert len(conns) == 1
    return conns[0]


# -- promotion -----------------------------------------------------------------


def test_bulk_flow_promotes_after_slow_start():
    testbed, controller, vm_a, _vm_b, _rx, _tx = _bulk_world()
    testbed.run(until=0.05)
    stats = controller.stats()
    assert stats["promotions"] >= 1
    assert stats["fluid_bytes_delivered"] > 0
    conn = _client_conn(vm_a)
    assert _is_fluid(conn)  # still fluid at steady state
    # Fluid mode keeps the pipe drained: every sent byte is acked.
    assert conn.snd_una == conn.snd_nxt


def test_promotion_waits_out_slow_start():
    """During slow start (cwnd < ssthresh, cwnd-limited) stays packet."""
    testbed, controller, vm_a, _vm_b, _rx, _tx = _bulk_world()
    # One RTT in: the handshake is done but cwnd is still a few segments.
    testbed.run(until=2.5e-5)
    conn = _client_conn(vm_a)
    if conn._fluid is None:
        assert controller.stats()["promotions"] == 0


def test_packet_mode_installs_nothing():
    testbed = make_lan_testbed()
    assert install_fluid(testbed, mode="packet") is None
    assert install_fluid(testbed, mode=None) is None
    assert testbed.sim.fidelity is None


def test_unknown_fidelity_is_rejected():
    """``fluid`` was a third value no decision ever read; it is gone."""
    testbed = make_lan_testbed()
    with pytest.raises(ValueError, match="fidelity"):
        install_fluid(testbed, mode="fluid")
    assert testbed.sim.fidelity is None


# -- demotion ------------------------------------------------------------------


def test_demote_preserves_cc_state_and_conserves_bytes():
    """fluid -> packet round trip: cwnd/ssthresh untouched, no byte lost."""
    total = 64 * 1024 * 1024
    testbed, controller, vm_a, vm_b, receiver, sender = _bulk_world(
        total_bytes=total
    )
    testbed.run(until=0.005)
    conn = _client_conn(vm_a)
    assert _is_fluid(conn), "flow should be fluid by 5 ms"
    cwnd, ssthresh = conn.cc.cwnd, conn.cc.ssthresh
    delivered_fluid = controller.fluid_bytes_delivered
    assert delivered_fluid > 0

    controller.demote(conn, "test")
    assert not _is_fluid(conn)
    assert conn.cc.cwnd == cwnd and conn.cc.ssthresh == ssthresh
    assert controller.stats()["demotion_reasons"] == {"test": 1}

    # The packet path finishes the transfer; the receiver reads every byte
    # exactly once (fluid bytes + packet bytes, no overlap, no gap).
    testbed.run(until=0.2)
    assert sender.bytes_sent == total
    assert receiver.meter.bytes == total
    # And the connection re-promoted once the packet pipe drained again.
    assert controller.stats()["promotions"] >= 2


def test_chaos_forces_demotion():
    """A firing fault plan demotes every fluid flow for its window."""
    testbed, controller, vm_a, _vm_b, _rx, _tx = _bulk_world()
    plan = FaultPlan.scripted(
        [Fault(at=0.02, kind=FaultKind.LINK_LOSS, target="wire",
               duration=0.01, loss_p=0.3)]
    )
    injector = FaultInjector(testbed.sim, plan)
    injector.register_link("wire", testbed.wire.a_to_b)
    injector.start()
    testbed.run(until=0.018)
    conn = _client_conn(vm_a)
    assert _is_fluid(conn)
    testbed.run(until=0.025)
    # Inside the fault window: demoted and not re-promotable.
    assert not _is_fluid(conn)
    assert controller.in_fault_window
    assert controller.stats()["demotion_reasons"].get("fault:link-loss", 0) >= 1
    testbed.run(until=0.1)
    # Window over, losses repaired: the flow went fluid again.
    assert not controller.in_fault_window
    assert _is_fluid(conn)


def _figure4_fluid_world():
    """Figure 4's native 2-flow auto world at 0.02 s (both flows fluid)."""
    from repro.experiments.figure4 import _build_lan_world

    testbed, _receivers = _build_lan_world(
        "native", flows=2, warmup=0.0, fidelity="auto"
    )
    testbed.run(until=0.02)
    return testbed.sim.fidelity


def test_a_fault_demotes_each_fluid_connection_once(monkeypatch):
    """Four fluid connections, each listed once (the route-active flows
    first, then the rest by stack), and a fault demotes each of them once,
    in that order."""
    from repro.tcp.stack import TimeWait

    controller = _figure4_fluid_world()
    fluid = [
        conn
        for stack in controller._stacks.values()
        for conn in stack._connections.values()
        if conn.__class__ is not TimeWait and conn._fluid is not None
    ]
    active = [
        flow.conn for route in controller.routes.values() for flow in route.active
    ]
    listed = controller._fluid_conns()
    assert len(fluid) == len(listed) == 4 and active
    assert listed[: len(active)] == active
    assert listed[len(active):] == [conn for conn in fluid if conn not in active]

    demoted = []
    demote = controller.demote
    monkeypatch.setattr(
        controller, "demote",
        lambda conn, reason: demoted.append(conn) or demote(conn, reason),
    )
    controller.on_fault_fired("test", 0.01)
    assert demoted == listed
    assert all(conn._fluid is None for conn in fluid)


def test_a_receivers_nic_failure_demotes_both_ends_of_each_flow():
    """The receiving NIC fails under active flows: each sender is demoted
    for its peer's NIC and each receiver for its own, once each (a second
    visit to a demoted sender used to read the peer of a None flow)."""
    controller = _figure4_fluid_world()
    flow = next(flow for route in controller.routes.values() for flow in route.active)
    controller.on_nic_failed(flow.peer.stack.nic)
    assert controller.demotion_reasons == {"nic_failure": 4}
    assert flow.demoted and flow.conn._fluid is None


# -- golden tolerances ---------------------------------------------------------


FIG4_TOLERANCE = 0.01  # 1 % goodput; measured deltas are ~0.1 %


@pytest.mark.parametrize("mode", ["native", "netkernel"])
def test_figure4_auto_within_tolerance(mode):
    from repro.experiments.figure4 import measure_lan_throughput

    gbps = {}
    events = {}
    for fidelity in ("packet", "auto"):
        stats = {}
        gbps[fidelity] = measure_lan_throughput(
            mode, flows=2, duration=0.1, warmup=0.025,
            stats_out=stats, fidelity=fidelity,
        )
        events[fidelity] = stats["events_processed"]
    assert gbps["auto"] == pytest.approx(gbps["packet"], rel=FIG4_TOLERANCE)
    assert events["auto"] < events["packet"]  # the model elides segments


def test_figure4_packet_fidelity_bit_identical():
    """--fidelity packet must not perturb the simulation at all."""
    from repro.experiments.figure4 import measure_lan_throughput

    results = []
    for fidelity in (None, "packet"):
        stats = {}
        kwargs = {} if fidelity is None else {"fidelity": fidelity}
        gbps = measure_lan_throughput(
            "native", flows=1, duration=0.05, warmup=0.01,
            stats_out=stats, **kwargs,
        )
        results.append((gbps, stats["events_processed"]))
    assert results[0] == results[1]


@pytest.mark.parametrize("mode", ["native", "netkernel"])
def test_figure4_single_flow_rwnd_limited_is_packet_exact(mode):
    """One flow on 160 KB sockets is rwnd-limited: W/RTT misses the
    stall-and-burst dynamics (~20 % high), so the controller declines the
    flow entirely and auto must equal packet bit-for-bit."""
    from repro.experiments.figure4 import measure_lan_throughput

    results = []
    for fidelity in ("packet", "auto"):
        stats = {}
        gbps = measure_lan_throughput(
            mode, flows=1, duration=0.05, warmup=0.01,
            stats_out=stats, fidelity=fidelity,
        )
        results.append((gbps, stats["events_processed"]))
    assert results[0] == results[1]


def test_figure5_auto_is_packet_exact():
    """The WAN path is lossy: install_fluid declines, auto == packet."""
    from repro.experiments.figure5 import measure_wan_throughput
    from repro.host.vm import GuestOS

    results = []
    for fidelity in ("packet", "auto"):
        stats = {}
        mbps = measure_wan_throughput(
            "native", GuestOS.LINUX, "bbr", duration=3.0, warmup=0.5,
            stats_out=stats, fidelity=fidelity,
        )
        results.append((mbps, stats["events_processed"]))
    assert results[0] == results[1]


# -- figure 4 auto golden ------------------------------------------------------

FIG4_AUTO_GOLDEN = Path(__file__).parent / "data" / "fluid_figure4_auto.json"
FIG4_AUTO_CELLS = [("native", 2), ("native", 3), ("netkernel", 2), ("netkernel", 3)]


def _figure4_auto_cell(mode, flows):
    """One figure-4 ``--fidelity auto`` world run to 0.1 s: event count,
    controller stats and the bytes each receiver read."""
    from repro.experiments.figure4 import _build_lan_world

    testbed, receivers = _build_lan_world(
        mode, flows, warmup=0.0, fidelity="auto"
    )
    testbed.run(until=0.1)
    return {
        "events_processed": testbed.events_processed,
        "stats": testbed.sim.fidelity.stats(),
        "receiver_bytes": [rx.meter.bytes for rx in receivers],
    }


def figure4_auto_snapshot():
    """Every cell, keyed ``mode/flows``: the golden file's content.  A
    change that moves it on purpose rewrites the file from this, with
    ``json.dumps(figure4_auto_snapshot(), indent=2, sort_keys=True)``."""
    return {
        f"{mode}/{flows}": _figure4_auto_cell(mode, flows)
        for mode, flows in FIG4_AUTO_CELLS
    }


@pytest.mark.parametrize("mode,flows", FIG4_AUTO_CELLS)
def test_figure4_auto_matches_golden(mode, flows):
    """The fluid path through native and NetKernel worlds is pinned
    exactly (the tolerance test above only bounds goodput to 1 %)."""
    golden = json.loads(FIG4_AUTO_GOLDEN.read_text())
    cell = _figure4_auto_cell(mode, flows)
    assert cell == golden[f"{mode}/{flows}"]
    assert cell["stats"]["promotions"] >= 1


# -- netkernel aggregated reads ----------------------------------------------


def test_netkernel_fluid_credits_are_conserved():
    """A promoted connection's buffer fills in rate-integrated chunks, and
    ServiceLib reads each in one DATA nqe larger than ``rx_chunk_bytes``;
    the invariants ledger stays balanced across those aggregated reads."""
    from repro.experiments.figure4 import _build_lan_world
    from repro.faults.invariants import InvariantChecker

    class Recording(InvariantChecker):
        largest = 0

        def on_data_forwarded(self, uid, seq, nbytes):
            self.largest = max(self.largest, nbytes)
            super().on_data_forwarded(uid, seq, nbytes)

    testbed, _receivers = _build_lan_world(
        "netkernel", flows=2, warmup=0.01, fidelity="auto"
    )
    hypervisors = (testbed.hypervisor_a, testbed.hypervisor_b)
    checkers = []
    for hypervisor in hypervisors:
        checker = Recording()
        checker.install(hypervisor.coreengine)
        checkers.append(checker)
    testbed.run(until=0.05)
    assert testbed.sim.fidelity.stats()["fluid_bytes_delivered"] > 0
    for checker in checkers:
        assert checker.audit() == [] and checker.violations == []
    rx_chunk = max(
        nsm.spec.rx_chunk_bytes for hv in hypervisors for nsm in hv.nsms
    )
    assert max(checker.largest for checker in checkers) > rx_chunk


# -- one solver, no array library ----------------------------------------------


def test_no_run_loads_numpy():
    """The fluid engine has one solver, in plain Python: a fidelity
    ``auto`` run that promotes flows and solves rate epochs never imports
    numpy (which cost 0.12 s of setup and 11 MiB when it was optional)."""
    import os
    import subprocess
    import sys
    import textwrap

    probe = textwrap.dedent(
        """
        import sys
        from repro.experiments.figure4 import _build_lan_world

        testbed, _receivers = _build_lan_world(
            "native", flows=2, warmup=0.01, fidelity="auto"
        )
        testbed.run(until=0.03)
        stats = testbed.sim.fidelity.stats()
        assert stats["promotions"] >= 1 and stats["rate_epochs"] >= 1, stats
        assert "numpy" not in sys.modules, "a fluid run imported numpy"
        """
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", probe], check=True, env=env, timeout=120)
