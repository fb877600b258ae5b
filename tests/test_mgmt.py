"""Provider management: SLAs, pricing, accounting, scaling, placement."""

import pytest

from repro.experiments.common import make_lan_testbed
from repro.mgmt import (
    Accountant,
    NsmPlacer,
    PerCorePricing,
    PerInstancePricing,
    ScalingController,
    ScalingPolicy,
    SlaMonitor,
    SlaPricing,
    SlaSpec,
    UtilizationPricing,
)
from repro.netkernel import NsmForm, NsmSpec
from repro.sim import Simulator
from repro.stats import LatencyRecorder, ThroughputMeter


def make_nsm(form=NsmForm.VM, cores=1):
    testbed = make_lan_testbed()
    nsm = testbed.hypervisor_a.boot_nsm(NsmSpec(form=form, cores=cores))
    return testbed, nsm


# ------------------------------------------------------------------------ SLA --
def test_sla_spec_validation():
    with pytest.raises(ValueError):
        SlaSpec(min_throughput_bps=0)
    with pytest.raises(ValueError):
        SlaSpec(max_latency=-1)


def test_sla_monitor_passes_when_met(sim):
    meter = ThroughputMeter(sim)
    meter.first_at = 0.0
    meter.last_at = 1.0
    meter.bytes = 10_000_000  # 80 Mbps over 1s
    monitor = SlaMonitor(
        sim, "tenant", SlaSpec(min_throughput_bps=50e6), throughput=meter
    )
    report = monitor.report(until=1.0)
    assert report.throughput_ok is True
    assert report.compliant


def test_sla_monitor_flags_violation(sim):
    meter = ThroughputMeter(sim)
    meter.first_at = 0.0
    meter.last_at = 1.0
    meter.bytes = 1_000_000  # 8 Mbps
    monitor = SlaMonitor(
        sim, "tenant", SlaSpec(min_throughput_bps=50e6), throughput=meter
    )
    report = monitor.report(until=1.0)
    assert report.throughput_ok is False
    assert not report.compliant
    assert monitor.violations


def test_sla_latency_check(sim):
    recorder = LatencyRecorder()
    for _ in range(10):
        recorder.record(0.002)
    monitor = SlaMonitor(sim, "t", SlaSpec(max_latency=0.001), latency=recorder)
    assert monitor.report().latency_ok is False


def test_sla_best_effort_always_compliant(sim):
    monitor = SlaMonitor(sim, "t", SlaSpec())
    assert monitor.report().compliant


# -------------------------------------------------------------------- pricing --
def test_per_instance_pricing_flat():
    _testbed, nsm = make_nsm()
    model = PerInstancePricing(rate_per_instance_hour=0.10)
    assert model.bill(nsm, 24.0) == pytest.approx(2.40)


def test_per_core_pricing_scales_with_cores():
    _tb1, one_core = make_nsm(cores=1)
    _tb2, two_core = make_nsm(cores=2)
    model = PerCorePricing()
    assert model.bill(two_core, 1.0) > model.bill(one_core, 1.0)


def test_per_core_pricing_includes_memory():
    _tb, vm_form = make_nsm(form=NsmForm.VM)
    _tb2, module_form = make_nsm(form=NsmForm.HYPERVISOR_MODULE)
    model = PerCorePricing(rate_per_core_hour=0.0, rate_per_gb_hour=1.0)
    assert model.bill(vm_form, 1.0) > model.bill(module_form, 1.0)


def test_utilization_pricing_has_floor():
    _tb, nsm = make_nsm()
    model = UtilizationPricing(floor_per_hour=0.01)
    assert model.bill(nsm, 1.0) == pytest.approx(0.01)  # idle NSM pays floor


def test_utilization_pricing_tracks_busy_cores():
    testbed, nsm = make_nsm()
    nsm.cores[0].busy_seconds = 0.5
    testbed.sim.run(until=1.0)
    model = UtilizationPricing(rate_per_busy_core_hour=1.0, floor_per_hour=0.0)
    assert model.bill(nsm, 1.0) == pytest.approx(0.5)


def test_sla_pricing_charges_guarantees():
    _tb, nsm = make_nsm()
    model = SlaPricing(
        guaranteed_gbps=10.0,
        rate_per_gbps_hour=0.01,
        guaranteed_connections=0,
        rate_per_1k_connections_hour=0.0,
    )
    assert model.bill(nsm, 2.0) == pytest.approx(0.2)


def test_pricing_rejects_negative_hours():
    _tb, nsm = make_nsm()
    for model in (PerInstancePricing(), PerCorePricing(), UtilizationPricing(), SlaPricing()):
        with pytest.raises(ValueError):
            model.bill(nsm, -1.0)


# ----------------------------------------------------------------- accounting --
def test_accountant_reports_nsm_usage():
    testbed, nsm = make_nsm()
    accountant = Accountant(testbed.sim)
    accountant.track(nsm)
    nsm.cores[0].busy_seconds = 0.25
    testbed.sim.run(until=1.0)
    usage = accountant.nsm_usage(nsm)
    assert usage.core_seconds == pytest.approx(0.25)
    assert usage.polling  # prototype polls
    assert usage.memory_gb == NsmForm.VM.memory_gb
    assert nsm.name in accountant.all_usage()


# -------------------------------------------------------------------- scaling --
def test_scaling_controller_adds_core_under_load():
    testbed, nsm = make_nsm()
    sim = testbed.sim
    controller = ScalingController(
        sim,
        testbed.hypervisor_a,
        ScalingPolicy(high_watermark=0.5, check_interval=0.1),
    )

    def burn(sim):
        while sim.now < 1.0:
            yield nsm.cores[0].execute(0.05)

    sim.process(burn(sim))
    sim.run(until=1.0)
    assert any(action.action == "scale-up" for action in controller.actions)
    assert len(nsm.cores) > 1


def test_scaling_controller_idle_does_nothing():
    testbed, nsm = make_nsm()
    controller = ScalingController(testbed.sim, testbed.hypervisor_a)
    testbed.sim.run(until=3.0)
    assert controller.actions == []
    assert len(nsm.cores) == 1


def test_scaling_out_when_scale_up_capped():
    testbed, nsm = make_nsm()
    sim = testbed.sim
    controller = ScalingController(
        sim,
        testbed.hypervisor_a,
        ScalingPolicy(high_watermark=0.5, check_interval=0.1, max_cores_per_nsm=1),
    )

    def burn(sim):
        while sim.now < 0.5:
            yield nsm.cores[0].execute(0.05)

    sim.process(burn(sim))
    sim.run(until=0.5)
    assert any(action.action == "scale-out" for action in controller.actions)
    assert len(testbed.hypervisor_a.nsms) > 1


def test_scaling_out_sibling_runs_the_same_stack():
    """A QUIC NSM with a non-default receive chunk scales out into a QUIC
    sibling with the same chunk, not a default TCP one."""
    testbed = make_lan_testbed()
    sim = testbed.sim
    spec = NsmSpec(stack_family="quic", rx_chunk_bytes=16384)
    nsm = testbed.hypervisor_a.boot_nsm(spec)
    ScalingController(
        sim,
        testbed.hypervisor_a,
        ScalingPolicy(high_watermark=0.5, check_interval=0.1, max_cores_per_nsm=1),
    )

    def burn(sim):
        while sim.now < 0.5:
            yield nsm.cores[0].execute(0.05)

    sim.process(burn(sim))
    sim.run(until=0.5)
    siblings = testbed.hypervisor_a.nsms[1:]
    assert siblings
    for sibling in siblings:
        assert sibling.spec.stack_family == "quic"
        assert type(sibling.stack) is type(nsm.stack)
        assert sibling.servicelib.rx_chunk == 16384


# ------------------------------------------------------------------ placement --
def test_placer_shares_nsm_by_cc():
    testbed = make_lan_testbed()
    placer = NsmPlacer(testbed.sim, testbed.hypervisor_a, tenants_per_nsm=3)
    for i in range(3):
        placer.boot_tenant(f"t{i}", congestion_control="cubic", vcpus=1)
    assert len(placer.modules_in_use()) == 1
    assert placer.consolidation_ratio() == 3.0


def test_placer_spills_to_new_nsm_at_capacity():
    testbed = make_lan_testbed()
    placer = NsmPlacer(testbed.sim, testbed.hypervisor_a, tenants_per_nsm=2)
    for i in range(3):
        placer.boot_tenant(f"t{i}", congestion_control="cubic", vcpus=1)
    assert len(placer.modules_in_use()) == 2


def test_placer_separates_different_stacks():
    testbed = make_lan_testbed()
    placer = NsmPlacer(testbed.sim, testbed.hypervisor_a, tenants_per_nsm=4)
    placer.boot_tenant("bulk", congestion_control="dctcp", vcpus=1)
    placer.boot_tenant("web", congestion_control="bbr", vcpus=1)
    modules = placer.modules_in_use()
    assert len(modules) == 2
    assert {m.spec.congestion_control for m in modules} == {"dctcp", "bbr"}
