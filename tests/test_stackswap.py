"""Tenant-defined stacks: TCP-only bit-identity and isolation enforcement.

Two contracts from the stack-family work:

* Adding the QUIC family and the per-tenant quota scheduler is invisible
  to TCP-only runs in their default configuration — the figure4/figure5
  goldens below were captured on the tree *before* this work landed and
  must still match to the last float bit.
* With ``CoreEngineConfig.tenant_quota_nqes`` set, a hostile co-tenant
  (ring flood + huge-page hoard, :data:`FaultKind.HOSTILE_TENANT`)
  cannot starve a victim sharing its NSM; with quotas off it can.
"""

from repro.experiments.stackswap import (
    ISOLATION_QUOTA_NQES,
    _measure_isolation,
)
from repro.host.vm import GuestOS
from repro.netkernel import CoreEngineConfig

# Captured on this tree immediately before the stack-family / quota
# scheduler work (same harness, fresh interpreter).  FIG5_GOLDEN_EVENTS was
# re-recorded when the delayed-ACK timer stopped pushing an entry per
# segment (``sim.Deadline``), and when the handshake's RTO timer started
# stopping once nothing is outstanding (one more event).
FIG4_GOLDEN_GBPS = "37.64929174820656"
FIG4_GOLDEN_EVENTS = 96911
FIG5_GOLDEN_MBPS = "1.1318060407766117"
FIG5_GOLDEN_EVENTS = 2565


def test_figure4_tcp_only_is_bit_identical_to_pre_family_golden():
    from repro.experiments.figure4 import measure_lan_throughput

    stats = {}
    gbps = measure_lan_throughput(
        "netkernel", 2, duration=0.05, warmup=0.0125, stats_out=stats
    )
    assert repr(gbps) == FIG4_GOLDEN_GBPS
    assert stats["events_processed"] == FIG4_GOLDEN_EVENTS


def test_figure5_tcp_only_is_bit_identical_to_pre_family_golden():
    from repro.experiments.figure5 import measure_wan_throughput

    stats = {}
    mbps = measure_wan_throughput(
        "netkernel",
        GuestOS.WINDOWS,
        "bbr",
        duration=2.0,
        warmup=0.25,
        stats_out=stats,
    )
    assert repr(mbps) == FIG5_GOLDEN_MBPS
    assert stats["events_processed"] == FIG5_GOLDEN_EVENTS


# ------------------------------------------------------------- isolation --
def test_quota_scheduler_costs_an_honest_tenant_almost_nothing():
    without = _measure_isolation(quotas=False, hostile=False, duration=0.06)
    with_quotas = _measure_isolation(quotas=True, hostile=False, duration=0.06)
    assert with_quotas > without * 0.99


def test_hostile_tenant_starves_the_victim_without_quotas():
    clean = _measure_isolation(quotas=False, hostile=False, duration=0.06)
    flooded = _measure_isolation(quotas=False, hostile=True, duration=0.06)
    assert flooded < clean * 0.5  # the flood really is hostile


def test_quotas_contain_the_hostile_tenant():
    clean = _measure_isolation(quotas=True, hostile=False, duration=0.06)
    flooded = _measure_isolation(quotas=True, hostile=True, duration=0.06)
    assert flooded > clean * 0.90  # < 10% degradation

    config = CoreEngineConfig(tenant_quota_nqes=ISOLATION_QUOTA_NQES)
    assert config.tenant_quota_nqes == 1
    assert CoreEngineConfig().tenant_quota_nqes is None  # default: off
