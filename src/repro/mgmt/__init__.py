"""Provider management plane: SLAs, pricing, accounting, scaling, placement."""

from .accounting import Accountant, UsageRecord
from .multiplexing import NsmPlacer
from .pingmesh import PingmeshMesh, ProbeFailure
from .pricing import (
    PerCorePricing,
    PerInstancePricing,
    PricingModel,
    SlaPricing,
    UtilizationPricing,
)
from .scaling import ScalingController, ScalingPolicy
from .sla import SlaMonitor, SlaReport, SlaSpec

__all__ = [
    "SlaSpec",
    "SlaReport",
    "SlaMonitor",
    "PricingModel",
    "PerInstancePricing",
    "PerCorePricing",
    "UtilizationPricing",
    "SlaPricing",
    "Accountant",
    "UsageRecord",
    "ScalingController",
    "ScalingPolicy",
    "NsmPlacer",
    "PingmeshMesh",
    "ProbeFailure",
]
