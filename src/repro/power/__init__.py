"""Power modelling substrate.

Converts per-job utilization (or recorded power traces) into node and system
power, then applies electrical conversion losses (rectification, in-rack
DC/DC conversion, switchgear) to obtain the facility-side IT power that feeds
the cooling model — the RAPS power path of the original ExaDigiT work.
"""

from .node_power import NodePowerModel, system_idle_power_kw
from .losses import ConversionLossModel, LossBreakdown
from .signals import OperatingSignals
from .system_power import RunningSetPowerAggregator, SystemPowerModel, SystemPowerSample

__all__ = [
    "NodePowerModel",
    "system_idle_power_kw",
    "ConversionLossModel",
    "LossBreakdown",
    "OperatingSignals",
    "RunningSetPowerAggregator",
    "SystemPowerModel",
    "SystemPowerSample",
]
