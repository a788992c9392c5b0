"""Power modelling substrate.

Converts per-job utilization (or recorded power traces) into node and system
power, then applies electrical conversion losses (rectification, in-rack
DC/DC conversion, switchgear) to obtain the facility-side IT power that feeds
the cooling model — the RAPS power path of the original ExaDigiT work. Each
model has one evaluation: :meth:`NodePowerModel.power` (and its vectorised
twin :meth:`NodePowerModel.power_array`, equal bit for bit) for a node,
:meth:`ConversionLossModel.total_loss_kw` for the losses, and
:meth:`SystemPowerModel.compose_sample` for the system sample that
:class:`RunningSetPowerAggregator` builds each step.
The idle IT power of a whole system is
:attr:`repro.config.SystemConfig.idle_system_power_kw`.
"""

from .losses import ConversionLossModel
from .node_power import NodePowerModel
from .signals import OperatingSignals
from .system_power import RunningSetPowerAggregator, SystemPowerModel, SystemPowerSample

__all__ = [
    "NodePowerModel",
    "ConversionLossModel",
    "OperatingSignals",
    "RunningSetPowerAggregator",
    "SystemPowerModel",
    "SystemPowerSample",
]
