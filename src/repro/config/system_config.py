"""Dataclasses describing a twinned HPC system.

The original RAPS keeps system descriptions in per-system ``config`` plugins;
S-RAPS extends these with scheduler-relevant information (partitions, default
scheduling policy, trace quantum). Here the same information lives in plain,
validated dataclasses so configurations can be constructed programmatically,
loaded from the built-in registry, or defined ad hoc in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from numbers import Integral
from typing import Mapping

from ..exceptions import ConfigurationError


@dataclass(frozen=True)
class NodePowerConfig:
    """Per-node power characteristics used by the power model.

    Power for a node is modelled per component:
    ``idle + cpu_util * (cpu_max - cpu_idle) * n_cpus + gpu_util * (gpu_max -
    gpu_idle) * n_gpus + mem_util * mem_dynamic`` — see
    :mod:`repro.power.node_power` for the exact formulation.

    Attributes
    ----------
    idle_w:
        Node power at zero utilization (fans, NICs, idle silicon).
    cpu_idle_w / cpu_max_w:
        Per-CPU-socket idle and full-load power.
    gpu_idle_w / gpu_max_w:
        Per-GPU idle and full-load power.
    mem_dynamic_w:
        Additional node power at 100 % memory-bandwidth utilization.
    cpus_per_node / gpus_per_node:
        Component counts.
    """

    idle_w: float
    cpu_idle_w: float
    cpu_max_w: float
    gpu_idle_w: float
    gpu_max_w: float
    mem_dynamic_w: float
    cpus_per_node: int
    gpus_per_node: int

    def __post_init__(self) -> None:
        for name in (
            "idle_w",
            "cpu_idle_w",
            "cpu_max_w",
            "gpu_idle_w",
            "gpu_max_w",
            "mem_dynamic_w",
        ):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ConfigurationError(f"{name} must be finite and >= 0, got {value!r}")
        for name in ("cpus_per_node", "gpus_per_node"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if self.cpu_max_w < self.cpu_idle_w:
            raise ConfigurationError("cpu_max_w must be >= cpu_idle_w")
        if self.gpu_max_w < self.gpu_idle_w:
            raise ConfigurationError("gpu_max_w must be >= gpu_idle_w")
        if self.cpus_per_node < 0 or self.gpus_per_node < 0:
            raise ConfigurationError("component counts must be non-negative")

    @property
    def max_w(self) -> float:
        """Maximum modelled node power (all components at 100 %)."""
        return (
            self.idle_w
            + self.cpus_per_node * self.cpu_max_w
            + self.gpus_per_node * self.gpu_max_w
            + self.mem_dynamic_w
        )

    @property
    def min_w(self) -> float:
        """Idle modelled node power (all components at 0 %)."""
        return (
            self.idle_w
            + self.cpus_per_node * self.cpu_idle_w
            + self.gpus_per_node * self.gpu_idle_w
        )


@dataclass(frozen=True)
class PowerLossConfig:
    """Electrical conversion-loss model parameters.

    Mirrors the rectifier/conversion loss modelling of Wojda et al. used by
    RAPS: the AC→DC rectification stage and the in-rack DC/DC (sivoc) stage
    each have a load-dependent efficiency curve; switchgear adds a small
    constant loss fraction.
    """

    rectifier_efficiency_peak: float = 0.975
    rectifier_efficiency_idle: float = 0.90
    sivoc_efficiency_peak: float = 0.98
    sivoc_efficiency_idle: float = 0.92
    switchgear_loss_fraction: float = 0.005

    def __post_init__(self) -> None:
        for name in (
            "rectifier_efficiency_peak",
            "rectifier_efficiency_idle",
            "sivoc_efficiency_peak",
            "sivoc_efficiency_idle",
        ):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ConfigurationError(f"{name} must be in (0, 1], got {value}")
        if not 0.0 <= self.switchgear_loss_fraction < 0.5:
            raise ConfigurationError("switchgear_loss_fraction must be in [0, 0.5)")


@dataclass(frozen=True)
class CoolingConfig:
    """Cooling-plant parameters for the lumped-parameter thermal model.

    The defaults approximate a warm-water, liquid-cooled plant of the kind
    modelled by the ExaDigiT Modelica cooling package: CDU secondary loops
    feeding cold plates, a facility water loop, and evaporative cooling
    towers whose approach temperature depends on load and ambient wet-bulb.
    """

    supply_temperature_c: float = 21.0
    facility_supply_temperature_c: float = 18.0
    ambient_wet_bulb_c: float = 12.0
    cdu_count: int = 25
    cdu_thermal_mass_j_per_k: float = 4.0e7
    facility_thermal_mass_j_per_k: float = 6.0e8
    secondary_flow_kg_per_s_per_cdu: float = 40.0
    facility_flow_kg_per_s: float = 1200.0
    tower_approach_c: float = 4.0
    tower_range_coefficient: float = 6.0e-7
    pump_power_fraction: float = 0.015
    fan_power_fraction: float = 0.02
    air_cooled_fraction: float = 0.0
    crac_cop: float = 3.5

    def __post_init__(self) -> None:
        for name in (
            "supply_temperature_c",
            "facility_supply_temperature_c",
            "ambient_wet_bulb_c",
        ):
            value = getattr(self, name)
            if not -math.inf < value < math.inf:
                raise ConfigurationError(f"{name} must be finite, got {value!r}")
        for name in ("secondary_flow_kg_per_s_per_cdu", "facility_flow_kg_per_s", "crac_cop"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ConfigurationError(f"{name} must be finite and > 0, got {value!r}")
        for name in (
            "cdu_thermal_mass_j_per_k",
            "facility_thermal_mass_j_per_k",
            "tower_approach_c",
            "tower_range_coefficient",
            "pump_power_fraction",
            "fan_power_fraction",
        ):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ConfigurationError(f"{name} must be finite and >= 0, got {value!r}")
        # cdu_count == 0 is a valid fully air-cooled plant (all heat goes
        # through the CRAC/facility path) — but only with nothing routed to
        # the then-nonexistent liquid loop.
        if isinstance(self.cdu_count, bool) or not isinstance(self.cdu_count, Integral):
            raise ConfigurationError(f"cdu_count must be an integer, got {self.cdu_count!r}")
        if self.cdu_count < 0:
            raise ConfigurationError("cdu_count must be non-negative")
        # Exact comparison on purpose: 1.0 is a user-entered sentinel
        # ("everything air-cooled"), not a computed quantity.
        if (
            self.cdu_count == 0
            and self.air_cooled_fraction != 1.0  # repro-lint: disable=float-compare
        ):
            raise ConfigurationError(
                "cdu_count == 0 (no liquid loop) requires air_cooled_fraction == 1.0"
            )
        if not 0.0 <= self.air_cooled_fraction <= 1.0:
            raise ConfigurationError("air_cooled_fraction must be in [0, 1]")


@dataclass(frozen=True)
class PartitionConfig:
    """A named node partition (e.g. Adastra's CPU and GPU partitions)."""

    name: str
    node_count: int
    node_power: NodePowerConfig

    def __post_init__(self) -> None:
        if isinstance(self.node_count, bool) or not isinstance(self.node_count, Integral):
            raise ConfigurationError(
                f"partition {self.name!r} node_count must be an integer, "
                f"got {self.node_count!r}"
            )
        if self.node_count <= 0:
            raise ConfigurationError(f"partition {self.name!r} must have nodes")


@dataclass(frozen=True)
class SystemConfig:
    """Full description of a twinned system.

    Attributes
    ----------
    name:
        Registry key (``"frontier"``, ``"marconi100"``, ...).
    description:
        Human-readable architecture string as in Table 1 of the paper.
    partitions:
        Tuple of :class:`PartitionConfig`. Node ids are assigned contiguously
        in partition order, so partition boundaries can be recovered from
        node indices.
    scheduler_name:
        Production scheduler on the real machine (informational).
    trace_quantum_s:
        Native telemetry sampling interval of the dataset (15 s for Frontier,
        20 s for Marconi100, summaries otherwise).
    timestep_s:
        Simulation timestep used by the engine for this system.
    power_loss:
        Electrical loss model parameters.
    cooling:
        Cooling model parameters, or ``None`` if no cooling model is coupled
        (the paper only couples cooling for Frontier).
    default_policy:
        Scheduling policy used when the caller does not specify one.
    down_node_fraction:
        Fraction of nodes marked down/drained at simulation start; the public
        datasets do not include this, and the paper notes its absence inflates
        rescheduled utilization. Kept configurable for what-if studies.
    """

    name: str
    description: str
    partitions: tuple[PartitionConfig, ...]
    scheduler_name: str = "slurm"
    trace_quantum_s: int = 60
    timestep_s: int = 60
    power_loss: PowerLossConfig = field(default_factory=PowerLossConfig)
    cooling: CoolingConfig | None = None
    default_policy: str = "replay"
    down_node_fraction: float = 0.0
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.partitions:
            raise ConfigurationError("a system needs at least one partition")
        for name in ("timestep_s", "trace_quantum_s"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigurationError(f"{name} must be finite and > 0, got {value!r}")
        if not 0.0 <= self.down_node_fraction < 1.0:
            raise ConfigurationError("down_node_fraction must be in [0, 1)")
        names = [p.name for p in self.partitions]
        if len(set(names)) != len(names):
            raise ConfigurationError("partition names must be unique")

    @property
    def total_nodes(self) -> int:
        """Total node count across all partitions."""
        return sum(p.node_count for p in self.partitions)

    @property
    def has_cooling_model(self) -> bool:
        """Whether a cooling model is configured for this system."""
        return self.cooling is not None

    def partition_of_node(self, node_id: int) -> PartitionConfig:
        """Return the partition owning ``node_id`` (contiguous assignment)."""
        if node_id < 0:
            raise ConfigurationError(f"node id must be non-negative, got {node_id}")
        offset = 0
        for partition in self.partitions:
            if node_id < offset + partition.node_count:
                return partition
            offset += partition.node_count
        raise ConfigurationError(
            f"node id {node_id} out of range for system {self.name!r} "
            f"({self.total_nodes} nodes)"
        )

    def partition_node_range(self, partition_name: str) -> range:
        """Return the node-id range of the named partition."""
        offset = 0
        for partition in self.partitions:
            if partition.name == partition_name:
                return range(offset, offset + partition.node_count)
            offset += partition.node_count
        raise ConfigurationError(
            f"unknown partition {partition_name!r} for system {self.name!r}"
        )

    @property
    def peak_system_power_kw(self) -> float:
        """Upper bound on modelled IT power in kilowatts."""
        watts = sum(p.node_count * p.node_power.max_w for p in self.partitions)
        return watts / 1000.0

    def with_overrides(self, **kwargs: object) -> "SystemConfig":
        """Return a copy with selected fields replaced (what-if studies)."""
        return replace(self, **kwargs)  # type: ignore[arg-type]
