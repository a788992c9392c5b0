"""Synthetic workload generation.

The public datasets used in the paper cannot be redistributed or downloaded
in this environment, so each dataloader synthesises a statistically matched
workload instead (see DESIGN.md §1). This package holds the shared machinery:
distributions for job sizes, runtimes and inter-arrival times
(:mod:`repro.workloads.distributions`) and the workload generator that turns
them into fully-formed :class:`~repro.telemetry.job.Job` objects with
utilization and power profiles (:mod:`repro.workloads.synthetic`).
"""

from .distributions import (
    BurstArrivals,
    JobSizeDistribution,
    PoissonArrivals,
    RuntimeDistribution,
    UserPopulation,
    WaveArrivals,
)
from .synthetic import (
    SyntheticWorkloadGenerator,
    WorkloadSpec,
    burst_arrival_spec,
    busy_trace_spec,
    default_workload_spec,
    frontier_scale_spec,
    idle_heavy_spec,
)

__all__ = [
    "BurstArrivals",
    "burst_arrival_spec",
    "busy_trace_spec",
    "default_workload_spec",
    "frontier_scale_spec",
    "idle_heavy_spec",
    "JobSizeDistribution",
    "PoissonArrivals",
    "RuntimeDistribution",
    "UserPopulation",
    "WaveArrivals",
    "SyntheticWorkloadGenerator",
    "WorkloadSpec",
]
