"""S-RAPS reproduction: a scheduling-enabled HPC data-center digital twin.

The package reproduces the system described in "HPC Digital Twins for
Evaluating Scheduling Policies, Incentive Structures and their Impact on
Power and Cooling" (SC 2025): a forward-time digital-twin simulation loop
coupling batch scheduling, per-job power modelling, electrical conversion
losses and a transient cooling plant, plus power caps and electricity price
and carbon signals for power-aware operation, and resumable scenario sweeps.

Every front end — :func:`run_simulation`, :func:`run_request` for a
serialisable :class:`RunRequest`, the ``repro-sim`` and ``repro-sweep``
commands — builds one :class:`SimulationEngine` on the given jobs or on a
synthetic workload, and reads the result through ``stats.summary()``.
(``tests/test_engine.py`` runs the block below.)

Quick start::

    from repro import run_simulation

    result = run_simulation(system="tiny", policy="backfill", duration="6h", seed=1)
    print(result.stats.summary())
"""

from .version import __version__

from .config import (
    SystemConfig,
    available_systems,
    get_system_config,
    register_system_config,
)
from .cluster import ResourceManager
from .cooling import CoolingPlant
from .engine import (
    BackfillScheduler,
    FCFSScheduler,
    PowerCapScheduler,
    ReplayScheduler,
    Scheduler,
    SimulationEngine,
    SimulationResult,
    StatsCollector,
    available_policies,
    get_scheduler,
    run_simulation,
)
from .obs import (
    EventLog,
    MetricsRegistry,
    Observability,
    ProgressReporter,
    SpanTracer,
)
from .power import OperatingSignals, SystemPowerModel
from .sweep import (
    ResultsStore,
    RunRequest,
    SweepSpec,
    run_request,
    run_sweep,
)
from .telemetry import Job, JobRun, JobState, Profile, constant_profile, read_swf
from .workloads import SyntheticWorkloadGenerator, WorkloadSpec

__all__ = [
    "__version__",
    # configuration
    "SystemConfig",
    "available_systems",
    "get_system_config",
    "register_system_config",
    # simulation engine
    "SimulationEngine",
    "SimulationResult",
    "StatsCollector",
    "run_simulation",
    "Scheduler",
    "ReplayScheduler",
    "FCFSScheduler",
    "BackfillScheduler",
    "PowerCapScheduler",
    "available_policies",
    "get_scheduler",
    # component models
    "ResourceManager",
    "SystemPowerModel",
    "OperatingSignals",
    "CoolingPlant",
    # scenario sweeps
    "RunRequest",
    "run_request",
    "SweepSpec",
    "run_sweep",
    "ResultsStore",
    # observability
    "Observability",
    "SpanTracer",
    "MetricsRegistry",
    "EventLog",
    "ProgressReporter",
    # workload / telemetry
    "Job",
    "JobRun",
    "JobState",
    "Profile",
    "constant_profile",
    "read_swf",
    "SyntheticWorkloadGenerator",
    "WorkloadSpec",
]
