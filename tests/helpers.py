"""Shared test helpers, importable absolutely from any test module.

Kept separate from ``conftest.py`` (which pytest reserves for fixtures and
hooks) so test modules can do ``from helpers import make_job`` without
relying on package-relative imports.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.cluster import DOWN, FREE, ResourceManager
from repro.engine import SimulationEngine, SimulationResult
from repro.engine.stats import StatsCollector
from repro.telemetry import Job, JobRun, JobState, Profile, constant_profile

__all__ = [
    "assert_energy_balance",
    "assert_node_conservation",
    "assert_power_matches_scan",
    "make_job",
    "queued_run",
    "run_checked",
]


def make_job(
    *,
    nodes: int = 1,
    submit: float = 0.0,
    start: float = 0.0,
    duration: float = 600.0,
    cpu: float = 0.5,
    gpu: float = 0.0,
    mem: float = 0.2,
    user: str = "user001",
    account: str = "acct001",
    priority: float = 0.0,
    partition: str = "batch",
    wall_limit: float | None = None,
    recorded_nodes: tuple[int, ...] = (),
    node_power: Profile | None = None,
    cpu_profile: Profile | None = None,
    gpu_profile: Profile | None = None,
    mem_profile: Profile | None = None,
) -> Job:
    """Construct a simple job for tests.

    Utilization defaults to constant profiles at the ``cpu``/``gpu``/``mem``
    levels; pass an explicit ``*_profile`` to exercise time-varying
    telemetry.
    """
    return Job(
        nodes_required=nodes,
        submit_time=submit,
        start_time=start,
        end_time=start + duration,
        wall_time_limit=wall_limit,
        user=user,
        account=account,
        priority=priority,
        partition=partition,
        recorded_nodes=recorded_nodes,
        cpu_util=cpu_profile if cpu_profile is not None else constant_profile(cpu, duration),
        gpu_util=gpu_profile if gpu_profile is not None else constant_profile(gpu, duration),
        mem_util=mem_profile if mem_profile is not None else constant_profile(mem, duration),
        node_power=node_power,
    )


def queued_run(job: Job, now: float = 0.0) -> JobRun:
    """A fresh run record of ``job``, submitted at ``now``."""
    run = JobRun(job)
    run.mark_queued(now)
    return run


def assert_node_conservation(rm: ResourceManager) -> None:
    """Recount the owner table against the resource manager's counters.

    Every node is free, down or owned by a running job; the three counts
    add up to the system's node count and match the O(1) counters, per
    partition too.
    """
    owner = rm.owner
    free = sum(1 for entry in owner if entry is FREE)
    down = sum(1 for entry in owner if entry is DOWN)
    allocated = sum(1 for entry in owner if entry is not FREE and entry is not DOWN)
    assert free + allocated + down == rm.system.total_nodes
    assert (free, allocated, down) == (
        rm.free_node_count(),
        rm.allocated_nodes,
        rm.down_nodes,
    )
    running = rm.running_by_id
    assert allocated == sum(run.job.nodes_required for run in running.values())
    for run in running.values():
        assert all(owner[nid] == run.job_id for nid in run.assigned_nodes)
    for partition in rm.system.partitions:
        node_range = rm.system.partition_node_range(partition.name)
        assert rm.free_node_count(partition.name) == sum(
            1 for nid in node_range if owner[nid] is FREE
        )


def assert_power_matches_scan(engine: SimulationEngine) -> None:
    """The last recorded tick's power equals a scan of the running set.

    Call right after a step: the running set is still the one the step's
    power sample saw. The incremental aggregator sums in its own order,
    so the match is to 1e-12, not bit for bit.
    """
    rm = engine.resource_manager
    tick = engine.stats.ticks[-1]
    scan = engine.power_model.sample(
        tick.time_s,
        rm.running_jobs,
        allocated_nodes=rm.allocated_nodes,
        down_nodes=rm.down_nodes,
    )
    for recorded, expected in (
        (tick.compute_power_kw, scan.compute_power_kw),
        (tick.loss_power_kw, scan.loss_kw),
        (tick.mean_cpu_util, scan.mean_cpu_util),
        (tick.mean_gpu_util, scan.mean_gpu_util),
    ):
        assert recorded == pytest.approx(expected, rel=1e-12, abs=1e-12)


def assert_energy_balance(stats: StatsCollector) -> None:
    """Facility power is IT plus losses plus cooling on every tick, and the
    summary energies are the integrals of their power columns."""
    column = stats.column
    compute = column("compute_power_kw")
    cooling = column("cooling_power_kw")
    facility = column("facility_power_kw")
    assert np.array_equal(facility, (compute + column("loss_power_kw")) + cooling)
    hours = column("dt_s") / 3600.0
    summary = stats.summary()
    for key, power in (
        ("total_energy_kwh", facility),
        ("it_energy_kwh", compute),
        ("cooling_energy_kwh", cooling),
    ):
        assert summary[key] == pytest.approx(float(np.sum(power * hours)), rel=1e-9)


def run_checked(system, jobs: list[Job], policy, **engine_kwargs) -> SimulationResult:
    """Run one engine over ``jobs``, checking conservation on its tables.

    Wraps :meth:`SimulationEngine.step` so the owner table is recounted
    after every step (:func:`assert_node_conservation`) and, in
    event-driven runs, each step's power is checked against a scan of the
    running set (:func:`assert_power_matches_scan`; dense runs are tied to
    event-driven ones by the 1e-9 summary contract). After the run, energy
    balances (:func:`assert_energy_balance`), every run record is COMPLETED
    or DISMISSED, each job id left the system exactly once, and the input
    jobs equal a deep copy taken before the run.
    """
    before = copy.deepcopy(jobs)
    engine = SimulationEngine(system, jobs, policy, **engine_kwargs)
    step = engine.step

    def checked_step() -> None:
        step()
        assert_node_conservation(engine.resource_manager)
        if not engine.dense_ticks:
            assert_power_matches_scan(engine)

    engine.step = checked_step  # type: ignore[method-assign]
    result = engine.run()
    assert_energy_balance(result.stats)
    assert all(
        run.state in (JobState.COMPLETED, JobState.DISMISSED) for run in result.jobs
    )
    left = [run.job_id for run in result.stats.completed_jobs]
    left += [run.job_id for run in result.stats.dismissed_jobs]
    assert sorted(left) == sorted(job.job_id for job in jobs)
    assert jobs == before
    return result

