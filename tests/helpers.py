"""Shared test helpers, importable absolutely from any test module.

Kept separate from ``conftest.py`` (which pytest reserves for fixtures and
hooks) so test modules can do ``from helpers import make_job`` without
relying on package-relative imports.

The *scan reference* lives here too: per-query evaluations of a profile
(:func:`value_at`, :func:`next_change_after`, ...), of one job run
(:func:`utilization_at`, :func:`job_power_w`, ...) and of the whole
running set (:func:`scan_sample`). No engine path calls them; they are the
straightforward evaluation the engine's cached job power states and
breakpoint heap must reproduce (:func:`run_checked`,
``tests/test_power.py::TestJobPowerStates``).
"""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest

from repro.cluster import DOWN, FREE, ResourceManager
from repro.engine import PowerCapScheduler, SimulationEngine, SimulationResult
from repro.engine.stats import StatsCollector
from repro.power import SystemPowerModel, SystemPowerSample
from repro.telemetry import Job, JobRun, JobState, Profile, constant_profile

__all__ = [
    "assert_energy_balance",
    "assert_node_conservation",
    "assert_power_matches_scan",
    "assert_replay_starts",
    "change_points",
    "is_constant",
    "job_energy_j",
    "job_power_w",
    "make_job",
    "next_change_after",
    "next_power_change_after",
    "queued_run",
    "recorded_power_at",
    "run_checked",
    "scan_sample",
    "summary_drifts",
    "utilization_at",
    "value_at",
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


# -- the scan reference: profiles ------------------------------------------------


def value_at(profile: Profile, t: float) -> float:
    """The value ``profile`` holds at relative time ``t`` (seconds).

    Zero-order hold on the change grid: the value of the last grid point at
    or before ``t``. Times before 0.0 hold the first value and times past
    the recorded duration the last one (the paper's "missing data → last
    known value" rule).
    """
    times, values = profile.change_grid()
    index = max(int(np.searchsorted(times, t, side="right")) - 1, 0)
    return float(values[index])


def change_points(profile: Profile) -> np.ndarray:
    """Relative times at which the held value changes: the grid after 0.0."""
    return profile.change_grid()[0][1:]


def next_change_after(profile: Profile, t: float) -> float | None:
    """First relative time strictly after ``t`` at which the value changes.

    ``None`` when the value never changes after ``t``: for a constant
    profile, and for any ``t`` at or past the last change point.
    """
    changes = change_points(profile)
    index = int(np.searchsorted(changes, t, side="right"))
    return float(changes[index]) if index < changes.size else None


def is_constant(profile: Profile) -> bool:
    """Whether the profile holds one value over its whole span."""
    return profile.change_grid()[0].size == 1


# -- the scan reference: job runs and the running set -------------------------


def _elapsed(run: JobRun, now: float) -> float:
    """Seconds since the simulated start (0 if not yet started)."""
    if run.sim_start_time is None:
        return 0.0
    return max(0.0, now - run.sim_start_time)


def utilization_at(run: JobRun, now: float) -> tuple[float, float, float]:
    """(cpu, gpu, mem) utilization of ``run`` at simulation time ``now``.

    Profiles are indexed by elapsed time since the *simulated* start, so a
    rescheduled job replays its recorded behaviour shifted to its new start.
    """
    t = _elapsed(run, now)
    job = run.job
    return value_at(job.cpu_util, t), value_at(job.gpu_util, t), value_at(job.mem_util, t)


def recorded_power_at(run: JobRun, now: float) -> float | None:
    """Recorded per-node power (watts) of ``run`` at ``now``, if a trace exists."""
    if run.job.node_power is None:
        return None
    return value_at(run.job.node_power, _elapsed(run, now))


def next_power_change_after(run: JobRun, now: float) -> float | None:
    """First simulation time strictly after ``now`` at which the run's power
    or mean-utilization contribution changes, or ``None``.

    Elapsed-time indexing: a backdated (off-grid) start shifts every change
    point with it.
    """
    base = run.sim_start_time if run.sim_start_time is not None else now
    elapsed = now - base
    best: float | None = None
    for profile in run.job.power_profiles():
        change = next_change_after(profile, elapsed)
        if change is not None:
            candidate = base + change
            if best is None or candidate < best:
                best = candidate
    return best


def job_power_w(model: SystemPowerModel, run: JobRun, now: float) -> float:
    """Total power of one running job (watts across all its nodes): the
    recorded trace when present, else the scalar node model on its
    utilization."""
    job = run.job
    recorded = recorded_power_at(run, now)
    if recorded is not None:
        return recorded * job.nodes_required
    cpu, gpu, mem = utilization_at(run, now)
    return model.node_model(job.partition).power(cpu, gpu, mem) * job.nodes_required


def job_energy_j(model: SystemPowerModel, job: Job) -> float:
    """Energy of ``job`` over its recorded duration (joules): the job's power
    held from each change point of its power-relevant profiles, times the
    width up to the next one (the last cut at the job's end)."""
    duration = job.duration
    if duration <= 0:
        return 0.0
    points = sorted(
        {0.0}
        | {
            t
            for profile in job.power_profiles()
            for t in change_points(profile).tolist()
            if t < duration
        }
    )
    node = model.node_model(job.partition)
    energy = 0.0
    for start, stop in zip(points, [*points[1:], duration]):
        if job.node_power is not None:
            power = value_at(job.node_power, start)
        else:
            power = node.power(
                value_at(job.cpu_util, start),
                value_at(job.gpu_util, start),
                value_at(job.mem_util, start),
            )
        energy += power * (stop - start)
    return energy * job.nodes_required


def scan_sample(
    model: SystemPowerModel,
    now: float,
    running_jobs,
    *,
    allocated_nodes: int | None = None,
    down_nodes: int = 0,
) -> SystemPowerSample:
    """System power at ``now`` by evaluating every running job afresh."""
    power_w = 0.0
    cpu_weighted = 0.0
    gpu_weighted = 0.0
    nodes_busy = 0
    for run in running_jobs:
        nodes = run.job.nodes_required
        power_w += job_power_w(model, run, now)
        cpu, gpu, _ = utilization_at(run, now)
        cpu_weighted += cpu * nodes
        gpu_weighted += gpu * nodes
        nodes_busy += nodes
    return model.compose_sample(
        now,
        power_w,
        nodes_busy=nodes_busy,
        cpu_weighted=cpu_weighted,
        gpu_weighted=gpu_weighted,
        allocated_nodes=allocated_nodes,
        down_nodes=down_nodes,
    )


# -- run checks -------------------------------------------------------------------


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
    scan = scan_sample(
        engine.power_model,
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


def assert_replay_starts(runs: list[JobRun]) -> None:
    """Replay starts each job at its recorded start unless it is delayed.

    A run tagged ``replay_delayed`` (its recorded placement was busy, or a
    power cap held it) starts strictly later, at the tick that admits it:
    it is never backdated to its recorded start.
    """
    for run in runs:
        if run.sim_start_time is None:
            continue
        if run.replay_delayed:
            assert run.sim_start_time > run.job.start_time, run.job_id
        else:
            assert run.sim_start_time == run.job.start_time, run.job_id


def run_checked(system, jobs: list[Job], policy, **engine_kwargs) -> SimulationResult:
    """Run one engine over ``jobs``, checking conservation on its tables.

    Wraps :meth:`SimulationEngine.step` so the owner table is recounted
    after every step (:func:`assert_node_conservation`) and, in
    event-driven runs, each step's power is checked against a scan of the
    running set (:func:`assert_power_matches_scan`; dense runs are tied to
    event-driven ones by the 1e-9 summary contract). After the run, energy
    balances (:func:`assert_energy_balance`), every run record is COMPLETED
    or DISMISSED, each job id left the system exactly once, the input jobs
    equal a deep copy taken before the run, and replay (bare or under the
    cap wrapper) started its jobs as :func:`assert_replay_starts` says.
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
    scheduler = engine.scheduler
    if isinstance(scheduler, PowerCapScheduler):
        scheduler = scheduler.base
    if scheduler.name == "replay":
        assert_replay_starts(result.jobs)
    return result


def _is_finite_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def summary_drifts(candidate: dict, reference: dict) -> dict[str, float]:
    """Per-metric relative deviation between two summaries (``ticks`` excluded).

    Non-finite values — inf/nan in-process, ``null`` once a record has been
    round-tripped through strict JSON, or a missing metric — compare as one
    sentinel bucket: no drift against each other, full drift (``inf``)
    against any finite value. The naive ratio would be nan for those cases
    and slip silently past any threshold.
    """
    drifts = {}
    for key, ref in reference.items():
        if key == "ticks":
            continue
        got = candidate.get(key)
        if _is_finite_number(ref) and _is_finite_number(got):
            if ref == got:
                drifts[key] = 0.0
            else:
                drifts[key] = abs(got - ref) / max(abs(ref), abs(got), 1e-12)
        elif _is_finite_number(ref) or _is_finite_number(got):
            drifts[key] = math.inf
        else:
            drifts[key] = 0.0
    # Symmetric check: a metric newly added to the candidate is a semantic
    # change too and must force a golden refresh, not pass silently.
    for key in candidate:
        if key != "ticks" and key not in reference:
            drifts[key] = math.inf
    return drifts
