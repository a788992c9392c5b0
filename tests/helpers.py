"""Shared test helpers, importable absolutely from any test module.

Kept separate from ``conftest.py`` (which pytest reserves for fixtures and
hooks) so test modules can do ``from helpers import make_job`` without
relying on package-relative imports.

The *scan reference* lives here too: per-query evaluations of a profile
(:func:`value_at`, :func:`next_change_after`, ...), of one job run
(:func:`utilization_at`, :func:`job_power_w`, ...) and of the whole
running set (:func:`scan_sample`), and the EASY reservation by a scan of
every running job's nodes (:func:`scan_reservation`). No engine path calls
them; they are the straightforward evaluation the engine's cached job power
states, breakpoint heap and reservation walk must reproduce
(:func:`run_checked`, ``tests/test_power.py::TestJobPowerStates``,
``tests/test_scheduler.py``). So do the facility
references: :class:`ReferenceCoolingPlant` steps every CDU and the tower
loop on its own, and :func:`stage_efficiency` is the conversion stages'
efficiency curve on numpy (``tests/test_cooling.py``,
``tests/test_power.py``).

The engine reuses its last scheduling pass while the pass stands;
:func:`without_pass_memo` is the reference that asks the policy on every
step with a queue, and :func:`schedule_calls` records when the policy was
asked (``tests/test_engine.py::TestPassMemo``).

The *run relations* relate different runs instead of two paths of one:
a run turned into recorded telemetry (:func:`recorded_workload`) and
replayed, a workload moved in time (:func:`time_shifted`) and one with its
job ids relabelled (:func:`relabeled`) must each reproduce the original
summary (``tests/test_oracles.py``).
"""

from __future__ import annotations

import copy
import logging
import math
from dataclasses import replace
from typing import IO

import numpy as np
import pytest

from repro.cluster import DOWN, FREE, ResourceManager
from repro.config import CoolingConfig, PartitionConfig, SystemConfig, get_system_config
from repro.cooling.plant import _CDU_EFFECTIVENESS, WATER_CP, lag_fraction
from repro.engine import PowerCapScheduler, SchedulePass, SimulationEngine, SimulationResult
from repro.engine.stats import StatsCollector
from repro.obs import EventLog
from repro.power import OperatingSignals, SystemPowerModel, SystemPowerSample
from repro.telemetry import Job, JobRun, JobState, Profile, constant_profile

__all__ = [
    "ReferenceCoolingPlant",
    "assert_energy_balance",
    "assert_node_conservation",
    "assert_node_time_on_grid",
    "assert_power_matches_scan",
    "assert_replay_starts",
    "assert_signal_integrals",
    "change_points",
    "idle_floor_kw",
    "is_constant",
    "job_energy_j",
    "job_power_w",
    "make_job",
    "next_change_after",
    "next_power_change_after",
    "queued_run",
    "recorded_power_at",
    "recorded_workload",
    "relabeled",
    "run_checked",
    "scan_reservation",
    "scan_sample",
    "schedule_calls",
    "stage_efficiency",
    "stream_event_log",
    "summary_drifts",
    "time_shifted",
    "two_partition_system",
    "utilization_at",
    "value_at",
    "without_pass_memo",
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


def two_partition_system() -> SystemConfig:
    """16 cpu + 8 gpu nodes of the tiny system's node; gpu nodes idle 50 W higher."""
    node = get_system_config("tiny").partitions[0].node_power
    return SystemConfig(
        name="twopart",
        description="two-partition test system",
        partitions=(
            PartitionConfig("cpu", 16, node),
            PartitionConfig("gpu", 8, replace(node, idle_w=node.idle_w + 50.0)),
        ),
        timestep_s=15,
        trace_quantum_s=15,
        default_policy="fcfs",
    )


def idle_floor_kw(system: SystemConfig) -> float:
    """Every node of ``system`` at its partition's idle draw, kW: the power
    cap's idle floor when no node is down."""
    model = SystemPowerModel(system)
    return model.idle_power_w(partition.node_count for partition in system.partitions) / 1000.0


def stream_event_log(stream: IO[str]) -> EventLog:
    """An event log writing JSON lines to an open text stream."""
    log = EventLog()
    log._attach(logging.StreamHandler(stream))
    return log


def queued_run(job: Job) -> JobRun:
    """A fresh run record of ``job``, queued."""
    run = JobRun(job)
    run.mark_queued()
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
    model: SystemPowerModel, now: float, resource_manager: ResourceManager
) -> SystemPowerSample:
    """System power at ``now`` by evaluating every running job afresh.

    Idle power counts each partition's free nodes in the owner table.
    """
    power_w = 0.0
    cpu_weighted = 0.0
    gpu_weighted = 0.0
    nodes_busy = 0
    for run in resource_manager.running_jobs:
        nodes = run.job.nodes_required
        power_w += job_power_w(model, run, now)
        cpu, gpu, _ = utilization_at(run, now)
        cpu_weighted += cpu * nodes
        gpu_weighted += gpu * nodes
        nodes_busy += nodes
    system = resource_manager.system
    owner = resource_manager.owner
    free_nodes = [
        sum(1 for nid in system.partition_node_range(partition.name) if owner[nid] is FREE)
        for partition in system.partitions
    ]
    return model.compose_sample(
        power_w,
        nodes_busy=nodes_busy,
        cpu_weighted=cpu_weighted,
        gpu_weighted=gpu_weighted,
        free_nodes=free_nodes,
    )


# -- the scan reference: the EASY reservation -----------------------------------


def scan_reservation(
    resource_manager: ResourceManager, head: Job, started: list[Job], now: float
) -> tuple[float, float]:
    """``(shadow_time, spare)`` of the blocked ``head``, by scanning nodes.

    Places the tick's own starts (``started``, in decision order) on a copy
    of the resource manager at ``now``, so they sit on the nodes allocation
    gives them. Then every running job counts its nodes inside the head's
    partition — the one it names when the system has it, otherwise the
    system's first — with its expected end ``sim_start +
    requested_runtime``, and a walk in ``(expected end, nodes)`` order adds
    them to the partition's free nodes until the head fits. An overrun
    expected end shadows at ``now``; a head that never fits reserves
    nothing. ``BackfillScheduler._reserve`` must reproduce this with ``==``.
    """
    rm = copy.deepcopy(resource_manager)
    for job in started:
        rm.allocate(queued_run(job), now)
    system = rm.system
    names = [partition.name for partition in system.partitions]
    partition = system.partition_node_range(
        head.partition if head.partition in names else names[0]
    )
    occupants = []
    for run in rm.running_jobs:
        nodes = sum(1 for nid in run.assigned_nodes if nid in partition)
        if nodes:
            occupants.append((run.sim_start_time + run.job.requested_runtime, nodes))
    available = sum(1 for nid in partition if rm.owner[nid] is FREE)
    for end, nodes in sorted(occupants):
        available += nodes
        if available >= head.nodes_required:
            return max(now, end), available - head.nodes_required
    return math.inf, 0


# -- the facility references: cooling loops and conversion stages ---------------


class ReferenceCoolingPlant:
    """The cooling plant stepped loop by loop, one CDU at a time.

    Every CDU keeps its own return temperature and passes its own share of
    heat to the facility loop, summed CDU by CDU; then the tower loop
    steps on that heat. :meth:`repro.cooling.CoolingPlant.step` holds one
    return temperature for its identical CDUs and must reproduce this.
    """

    def __init__(self, config: CoolingConfig) -> None:
        self.config = config
        self.cdu_return_c = [config.supply_temperature_c] * config.cdu_count
        self.tower_return_c = config.facility_supply_temperature_c
        self.tower_supply_c = config.facility_supply_temperature_c

    def step(
        self, it_power_kw: float, loss_power_kw: float, dt_s: float
    ) -> tuple[float, float]:
        """Advance every loop by ``dt_s``; ``(cooling_power_kw, pue)``."""
        config = self.config
        it_power_kw = max(0.0, it_power_kw)
        loss_power_kw = max(0.0, loss_power_kw)
        total_heat_kw = it_power_kw + loss_power_kw
        liquid_heat_kw = total_heat_kw * (1.0 - config.air_cooled_fraction)
        air_heat_kw = total_heat_kw * config.air_cooled_fraction

        cdu_flow_cp = config.secondary_flow_kg_per_s_per_cdu * WATER_CP
        cdu_alpha = lag_fraction(dt_s, config.cdu_thermal_mass_j_per_k / cdu_flow_cp)
        heat_to_facility_kw = 0.0
        for index, return_c in enumerate(self.cdu_return_c):
            heat_kw = max(0.0, liquid_heat_kw / len(self.cdu_return_c))
            target_c = config.supply_temperature_c + (heat_kw * 1000.0) / cdu_flow_cp
            self.cdu_return_c[index] = return_c + cdu_alpha * (target_c - return_c)
            heat_to_facility_kw += _CDU_EFFECTIVENESS * heat_kw

        crac_power_kw = air_heat_kw / config.crac_cop if air_heat_kw > 0 else 0.0
        tower_heat_kw = max(0.0, heat_to_facility_kw + air_heat_kw + crac_power_kw)
        tower_flow_cp = config.facility_flow_kg_per_s * WATER_CP
        approach_c = (
            config.tower_approach_c
            + config.tower_range_coefficient * tower_heat_kw * 1000.0
        )
        supply_target_c = max(
            config.facility_supply_temperature_c, config.ambient_wet_bulb_c + approach_c
        )
        return_target_c = supply_target_c + (tower_heat_kw * 1000.0) / tower_flow_cp
        tower_alpha = lag_fraction(
            dt_s, config.facility_thermal_mass_j_per_k / tower_flow_cp
        )
        self.tower_supply_c += tower_alpha * (supply_target_c - self.tower_supply_c)
        self.tower_return_c += tower_alpha * (return_target_c - self.tower_return_c)

        fan_power_kw = config.fan_power_fraction * tower_heat_kw
        pump_power_kw = config.pump_power_fraction * total_heat_kw
        cooling_power_kw = pump_power_kw + fan_power_kw + crac_power_kw
        overhead_kw = loss_power_kw + cooling_power_kw
        if it_power_kw > 0:
            pue = (it_power_kw + overhead_kw) / it_power_kw
        elif overhead_kw > 0:
            pue = math.inf
        else:
            pue = 1.0
        return cooling_power_kw, pue


def stage_efficiency(
    load_fraction: float | np.ndarray, idle_eff: float, peak_eff: float
) -> float | np.ndarray:
    """A conversion stage's efficiency curve on numpy, array-capable.

    ``peak - (peak - idle) * exp(-8 * load)`` with the load clipped to
    ``[0, 1.5]``: the reference for the scalar stages inside
    :meth:`repro.power.ConversionLossModel.total_loss_kw`.
    """
    load = np.clip(load_fraction, 0.0, 1.5)
    return peak_eff - (peak_eff - idle_eff) * np.exp(-8.0 * load)


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
    tick = engine.stats.ticks[-1]
    scan = scan_sample(engine.power_model, tick.time_s, engine.resource_manager)
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


def assert_signal_integrals(stats: StatsCollector, signals: OperatingSignals) -> None:
    """The signal-weighted summaries are the recorded columns weighted row
    by row with the signal values at each row's ``time_s``.

    ``energy_cost`` and ``carbon_kg`` weight ``facility_power_kw``, and
    ``cap_violation_kwh`` integrates ``compute_power_kw`` above the cap, so
    a row recorded with another segment's values fails here.
    """
    column = stats.column
    values = [signals.values_at(t) for t in column("time_s").tolist()]
    cap_kw, price, carbon = np.array(values, dtype=float).reshape(-1, 3).T
    hours = column("dt_s") / 3600.0
    facility_kwh = column("facility_power_kw") * hours
    over_cap_kw = np.clip(column("compute_power_kw") - cap_kw, 0.0, None)
    summary = stats.summary()
    for key, expected in (
        ("energy_cost", np.sum(facility_kwh * price)),
        ("carbon_kg", np.sum(facility_kwh * carbon)),
        ("cap_violation_kwh", np.sum(over_cap_kw * hours)),
    ):
        assert summary[key] == pytest.approx(float(expected), rel=1e-9), key


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


def assert_node_time_on_grid(engine: SimulationEngine, result: SimulationResult) -> None:
    """Node time integrates on the tick grid: ∫ ``allocated_nodes`` · ``dt_s``
    equals Σ nodes × (⌈end⌉ − ⌈start⌉) over the jobs that ran.

    ⌈t⌉ is the first grid tick at or after ``t``: the engine allocates a
    job on the tick that starts it (a replay start backdated to an off-grid
    recorded start included) and releases it on the first tick at or after
    its end, which is at least the next tick. A horizon cut ends at the
    horizon. (``node_hours`` uses the exact simulated durations instead.)
    """
    stats = result.stats
    origin = result.start_time_s
    timestep = float(engine.system.timestep_s)
    cut = math.inf if engine.horizon_s is None else origin + engine.horizon_s

    def grid_tick(t: float) -> float:
        return origin + timestep * math.ceil((t - origin) / timestep)

    expected = 0.0
    for run in stats.completed_jobs:
        start = grid_tick(run.sim_start_time)
        end = min(max(grid_tick(run.sim_end_time), start + timestep), cut)
        expected += run.job.nodes_required * (end - start)
    integral = float(np.sum(stats.column("allocated_nodes") * stats.column("dt_s")))
    assert integral == pytest.approx(expected, rel=1e-12, abs=1e-9)


def run_checked(system, jobs: list[Job], policy, **engine_kwargs) -> SimulationResult:
    """Run one engine over ``jobs``, checking conservation on its tables.

    Wraps :meth:`SimulationEngine.step` so the owner table is recounted
    after every step (:func:`assert_node_conservation`) and, in
    event-driven runs, each step's power is checked against a scan of the
    running set (:func:`assert_power_matches_scan`; dense runs are tied to
    event-driven ones by the 1e-9 summary contract). After the run, energy
    balances (:func:`assert_energy_balance`), node time integrates on the
    tick grid (:func:`assert_node_time_on_grid`), a run with signals
    weights its columns as its summary does
    (:func:`assert_signal_integrals`), every run record is COMPLETED or
    DISMISSED, each job id left the system exactly once, the input jobs
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
    assert_node_time_on_grid(engine, result)
    if engine.signals is not None:
        assert_signal_integrals(result.stats, engine.signals)
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


def without_pass_memo(engine: SimulationEngine) -> SimulationEngine:
    """Make ``engine`` ask its policy on every step with a queue.

    Wraps :meth:`SimulationEngine.step` to clear the engine's pass key
    before each step, so the last pass is never reused: the reference the
    memo must reproduce exactly. Returns the engine.
    """
    step = engine.step

    def step_without_memo() -> None:
        engine._pass_key = None
        step()

    engine.step = step_without_memo  # type: ignore[method-assign]
    return engine


def schedule_calls(engine: SimulationEngine) -> list[tuple[float, SchedulePass]]:
    """Record every call of ``engine``'s policy: ``(now, the pass it returned)``.

    Wraps the policy instance's ``schedule`` and returns the list the
    wrapper appends to; the engine sees the same passes.
    """
    calls: list[tuple[float, SchedulePass]] = []
    scheduler = engine.scheduler
    schedule = scheduler.schedule

    def recorded(queue, resource_manager, now):
        schedule_pass = schedule(queue, resource_manager, now)
        calls.append((now, schedule_pass))
        return schedule_pass

    scheduler.schedule = recorded  # type: ignore[method-assign]
    return calls


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


# -- run relations ------------------------------------------------------------------


def recorded_workload(result: SimulationResult) -> list[Job]:
    """The run as recorded telemetry, for a replay round trip.

    Every started job becomes a recorded job: it starts at its simulated
    start, runs for its duration and holds the nodes the run gave it.
    Replaying this workload must start every job on time, with no replay
    tag, and reproduce the run's summary (``ticks`` aside: replay steps to
    the recorded starts instead of the policy's events).
    """
    return [
        replace(
            run.job,
            start_time=run.sim_start_time,
            end_time=run.sim_start_time + run.job.duration,
            recorded_nodes=run.assigned_nodes,
        )
        for run in result.jobs
        if run.sim_start_time is not None
    ]


def time_shifted(jobs: list[Job], shift_s: float) -> list[Job]:
    """``jobs`` with every submit, start and end time moved by ``shift_s``."""
    return [
        replace(
            job,
            submit_time=job.submit_time + shift_s,
            start_time=job.start_time + shift_s,
            end_time=job.end_time + shift_s,
        )
        for job in jobs
    ]


def relabeled(jobs: list[Job], offset: int) -> list[Job]:
    """``jobs`` with every job id moved by ``offset``: the relabel keeps
    the id order, so ties break the same way."""
    return [replace(job, job_id=job.job_id + offset) for job in jobs]
