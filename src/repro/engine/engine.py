"""The discrete-time simulation engine.

:class:`SimulationEngine` advances a workload through the coupled scheduler →
resource-manager → power → cooling pipeline on a fixed
``SystemConfig.timestep_s`` tick grid. The workload's :class:`Job` records
are read-only: the engine keeps each job's run state in one
:class:`~repro.telemetry.job.JobRun` of its own, so one job list can drive
any number of runs without being copied. Releases are processed before
submissions and scheduling within a tick, which resolves the paper's
same-timestep end/start collision on a node; replay decisions may backdate a
job's start to its recorded (possibly off-grid) start time so the simulated
schedule matches the telemetry exactly.

Each step asks the policy once: :meth:`Scheduler.schedule` returns one
:class:`~repro.engine.scheduler.SchedulePass` — starts, dismissals, held
jobs, ``valid_until``, the earliest time its answer could change, and
``stands_until``, that time if nothing of it is executed. The engine checks
that every job a pass names is queued and named once and starts inside the
current tick, then executes it. It keeps the last pass and reuses it
without calling the policy while the resource manager's epoch and its own
queue version (bumped on every submission and removal) are unchanged and
``now < stands_until``.

Time advancement is *event-driven* by default: when nothing can change
before the next event — no pending submission, no running-job end, no
backdated replay start, no horizon, no profile breakpoint on the running
set, and no policy pass that runs out (its ``valid_until``) — the engine
jumps straight to the grid tick that first processes the next event,
recording one aggregated :class:`~repro.engine.stats.TickSample` whose
``dt_s`` spans the coalesced interval. A running job with a
piecewise-constant profile does not force dense ticking: it merely bounds
the interval by its next profile *value change* (a point of the profile's
change grid, which holds no repeated equal samples; the power aggregator's
:meth:`~repro.power.RunningSetPowerAggregator.next_breakpoint_after` keeps
the earliest one of the running set), so busy telemetry-replay traces
coalesce almost as well as idle ones. Because power and cooling overhead
are constant over such an interval (the cooling loops relax exponentially
towards a constant target, which composes exactly across substeps), every
summary metric is identical to a dense tick-by-tick run up to
floating-point associativity. Pass
``dense_ticks=True`` (CLI: ``--dense-ticks``) to force one sample per grid
tick when an exact per-tick time series is needed.

:func:`run_simulation` is the one-call entry point used by the CLI, the
tests and the quick-start example: it resolves the system configuration,
synthesises (or accepts) a workload and runs one engine to completion.
:func:`repro.sweep.run_request` runs a request through it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from numbers import Real
from time import perf_counter_ns

from ..cluster import ResourceManager
from ..config import SystemConfig, get_system_config
from ..cooling import CoolingPlant, power_usage_effectiveness
from ..devtools import hot_path
from ..exceptions import AllocationError, ConfigurationError, SchedulingError, SimulationError
from ..obs import Observability
from ..obs.metrics import Histogram
from ..power import RunningSetPowerAggregator, SystemPowerModel
from ..power.signals import OperatingSignals
from ..telemetry.job import Job, JobRun, JobState
from ..units import check_seed
from ..units import parse_duration as _parse_duration_s
from ..workloads import SyntheticWorkloadGenerator, WorkloadSpec
from .scheduler import PowerCapScheduler, SchedulePass, Scheduler, get_scheduler
from .stats import StatsCollector

#: Engine phases the span tracer times (one span per phase per step).
ENGINE_PHASES = ("schedule", "coalesce", "power", "cooling", "stats")

__all__ = [
    "SimulationEngine",
    "SimulationResult",
    "run_simulation",
    "parse_duration",
]


def parse_duration(value: str | float | int) -> float:
    """Parse a duration to positive seconds.

    Delegates to :func:`repro.units.parse_duration` (plain numbers, suffixed
    strings such as ``"90m"``/``"24h"``, Slurm clock strings such as
    ``"1:30:00"``; fractions of a second kept) and additionally rejects
    zero, which makes no sense as a simulation window or horizon.
    """
    seconds = _parse_duration_s(value)
    if seconds <= 0:
        raise SimulationError(f"duration must be positive, got {value!r}")
    return seconds


@dataclass
class SimulationResult:
    """Everything a finished run produced."""

    system: SystemConfig
    policy: str
    stats: StatsCollector
    #: One run record per input job, in input order.
    jobs: list[JobRun] = field(repr=False)
    start_time_s: float = 0.0
    end_time_s: float = 0.0
    seed: int = 0

    def summary(self) -> dict[str, float]:
        """Shortcut for ``result.stats.summary()``."""
        return self.stats.summary()


class SimulationEngine:
    """Discrete-time engine coupling scheduling, power and cooling.

    Parameters
    ----------
    system:
        The system configuration (also fixes the tick length).
    jobs:
        The workload. Jobs are read-only and never copied: the engine
        builds one :class:`JobRun` per job for its run state, so the same
        list can drive several runs. Job ids must be unique.
    scheduler:
        Policy instance or registry name (:func:`get_scheduler`); ``None``
        means the system's ``default_policy``.
    seed:
        Seed forwarded to the resource manager's down-node draw; an
        integer >= 0 (:func:`repro.units.check_seed`).
    horizon_s:
        Optional hard stop (relative to the first tick), a positive finite
        number of seconds. Jobs still pending or queued at the horizon are
        dismissed; jobs still on nodes are truncated at exactly ``start +
        horizon_s``, where the clock ends too (the step that crosses it is
        clamped to end there), so no runtime or energy past the horizon is
        credited.
    dense_ticks:
        Force one statistics sample per ``timestep_s`` grid tick instead of
        coalescing event-free intervals (a bool). Summary metrics are
        identical either way; dense mode exists for consumers of the exact
        per-tick time series.
    signals:
        Optional :class:`~repro.power.signals.OperatingSignals` (power cap,
        electricity price, carbon intensity). A finite cap wraps the policy
        in a :class:`~repro.engine.scheduler.PowerCapScheduler`. A
        :class:`~repro.engine.scheduler.PowerCapScheduler` passed as the
        policy brings its own signals when this is ``None``; giving both
        with different values is a :class:`ConfigurationError`.
    obs:
        Optional :class:`~repro.obs.Observability` bundle — phase-span
        tracer, metrics registry, structured event log and/or progress
        reporter (each individually optional). With the default ``None``
        the engine runs the uninstrumented hot path: one ``is None``
        attribute check per phase per step, the path perfbench's
        ``cpu_s`` measures. See :mod:`repro.obs`.
    """

    def __init__(
        self,
        system: SystemConfig,
        jobs: list[Job],
        scheduler: Scheduler | str | None = None,
        *,
        seed: int = 0,
        horizon_s: float | None = None,
        dense_ticks: bool = False,
        signals: OperatingSignals | None = None,
        obs: Observability | None = None,
    ) -> None:
        seed = check_seed(seed)
        # Checked here, where every front end passes: a NaN or infinite
        # horizon would run the whole workload and a non-positive one
        # dismiss it, a truthy non-bool such as "no" would run dense, and a
        # signals dict would fail mid-setup.
        if horizon_s is not None and (
            isinstance(horizon_s, bool)
            or not isinstance(horizon_s, Real)
            or not 0 < horizon_s < math.inf
        ):
            raise SimulationError(
                f"horizon_s must be a positive, finite number of seconds, got {horizon_s!r}"
            )
        if not isinstance(dense_ticks, bool):
            raise ConfigurationError(
                f"dense_ticks must be true or false, got {dense_ticks!r}"
            )
        if signals is not None and not isinstance(signals, OperatingSignals):
            raise ConfigurationError(
                "signals must be OperatingSignals or None, got "
                f"{type(signals).__name__} (build it with "
                "OperatingSignals.from_json_dict)"
            )
        self.system = system
        if isinstance(scheduler, PowerCapScheduler):
            # The wrapper enforces its own signals' cap; the stats must
            # record the same cap, price and carbon.
            if signals is None:
                signals = scheduler.signals
            elif signals != scheduler.signals:
                raise ConfigurationError(
                    "signals differ from those of the PowerCapScheduler "
                    "passed as the policy; pass them once"
                )
        self.signals = signals
        if isinstance(scheduler, Scheduler):
            self.scheduler = scheduler
        else:
            self.scheduler = get_scheduler(
                system.default_policy if scheduler is None else scheduler
            )
        if (
            signals is not None
            and signals.has_cap
            and not isinstance(self.scheduler, PowerCapScheduler)
        ):
            # A finite cap anywhere in the signals means power-aware
            # operation: wrap the chosen policy so its starts are admitted
            # against the active cap. Price/carbon-only signals leave the
            # policy untouched — they only weight the stats integrals.
            self.scheduler = PowerCapScheduler(self.scheduler, signals)
        self.scheduler.reset()
        self.resource_manager = ResourceManager(system, seed=seed)
        self.power_model = SystemPowerModel(system)
        #: Incremental system-power evaluation over the running set: each
        #: job's contribution is evaluated once at its start and again only
        #: when one of its profiles crosses a change point; membership
        #: changes come from the resource manager's allocate/release
        #: journal, O(changes). The running set is never rescanned per step.
        self.power_aggregator = RunningSetPowerAggregator(
            self.power_model, self.resource_manager
        )
        if isinstance(self.scheduler, PowerCapScheduler):
            self.scheduler.bind_power_model(self.power_model, self.resource_manager)
        self.cooling_plant = (
            CoolingPlant(system.cooling) if system.cooling is not None else None
        )
        self.stats = StatsCollector()
        self.seed = seed
        self.horizon_s = horizon_s
        self.dense_ticks = dense_ticks

        # Observability: unpack the bundle into per-instrument attributes so
        # the disabled path is a single ``is None`` check per phase. The
        # per-phase wall histograms exist only when both tracer and metrics
        # are on (the tracer is the timing source).
        self.obs = obs
        self._tracer = obs.tracer if obs is not None else None
        self._metrics = obs.metrics if obs is not None else None
        self._events = obs.events if obs is not None else None
        self._progress = obs.progress if obs is not None else None
        self._metrics_published = False
        self._queue_gauge = (
            self._metrics.gauge(
                "engine_queue_depth", "jobs waiting in the scheduler queue"
            )
            if self._metrics is not None
            else None
        )
        self._phase_hists: dict[str, Histogram] | None = None
        if self._tracer is not None and self._metrics is not None:
            self._phase_hists = {
                name: self._metrics.histogram(
                    f"engine_phase_{name}_us", f"wall time of the {name} phase, µs"
                )
                for name in ENGINE_PHASES
            }

        #: The run table: one record per input job, keyed by job id.
        self.runs = [JobRun(job) for job in jobs]
        self._run_of: dict[int, JobRun] = {}
        for run in self.runs:
            if self._run_of.setdefault(run.job_id, run) is not run:
                raise SimulationError(f"job id {run.job_id} appears more than once")
        self._pending: deque[Job] = deque(
            sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
        )
        #: Queued jobs in submission order, the read-only view policies see.
        self._queue: list[Job] = []
        #: Bumped on every submission into and removal from the queue.
        self._queue_version = 0
        #: The last policy pass and the (epoch, queue version) it answered;
        #: clearing the key makes the next step ask the policy again.
        self._pass = SchedulePass(starts=[], valid_until=None)
        self._pass_key: tuple[int, int] | None = None
        #: Steps that reused the last pass instead of calling the policy.
        self._pass_memo_hits = 0
        #: The signal values ``(cap_kw, price_per_kwh, carbon_kg_per_kwh)``
        #: held until ``_signal_until``, the next signal change: read once
        #: per signal segment (:meth:`_read_signals`). Without signals they
        #: hold for ever.
        self._signal_values = (math.inf, 0.0, 0.0)
        self._signal_until = math.inf if signals is None else -math.inf
        self._in_service_nodes = (
            self.resource_manager.total_nodes - self.resource_manager.down_nodes
        )

        timestep = float(system.timestep_s)
        if self._pending:
            first_submit = self._pending[0].submit_time
            self.now = timestep * (first_submit // timestep)
        else:
            self.now = 0.0
        self._start_time = self.now
        #: Where the run is cut: the one horizon test of ``run``, ``step``
        #: and coalescing, infinite without a horizon.
        self._horizon_end = (
            self.now + horizon_s if horizon_s is not None else math.inf
        )
        # Loop guard: even a fully serialised (one-job-at-a-time) schedule
        # fits inside the sum of runtimes after the last job has become
        # startable. "Startable" must use the recorded start times, not just
        # submit times — replay legitimately idles until each recorded start.
        # Jobs run for their recorded duration even past the wall-time limit
        # (SWF traces routinely contain run_time > requested_time), hence
        # the max() over the two runtime notions.
        latest_due = max(
            (max(j.submit_time, j.start_time) for j in jobs), default=0.0
        )
        worst_case_s = (
            (latest_due - self.now)
            + sum(max(j.requested_runtime, j.duration) for j in jobs)
            + timestep
        )
        if signals is not None:
            # A demand-response window can hold every queued job until the
            # cap lifts, pushing the serialised schedule past the job-only
            # worst case by at most the span of the signal definition.
            worst_case_s += signals.last_change_s
        self._max_ticks = int(worst_case_s / timestep) + 1000

    # -- state queries ---------------------------------------------------------

    @property
    def queued_jobs(self) -> list[Job]:
        """The current scheduler queue (submission order)."""
        return list(self._queue)

    @property
    def finished(self) -> bool:
        """True once every job has completed or been dismissed (O(1))."""
        return (
            not self._pending
            and not self._queue
            and not self.resource_manager.running_by_id
        )

    # -- engine loop -----------------------------------------------------------

    def step(self) -> None:
        """Advance one step: release, submit, schedule, power, cooling, stats.

        A step normally covers one ``timestep_s`` tick; in event-driven mode
        (the default) it may cover many grid ticks at once when nothing can
        change before the next event — see :meth:`_coalesced_dt`.

        When a span tracer is configured the step is carved into the
        :data:`ENGINE_PHASES` spans — ``schedule`` (releases, submissions
        and policy decisions), ``coalesce``, ``power``, ``cooling`` and
        ``stats``; with no tracer the only instrumentation residue is one
        ``is None`` check per phase.
        """
        now = self.now
        timestep = float(self.system.timestep_s)
        tracer = self._tracer
        events = self._events
        t0 = perf_counter_ns() if tracer is not None else 0

        # (1) Release jobs whose simulated runtime has elapsed.
        for run in self.resource_manager.complete_finished_jobs(now):
            self.stats.record_job(run)
            if events is not None:
                events.job_finished(run, now, energy_kwh=self._job_energy_kwh(run))

        # (2) Submit newly-arrived jobs (at their recorded submit times).
        while self._pending and self._pending[0].submit_time <= now:
            job = self._pending.popleft()
            run = self._run_of[job.job_id]
            if self._impossible(job):
                self._dismiss(run, "request exceeds system capacity", now)
                continue
            run.mark_queued()
            self._queue.append(job)
            self._queue_version += 1
            if events is not None:
                events.job_submitted(run, now)

        # (3) One policy pass, executed through the resource manager — or
        # the last pass again while it stands. The queue is handed over
        # as-is (policies treat it read-only).
        if self._queue:
            key = (self.resource_manager.epoch, self._queue_version)
            stands_until = self._pass.stands_until
            if key == self._pass_key and (stands_until is None or now < stands_until):
                # Executing a pass's starts or dismissals moves the key, so
                # a reused pass has neither.
                self._pass_memo_hits += 1
            else:
                self._pass_key = key
                self._pass = self.scheduler.schedule(
                    self._queue, self.resource_manager, now
                )
                self._execute(self._pass, now)
        if tracer is not None:
            t0 = self._mark("schedule", t0)

        # The signal segment that holds ``now``, read once per segment: its
        # values go into the stats record and its end bounds coalescing.
        if now >= self._signal_until:
            self._read_signals(now)

        # (3b) Event-driven coalescing: how much simulated time this sample
        # stands for. Stays one tick in dense mode or whenever anything can
        # change before the next event. Only the running-set *size* is
        # needed from here on — materialising (and sorting) the job list
        # every step would reintroduce an O(R log R) pass.
        running_count = len(self.resource_manager.running_by_id)
        if self.dense_ticks:
            dt_s = timestep
        else:
            dt_s = self._coalesced_dt(now, timestep)
        # A sample never extends past the horizon: the run is cut there, so
        # integrating energy (or stepping the cooling plant) over the rest
        # of the tick would credit time the window never contained. A
        # clamped step ends exactly on it. Applies identically in dense and
        # event-driven mode, keeping them equal.
        next_now = now + dt_s
        if now < self._horizon_end < next_now:
            next_now = self._horizon_end
            dt_s = next_now - now
        if tracer is not None:
            t0 = self._mark("coalesce", t0)

        # (4) Power on the running set, (5) cooling on the resulting heat.
        # Node counts come from the resource manager's O(1) counters; the
        # power aggregator reuses cached per-job contributions, so the power
        # evaluation of an event-free step is O(1) — profile lookups and
        # model evaluations never rescan the running set — and it returns
        # the same sample object until a start, an end or a profile crossing
        # moves it. Cooling power and PUE depend on that load alone, so the
        # plant evaluates them only when the load moves and otherwise just
        # relaxes its loop temperatures. The release check and event bounds
        # are heap-backed too, and the run loop's ``finished`` check is
        # O(1), so an event-free step is O(log R) end to end.
        allocated = self.resource_manager.allocated_nodes
        power = self.power_aggregator.sample(now)
        compute_kw = power.compute_power_kw
        loss_kw = power.loss_kw
        if tracer is not None:
            t0 = self._mark("power", t0)
        if self.cooling_plant is not None:
            cooling_kw, pue = self.cooling_plant.step(now, compute_kw, loss_kw, dt_s)
            if tracer is not None:
                t0 = self._mark("cooling", t0)
        else:
            # No cooling model coupled: PUE floor from conversion losses only.
            cooling_kw = 0.0
            pue = power_usage_effectiveness(compute_kw, loss_kw)

        # (6) Statistics. Every coalesced interval is bounded by the signals'
        # next change (see _coalesced_dt), so the values held at ``now`` are
        # exact over dt_s; the power, cooling power and PUE recorded are the
        # step's held load and its load-only functions.
        power_cap_kw, price_per_kwh, carbon_kg_per_kwh = self._signal_values
        queue = self._queue
        self.stats.record_tick(
            now,
            dt_s,
            compute_power_kw=compute_kw,
            loss_kw=loss_kw,
            cooling_kw=cooling_kw,
            pue=pue,
            allocated_nodes=allocated,
            utilization=(
                allocated / self._in_service_nodes if self._in_service_nodes else 0.0
            ),
            running_jobs=running_count,
            queued_jobs=len(queue),
            mean_cpu_util=power.mean_cpu_util,
            mean_gpu_util=power.mean_gpu_util,
            price_per_kwh=price_per_kwh,
            carbon_kg_per_kwh=carbon_kg_per_kwh,
            power_cap_kw=power_cap_kw,
            cap_held_jobs=self._pass.held if queue else 0,
        )
        if tracer is not None:
            self._mark("stats", t0)
        if self._queue_gauge is not None:
            self._queue_gauge.set(float(len(queue)))
        self.now = next_now

    def run(self) -> SimulationResult:
        """Run to completion (all jobs finished, or the horizon reached).

        The run is over when every job has left the system, or when the
        clock has reached the horizon — then the run is cut there (see
        :meth:`_stop_at_horizon`). The step count guards against a policy
        that never drains the workload.
        """
        events = self._events
        progress = self._progress
        run_t0 = perf_counter_ns() if self._tracer is not None else 0
        if events is not None:
            events.milestone(
                "run_started",
                self._start_time,
                system=self.system.name,
                policy=self.scheduler.name,
                jobs=len(self.runs),
                seed=self.seed,
                horizon_s=self.horizon_s,
            )
        if progress is not None:
            progress.start()
        ticks = 0
        while not self.finished:
            if self.now >= self._horizon_end:
                self._stop_at_horizon()
                break
            if ticks >= self._max_ticks:
                raise SimulationError(
                    f"engine exceeded {self._max_ticks} ticks without draining "
                    f"the workload (policy {self.scheduler.name!r} stuck?)"
                )
            self.step()
            ticks += 1
            if progress is not None and progress.due():
                progress.report(self)
        result = SimulationResult(
            system=self.system,
            policy=self.scheduler.name,
            stats=self.stats,
            jobs=self.runs,
            start_time_s=self._start_time,
            end_time_s=self.now,
            seed=self.seed,
        )
        if self.obs is not None:
            self._finalize_obs(result, run_t0)
        return result

    def _execute(self, schedule_pass: SchedulePass, now: float) -> None:
        """Start, then dismiss, the jobs a pass names; they leave the queue.

        Every named job must be queued: a job named twice, or a start or
        dismissal of a job that is running or has left the system, is a
        :class:`SchedulingError` naming the policy. So is a start time
        before the job's submission, after ``now`` or at or before the
        previous grid tick: only a start inside the current tick, such as
        replay's recorded one, may be backdated.
        """
        events = self._events
        removed: set[int] = set()
        timestep = float(self.system.timestep_s)
        for decision in schedule_pass.starts:
            run = self._queued_run(decision.job, "started")
            start = decision.start_time
            if start is None:
                start = now
            elif not (run.job.submit_time <= start <= now and start > now - timestep):
                raise SchedulingError(
                    f"policy {self.scheduler.name!r} started job {run.job_id} at "
                    f"t={start!r}; at t={now!r} a start must lie in (t - {timestep:g}, t] "
                    f"and not before its submission at t={run.job.submit_time!r}"
                )
            try:
                self.resource_manager.allocate(
                    run,
                    start,
                    node_ids=decision.node_ids,
                    exact_placement=decision.exact_placement,
                )
            except AllocationError as exc:
                raise SchedulingError(
                    f"policy {self.scheduler.name!r} produced an invalid "
                    f"placement at t={now:.0f}: {exc}"
                ) from exc
            run.replay_delayed = decision.replay_delayed
            run.replay_relocated = decision.replay_relocated
            removed.add(run.job_id)
            if events is not None:
                events.job_started(run, now)
        # Jobs the policy rejected outright (a power cap they can never fit
        # under) leave the queue here, like capacity-infeasible submissions.
        for job, reason in schedule_pass.dismissals:
            run = self._queued_run(job, "dismissed")
            self._dismiss(run, reason, now)
            removed.add(run.job_id)
        if removed:
            self._queue = [j for j in self._queue if j.job_id not in removed]
            self._queue_version += 1

    def _queued_run(self, job: Job, action: str) -> JobRun:
        """The run of a job a pass names, which must be queued; each start
        or dismissal leaves QUEUED, so a second naming fails here too."""
        run = self._run_of.get(job.job_id)
        if run is None or run.state is not JobState.QUEUED:
            raise SchedulingError(
                f"policy {self.scheduler.name!r} {action} job {job.job_id} "
                "which is not queued"
            )
        return run

    def _stop_at_horizon(self) -> None:
        """Dismiss what has not started and truncate what runs at the horizon.

        Jobs still on nodes are truncated at the horizon so every job ends
        the run completed or dismissed (their partial node-hours and waits
        stay in the statistics), at the horizon itself, where the clock
        ends: the step that crosses it is clamped to end there. A job whose
        natural end falls inside that final partial step ends at its own
        end time and is not flagged as truncated.
        """
        events = self._events
        if events is not None:
            events.milestone("horizon_reached", self.now)
        self._dismiss_remaining("simulation horizon reached")
        for run in self.resource_manager.running_jobs:
            start = run.sim_start_time if run.sim_start_time is not None else self.now
            natural_end = start + run.job.duration
            end = min(self._horizon_end, natural_end)
            run.truncated_by_horizon = end < natural_end
            self.resource_manager.release(run, end)
            self.stats.record_job(run)
            if events is not None:
                events.job_finished(run, end, energy_kwh=self._job_energy_kwh(run))

    # -- event-driven time advancement -----------------------------------------

    @hot_path
    def _coalesced_dt(self, now: float, timestep: float) -> float:
        """Simulated time the current sample may stand for (a tick multiple).

        The engine may jump over grid ticks on which a dense run would
        provably do nothing: no release (all running ends lie at or past the
        next event), no submission (first pending submit likewise), no
        policy action (the current pass's ``valid_until`` either vetoes at
        ``now``, names a future time, or is ``None``; with the queue empty
        it is ignored) and no horizon crossing. A running job with a
        time-varying profile does not veto coalescing — it bounds the
        interval by its next profile *value change* (repeated equal samples
        are not breakpoints), since every skipped grid tick up to that point
        provably samples the same power as the recorded one.

        The running-set bounds are O(log R): the earliest job end comes from
        the resource manager's end-time heap
        (:meth:`~repro.cluster.ResourceManager.next_job_end`) and the
        earliest profile breakpoint from the power aggregator's change heap
        (:meth:`~repro.power.RunningSetPowerAggregator.next_breakpoint_after`)
        — both maintain the exact per-job times a per-job scan would
        re-derive, so the chosen interval is float-identical to one.

        Returns ``k * timestep`` where ``now + k * timestep`` is the first
        grid tick that processes the next event — exactly the tick a dense
        run would next act on (including the tick that first sees a profile
        breakpoint, which may itself lie off-grid for replay-backdated
        starts).
        """
        hint = self._pass.valid_until if self._queue else None
        if hint is not None and hint <= now:
            return timestep
        events: list[float] = []
        if hint is not None:
            events.append(hint)
        if self._signal_until < math.inf:
            # Signal steps are breakpoints of their own: the cap gates
            # admission and the price/carbon/cap values weight the stats
            # integrals, so a sample must never straddle a change point.
            events.append(self._signal_until)
        if self._pending:
            events.append(self._pending[0].submit_time)
        next_end = self.resource_manager.next_job_end()
        if next_end is not None:
            events.append(next_end)
        next_change = self.power_aggregator.next_breakpoint_after(now)
        if next_change is not None:
            events.append(next_change)
        if not events:
            # Nothing queued, pending or running: this is the final sample
            # and the run ends at the next tick — jumping to a far-away
            # horizon here would pad the record with idle time a dense run
            # never integrates.
            return timestep
        events.append(self._horizon_end)
        t_next = min(events)
        k = int(math.ceil((t_next - now) / timestep))
        # Guard against float overshoot: every skipped grid tick must fall
        # strictly before the next event, or a dense run would have acted
        # on it first. (Undershoot is harmless — it merely records an extra
        # identical sample.)
        while k > 1 and now + (k - 1) * timestep >= t_next:
            k -= 1
        return max(1, k) * timestep

    # -- helpers ---------------------------------------------------------------

    def _read_signals(self, now: float) -> None:
        """Read the signal segment that holds ``now``: its values and the
        next change, where the next read is due (``inf`` after the last)."""
        signals = self.signals
        assert signals is not None  # without signals no read is ever due
        self._signal_values = signals.values_at(now)
        change = signals.next_change_after(now)
        self._signal_until = math.inf if change is None else change

    def _impossible(self, job: Job) -> bool:
        """Whether the job's request can never be satisfied on this system:
        it exceeds the in-service nodes of the partition it runs in."""
        rm = self.resource_manager
        return job.nodes_required > rm.partition_capacity(rm.partition_of(job))

    def _dismiss(self, run: JobRun, reason: str, now: float) -> None:
        """Dismiss one job that will never run, with the reason why."""
        run.mark_dismissed(reason)
        self.stats.record_job(run)
        if self._events is not None:
            self._events.job_dismissed(run, now)

    def _dismiss_remaining(self, reason: str) -> None:
        """Dismiss everything not yet running when the run is cut short."""
        for job in list(self._pending) + self._queue:
            self._dismiss(self._run_of[job.job_id], reason, self.now)
        self._pending.clear()
        self._queue.clear()

    # -- observability ---------------------------------------------------------

    def _mark(self, name: str, t0_ns: int) -> int:
        """Close one phase span (and feed its wall histogram when kept)."""
        assert self._tracer is not None  # callers gate every phase on the tracer
        end_ns = self._tracer.add(name, t0_ns)
        hists = self._phase_hists
        if hists is not None:
            hists[name].observe((end_ns - t0_ns) / 1e3)
        return end_ns

    def _job_energy_kwh(self, run: JobRun) -> float:
        """Energy attribution for one finished job's event record, kWh.

        Integrates the job's recorded power trace (or the component model
        over its utilization profiles) across its *recorded* duration —
        for horizon-truncated jobs this is the recorded-schedule estimate,
        not the truncated-sim share.
        """
        return self.power_model.job_energy_j(run.job) / 3.6e6

    def _finalize_obs(self, result: SimulationResult, run_t0_ns: int) -> None:
        """Close the run span, publish metrics, emit the final events."""
        if self._tracer is not None:
            self._tracer.add("run", run_t0_ns)
        if self._metrics is not None and not self._metrics_published:
            self._metrics_published = True
            self._publish_metrics()
        if self._events is not None:
            summary = result.summary()
            self._events.milestone(
                "run_finished",
                self.now,
                jobs_completed=int(summary["jobs_completed"]),
                jobs_dismissed=int(summary["jobs_dismissed"]),
                steps=int(summary["ticks"]),
                simulated_s=summary["simulated_s"],
                total_energy_kwh=summary["total_energy_kwh"],
                mean_pue=summary["mean_pue"],
            )
        if self._progress is not None:
            self._progress.report(self, final=True)

    def _publish_metrics(self) -> None:
        """Publish the components' plain-int counters into the registry.

        Components (resource manager, power aggregator, scheduler, stats
        collector) never touch the registry on the hot path — they keep
        cheap integer attributes which are folded in here, once per run.
        """
        metrics = self._metrics
        assert metrics is not None  # _finalize_obs gates on self._metrics
        stats = self.stats
        steps = len(stats.ticks)
        timestep = float(self.system.timestep_s)
        metrics.counter(
            "engine_steps_total", "engine steps (recorded samples)"
        ).inc(steps)
        grid_ticks = int(round(stats.elapsed_s / timestep)) if timestep else 0
        metrics.counter(
            "engine_grid_ticks_coalesced_total",
            "grid ticks skipped by event-driven coalescing",
        ).inc(max(0, grid_ticks - steps))
        metrics.counter(
            "engine_jobs_completed_total", "jobs that ran to completion"
        ).inc(len(stats.completed_jobs))
        metrics.counter(
            "engine_jobs_dismissed_total", "jobs dismissed (infeasible/horizon)"
        ).inc(len(stats.dismissed_jobs))
        metrics.gauge("engine_sim_time_s", "simulated span covered").set(
            self.now - self._start_time
        )
        if steps:
            metrics.gauge(
                "engine_running_jobs_peak", "maximum concurrently running jobs"
            ).set(float(stats.column("running_jobs").max()))
        for name, value in self.resource_manager.observability_counters().items():
            metrics.counter(f"rm_{name}_total").inc(value)
        for name, value in self.power_aggregator.observability_counters().items():
            metrics.counter(f"power_{name}_total").inc(value)
        metrics.counter(
            "engine_pass_memo_hits_total",
            "steps that reused the last scheduling pass without calling the policy",
        ).inc(self._pass_memo_hits)
        for name, value in self.scheduler.observability_counters().items():
            metrics.counter(f"sched_{name}_total").inc(value)
        metrics.counter(
            "stats_column_growths_total", "columnar store reallocations"
        ).inc(stats.column_growths)
        if self._events is not None:
            metrics.counter(
                "events_emitted_total", "structured run events emitted"
            ).inc(self._events.events_emitted)


def run_simulation(
    system: SystemConfig | str = "tiny",
    *,
    policy: str | Scheduler | None = None,
    duration: str | float = "24h",
    seed: int = 0,
    workload: list[Job] | None = None,
    spec: WorkloadSpec | None = None,
    horizon: str | float | None = None,
    dense_ticks: bool = False,
    signals: OperatingSignals | None = None,
    obs: Observability | None = None,
) -> SimulationResult:
    """Run one end-to-end simulation and return its result.

    The one build of a run, :func:`~repro.sweep.run_request`'s too —
    ``SyntheticWorkloadGenerator(config, spec, seed).generate(duration)``
    unless a ``workload`` is given, then one :class:`SimulationEngine` — and
    accepts live objects (a :class:`SystemConfig`, a :class:`Scheduler`
    instance, a job list) besides names. The engine checks every argument,
    so a bad one fails the same way whichever front end passed it.

    Parameters
    ----------
    system:
        Registered system name (``"tiny"``, ``"frontier"``, ...) or a
        :class:`SystemConfig`.
    policy:
        Scheduling policy name (``replay`` / ``fcfs`` / ``backfill``, or
        ``easy`` for ``backfill``) or a :class:`Scheduler` instance;
        defaults to the system's default.
    duration:
        Length of the synthesised workload window (``"6h"``, ``"24h"``,
        seconds). Ignored when ``workload`` is given.
    seed:
        Workload-generation and down-node seed; fixes the whole run.
    workload:
        Explicit job list (e.g. from :func:`repro.telemetry.read_swf`);
        bypasses the synthetic generator.
    spec:
        Workload specification for the synthetic generator; ``None`` means
        :func:`~repro.workloads.default_workload_spec` of the system.
    horizon:
        Optional hard stop for the engine (same formats as ``duration``).
    dense_ticks:
        Force one statistics sample per grid tick instead of event-driven
        coalescing. Summary metrics are identical either way.
    signals:
        Optional :class:`~repro.power.signals.OperatingSignals` — power
        cap, electricity price and carbon intensity step series. A finite
        cap wraps the policy in a
        :class:`~repro.engine.scheduler.PowerCapScheduler`.
    obs:
        Optional :class:`~repro.obs.Observability` bundle (tracer,
        metrics, event log, progress reporter); ``None`` (the default)
        runs fully uninstrumented.
    """
    seed = check_seed(seed)
    horizon_s = parse_duration(horizon) if horizon is not None else None
    config = system if isinstance(system, SystemConfig) else get_system_config(system)
    if workload is None:
        generator = SyntheticWorkloadGenerator(config, spec, seed=seed)
        workload = generator.generate(parse_duration(duration))
    engine = SimulationEngine(
        config,
        workload,
        policy,
        seed=seed,
        horizon_s=horizon_s,
        dense_ticks=dense_ticks,
        signals=signals,
        obs=obs,
    )
    # The engine holds its own run records, so a generated job list is
    # dropped before the run instead of adding to its peak memory.
    del workload
    return engine.run()
