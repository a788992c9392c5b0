"""System-level power aggregation.

Job power has one derivation, :func:`_power_grid`: the union change grid of
a job's power-relevant profiles with the node power held on each interval
(the recorded trace if available, otherwise the component model applied to
the utilization). Job power states, job energy and job peak power all read
it. At every simulation step the :class:`RunningSetPowerAggregator` sums the
running jobs' cached contributions, and :class:`SystemPowerModel` adds the
idle power of each partition's free nodes (:meth:`SystemPowerModel.idle_power_w`,
the one idle formula) and the conversion losses to obtain facility-side
power. The per-step result is a :class:`SystemPowerSample`
carrying the breakdown the statistics collector and cooling model consume.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from ..cluster.resource_manager import ResourceManager
from ..config import SystemConfig
from ..devtools import hot_path
from ..telemetry.job import Job, JobRun
from .losses import ConversionLossModel
from .node_power import NodePowerModel


class SystemPowerSample(NamedTuple):
    """Power state of the system at one simulation time.

    A named tuple rather than a frozen dataclass: the engine builds one
    every step, and a tuple costs about a third as much to build.
    """

    time_s: float
    #: IT (compute) power of busy nodes, kW.
    job_power_kw: float
    #: IT power of idle (unallocated, in-service) nodes, kW.
    idle_power_kw: float
    #: Conversion losses, kW.
    loss_kw: float
    #: Number of allocated nodes at sampling time.
    allocated_nodes: int
    #: Mean CPU / GPU utilization across allocated nodes (0 if none).
    mean_cpu_util: float
    mean_gpu_util: float

    @property
    def compute_power_kw(self) -> float:
        """Total IT power (busy + idle nodes), kW."""
        return self.job_power_kw + self.idle_power_kw

    @property
    def facility_power_kw(self) -> float:
        """Total power drawn from the facility feed (IT + losses), kW."""
        return self.compute_power_kw + self.loss_kw


class SystemPowerModel:
    """Aggregate job power into system power with conversion losses."""

    def __init__(self, system: SystemConfig) -> None:
        self.system = system
        self._node_models = {
            partition.name: NodePowerModel(partition.node_power)
            for partition in system.partitions
        }
        self._default_partition = system.partitions[0].name
        self.loss_model = ConversionLossModel(
            system.power_loss, peak_compute_power_kw=system.peak_system_power_kw
        )
        # Read by every per-step sample: hoisted out of the configuration.
        self._idle_w = tuple(partition.node_power.min_w for partition in system.partitions)

    # -- per-job power ------------------------------------------------------------

    def node_model(self, partition: str) -> NodePowerModel:
        """The node power model of ``partition``; an unregistered name gets
        the first partition's, where the resource manager runs such a job
        (:meth:`~repro.cluster.ResourceManager.partition_of`)."""
        return self._node_models.get(partition) or self._node_models[self._default_partition]

    def job_energy_j(self, job: Job) -> float:
        """Energy of a job over its recorded duration (joules).

        Integrates the node power the job holds on its union change grid
        (:func:`_power_grid`: the recorded trace when present, otherwise the
        component model applied to the utilization profiles) over
        ``[0, duration]``.
        """
        duration = job.duration
        if duration <= 0:
            return 0.0
        times, power_w, _, _ = _power_grid(job, self.node_model(job.partition))
        # The grid intervals that start before the job ends, the last one
        # cut at its end.
        end = bisect_left(times, duration)
        edges = [*times[1:end], duration]
        return math.fsum(
            power * (stop - start) for power, start, stop in zip(power_w, times, edges)
        ) * job.nodes_required

    def job_peak_power_w(self, job: Job) -> float:
        """Peak instantaneous power of one job (watts across all its nodes).

        The maximum of the node power a job power state holds on the
        union change grid of the job's power-relevant profiles (recorded
        trace when present, component model otherwise) —
        piecewise-constant profiles attain their peak on the grid, so this
        is an exact bound on the job's power at any time. The
        :class:`~repro.engine.scheduler.PowerCapScheduler` projects
        admissions against this peak, which is what makes its zero-violation
        guarantee hold for time-varying job power under a constant cap.
        """
        _, power_w, _, _ = _power_grid(job, self.node_model(job.partition))
        return max(power_w) * job.nodes_required

    # -- system power ---------------------------------------------------------------

    def idle_power_w(self, idle_nodes: Iterable[int]) -> float:
        """Idle IT power (watts) of ``idle_nodes``: each partition's count,
        in configuration order, at its partition's node idle draw.

        The one system idle formula: every sample counts the free
        in-service nodes with it, and the power-cap scheduler its floor,
        every in-service node.
        """
        idle_power_w = 0.0
        for nodes, min_w in zip(idle_nodes, self._idle_w):
            idle_power_w += nodes * min_w
        return idle_power_w

    def compose_sample(
        self,
        now: float,
        job_power_w: float,
        *,
        nodes_busy: int,
        cpu_weighted: float,
        gpu_weighted: float,
        free_nodes: Iterable[int],
    ) -> SystemPowerSample:
        """Build a :class:`SystemPowerSample` from aggregated job totals.

        Used by the incremental :class:`RunningSetPowerAggregator`: given
        the summed job power and node-weighted utilizations, add the idle
        power of the free in-service nodes (``free_nodes``: each
        partition's count, in configuration order; :meth:`idle_power_w`)
        and the conversion losses.
        """
        idle_power_w = self.idle_power_w(free_nodes)
        total_busy = max(1, nodes_busy)
        return SystemPowerSample(
            time_s=now,
            job_power_kw=job_power_w / 1000.0,
            idle_power_kw=idle_power_w / 1000.0,
            loss_kw=self.loss_model.total_loss_kw(
                (job_power_w + idle_power_w) / 1000.0
            ),
            allocated_nodes=nodes_busy,
            mean_cpu_util=cpu_weighted / total_busy if nodes_busy else 0.0,
            mean_gpu_util=gpu_weighted / total_busy if nodes_busy else 0.0,
        )


#: Summed change-grid length of a job's three power profiles up to which
#: its union grid is built point by point with the scalar model; above it,
#: in one numpy pass. The pass costs 20-30 µs at any short length, the
#: scalar side ~1 µs per union point, and the union is longest when the
#: grids share no time (then it is the summed length less two): there the
#: two cost the same at 36 points (2-vCPU x86 VM). Constant jobs (3
#: points) and 2-6-phase profiles (at most 18) sit below the cut, sampled
#: telemetry above it.
_SCALAR_MAX_POINTS = 36


def _power_grid(
    job: Job, model: NodePowerModel
) -> tuple[list[float], list[float], list[float], list[float]]:
    """``(times, power_w, cpu, gpu)`` of ``job`` on its union change grid.

    The one place profiles turn into job power. ``times`` is the sorted
    union of the change grids
    (:meth:`Profile.change_grid`) of the job's three power-relevant
    profiles; it starts at 0.0. On ``[times[i], times[i+1])`` the job holds
    node power ``power_w[i]`` (the recorded trace value, or the component
    model on the held utilizations) and CPU / GPU utilization ``cpu[i]`` /
    ``gpu[i]``. Both ways of filling the lists evaluate the same doubles:
    :meth:`NodePowerModel.power_array` equals :meth:`NodePowerModel.power`
    bit for bit.
    """
    first, second, third = job.power_profiles()
    times0, values0 = first.change_grid()
    times1, values1 = second.change_grid()
    times2, values2 = third.change_grid()
    if times0.size + times1.size + times2.size > _SCALAR_MAX_POINTS:
        union = np.unique(np.concatenate((times0, times1, times2)))
        arrays = [
            values
            if grid_times.size == union.size  # the grid is the union
            else values[np.searchsorted(grid_times, union, side="right") - 1]
            for grid_times, values in ((times0, values0), (times1, values1), (times2, values2))
        ]
        if job.node_power is None:
            arrays = [model.power_array(*arrays), arrays[0], arrays[1]]
        times = union.tolist()
        held0, held1, held2 = [array.tolist() for array in arrays]
        return times, held0, held1, held2
    grid0, grid1, grid2 = times0.tolist(), times1.tolist(), times2.tolist()
    times = grid0 if grid0 == grid1 == grid2 else sorted({*grid0, *grid1, *grid2})
    held0 = _held_on(times, grid0, values0.tolist())
    held1 = _held_on(times, grid1, values1.tolist())
    held2 = _held_on(times, grid2, values2.tolist())
    if job.node_power is not None:
        return times, held0, held1, held2
    return times, list(map(model.power, held0, held1, held2)), held0, held1


def _held_on(times: list[float], grid_times: list[float], values: list[float]) -> list[float]:
    """The values a change grid holds at each of ``times`` (its superset)."""
    if len(grid_times) == len(times):
        return values  # the grid is the union
    return [values[bisect_right(grid_times, t) - 1] for t in times]


class _JobPowerState:
    """Cached piecewise-constant power contribution of one running job.

    Holds the job's union change grid as Python float lists (see
    :func:`_power_grid`): the grid times and, per interval, the node power
    and the CPU / GPU utilization. Evaluating the job at an elapsed time is
    one ``bisect_right`` on the times, three list reads and the node-count
    weighting; a profile crossing costs no model call. The cached values
    equal a zero-order-hold lookup of each profile's change grid at the
    elapsed time, put through the node model and times the node count,
    exactly: the same IEEE operations on the same floats (the tests hold
    them to their scan reference with ``==``).
    """

    __slots__ = (
        "run",
        "start",
        "nodes",
        "times",
        "power_w",
        "cpu",
        "gpu",
        "next_change",
        "current_power_w",
        "current_cpu_weighted",
        "current_gpu_weighted",
    )

    def __init__(self, run: JobRun, model: NodePowerModel, now: float) -> None:
        job = run.job
        self.run = run
        self.start = run.sim_start_time if run.sim_start_time is not None else now
        self.nodes = job.nodes_required
        self.times, self.power_w, self.cpu, self.gpu = _power_grid(job, model)
        self.advance_to(now)

    @hot_path
    def advance_to(self, now: float) -> None:
        """Move the cached contribution to the values held at ``now``.

        Correct for any ``now``, earlier ones included (the tests advance
        states to random times), because it bisects the whole grid.
        """
        elapsed = now - self.start
        if elapsed < 0.0:
            elapsed = 0.0
        times = self.times
        index = bisect_right(times, elapsed)
        nodes = self.nodes
        self.current_power_w = self.power_w[index - 1] * nodes
        self.current_cpu_weighted = self.cpu[index - 1] * nodes
        self.current_gpu_weighted = self.gpu[index - 1] * nodes
        self.next_change = self.start + times[index] if index < len(times) else math.inf


def build_power_states(
    runs_models: Sequence[tuple[JobRun, NodePowerModel]], now: float
) -> list[_JobPowerState]:
    """The :class:`_JobPowerState` of each started ``(run, node model)`` at ``now``.

    The one place job power states are built: the aggregator builds every
    start through it, whether the job starts alone or with others.
    """
    return [_JobPowerState(run, model, now) for run, model in runs_models]


class RunningSetPowerAggregator:
    """Incrementally maintained system power over the running set.

    The engine asks it for a :class:`SystemPowerSample` every step. Instead
    of re-evaluating every running job's profiles and node-power model per
    step, it keeps per-job contributions cached (see :class:`_JobPowerState`)
    and recomputes only

    - jobs that started or ended since the last step: a moved
      :attr:`ResourceManager.epoch` says there are some, and the resource
      manager's change journal names them; every started job's state comes
      from :func:`build_power_states`;
    - jobs whose profile crossed a change point since the last step, tracked
      in a min-heap of upcoming change times.

    On an event-free stretch a step is O(1). The result equals a fresh scan
    of the running set up to float add/subtract associativity: the
    incremental totals can carry ~1e-15 residue while jobs are running, and
    are flushed to exact zeros whenever the running set drains. Dense and
    event-driven runs apply the exact same sequence of add/remove/update
    operations (membership changes and breakpoint crossings happen on the
    same grid ticks either way), so the two modes produce bit-identical
    power series.
    """

    def __init__(
        self, model: SystemPowerModel, resource_manager: ResourceManager
    ) -> None:
        self._model = model
        self._rm = resource_manager
        self._epoch: int | None = None
        self._states: dict[int, _JobPowerState] = {}
        self._changes: list[tuple[float, int]] = []  # (abs change time, job id)
        self._job_power_w = 0.0
        self._cpu_weighted = 0.0
        self._gpu_weighted = 0.0
        # Observability counters: plain ints on per-event paths, folded
        # into the engine's metrics registry at run finalisation.
        self.breakpoint_crossings = 0
        self.membership_syncs = 0
        self.states_built = 0

    @hot_path
    def sample(self, now: float) -> SystemPowerSample:
        """System power at ``now``, recomputing only what changed.

        The busy node count and each partition's free nodes, which idle
        power counts, are the resource manager's own counters.
        """
        self._refresh(now)
        return self._model.compose_sample(
            now,
            self._job_power_w,
            nodes_busy=self._rm.allocated_nodes,
            cpu_weighted=self._cpu_weighted,
            gpu_weighted=self._gpu_weighted,
            free_nodes=self._rm.partition_free_counts,
        )

    @hot_path
    def next_breakpoint_after(self, now: float) -> float | None:
        """Earliest upcoming profile change time on the running set, or ``None``.

        This is the stable event-bound API the engine's coalescing consumes:
        the minimum of the per-job ``next_change`` times the aggregator
        already maintains in its heap, so the query is ``O(log R)`` amortised
        (stale entries of ended jobs are discarded as they surface) instead
        of a per-job profile scan. The cached state is brought up to ``now``
        first — membership synced against the resource manager's epoch, due
        crossings applied — exactly as :meth:`sample` would, so calling this
        before :meth:`sample` within a step changes nothing but the moment
        the (idempotent) refresh happens. Every returned time is strictly
        after ``now`` and float-identical to the simulated start plus the
        earliest change point after the elapsed time among the running
        jobs' power-relevant profiles.
        """
        self._refresh(now)
        changes = self._changes
        while changes:
            change_time, job_id = changes[0]
            state = self._states.get(job_id)
            if state is None or state.next_change != change_time:
                heapq.heappop(changes)  # stale: job ended or entry superseded
                continue
            return change_time
        return None

    def observability_counters(self) -> dict[str, int]:
        """Plain-int instrumentation counters (engine metrics publication).

        Keys become ``power_<key>_total`` counters in the metrics registry.
        """
        return {
            "breakpoint_crossings": self.breakpoint_crossings,
            "membership_syncs": self.membership_syncs,
            "states_built": self.states_built,
        }

    # -- internals -----------------------------------------------------------

    @hot_path
    def _refresh(self, now: float) -> None:
        """Bring the cached state up to ``now`` (idempotent within a step):
        sync membership against the resource manager's epoch, then apply
        every profile crossing due at or before ``now``."""
        if self._rm.epoch != self._epoch:
            self._sync_membership(now)
            self._epoch = self._rm.epoch
        self._apply_due_changes(now)

    def _sync_membership(self, now: float) -> None:
        """Apply the running-set changes journalled since the last refresh.

        Drains the resource manager's allocate/release journal, whose one
        consumer is this aggregator, so the cost is O(changes) regardless
        of the running-set size.
        """
        self.membership_syncs += 1
        running = self._rm.running_by_id
        states = self._states
        # Net effect of the journal: a job that both started and ended
        # between refreshes never contributed to a sample and cancels out.
        # First-touch order preserves the chronological allocate/release
        # order for everything else.
        touched = dict.fromkeys(job_id for _, job_id in self._rm.drain_change_journal())
        for job_id in touched:
            if job_id in states and job_id not in running:
                state = states.pop(job_id)
                self._job_power_w -= state.current_power_w
                self._cpu_weighted -= state.current_cpu_weighted
                self._gpu_weighted -= state.current_gpu_weighted
                # Heap entries of ended jobs are discarded lazily.
        started_jobs = [
            running[job_id]
            for job_id in touched
            if job_id in running and job_id not in states
        ]
        if started_jobs:
            self.states_built += len(started_jobs)
            for state in self._build_states(started_jobs, now):
                job_id = state.run.job_id
                states[job_id] = state
                self._job_power_w += state.current_power_w
                self._cpu_weighted += state.current_cpu_weighted
                self._gpu_weighted += state.current_gpu_weighted
                if math.isfinite(state.next_change):
                    heapq.heappush(self._changes, (state.next_change, job_id))
        if not states:
            # Flush float residue so an idle system reports exactly zero job
            # power, not the leftovers of cancelled additions.
            self._job_power_w = 0.0
            self._cpu_weighted = 0.0
            self._gpu_weighted = 0.0

    def _build_states(
        self, started_jobs: list[JobRun], now: float
    ) -> list[_JobPowerState]:
        """The power states of jobs that just entered the running set."""
        return build_power_states(
            [(run, self._model.node_model(run.job.partition)) for run in started_jobs],
            now,
        )

    @hot_path
    def _apply_due_changes(self, now: float) -> None:
        """Refresh every cached contribution whose profile crossed a breakpoint."""
        changes = self._changes
        while changes and changes[0][0] <= now:
            change_time, job_id = heapq.heappop(changes)
            state = self._states.get(job_id)
            if state is None or state.next_change != change_time:
                continue  # stale entry: job ended or crossing already applied
            old_power = state.current_power_w
            old_cpu = state.current_cpu_weighted
            old_gpu = state.current_gpu_weighted
            state.advance_to(now)
            self.breakpoint_crossings += 1
            # Delta-update only the quantities that actually changed, so a
            # breakpoint in one profile does not churn the totals of the
            # others through float add/subtract round-trips.
            # Exact identity on purpose: "did advance_to change this
            # cached value at all" — a tolerance would skip genuine
            # sub-epsilon profile steps and desynchronise the running
            # totals from the per-state truth.
            if state.current_power_w != old_power:  # repro-lint: disable=float-compare
                self._job_power_w += state.current_power_w - old_power
            if state.current_cpu_weighted != old_cpu:
                self._cpu_weighted += state.current_cpu_weighted - old_cpu
            if state.current_gpu_weighted != old_gpu:
                self._gpu_weighted += state.current_gpu_weighted - old_gpu
            if math.isfinite(state.next_change):
                if state.next_change <= now:
                    # Float rounding can leave ``start + t <= now`` while the
                    # elapsed-time indexing (``now - start < t``) has not
                    # crossed the breakpoint yet — re-pushing the same time
                    # would pop it again immediately and spin this loop
                    # forever. Re-arm strictly after ``now`` so the crossing
                    # retries at the next sample; evaluation stays
                    # elapsed-based either way, matching the scan exactly.
                    state.next_change = math.nextafter(now, math.inf)
                heapq.heappush(changes, (state.next_change, job_id))
