"""System-level power aggregation.

At every simulation tick the engine hands the system power model the set of
running jobs; the model evaluates each job's power (recorded trace if
available, otherwise the component model applied to its utilization), adds
the idle power of unallocated nodes, and applies the conversion-loss model to
obtain facility-side power. The per-tick result is a
:class:`SystemPowerSample` carrying the breakdown the statistics collector
and cooling model consume.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..cluster.resource_manager import ResourceManager
from ..config import SystemConfig
from ..devtools import hot_path
from ..telemetry.job import Job, JobRun
from .losses import ConversionLossModel
from .node_power import NodePowerModel


@dataclass(frozen=True)
class SystemPowerSample:
    """Power state of the system at one simulation time."""

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

    # -- per-job power ------------------------------------------------------------

    def node_model(self, partition: str) -> NodePowerModel:
        """The node power model of ``partition`` (default partition fallback)."""
        return self._node_models.get(partition) or self._node_models[self._default_partition]

    def job_power_w(self, run: JobRun, now: float) -> float:
        """Total power of one running job (watts across all its nodes)."""
        job = run.job
        recorded = run.recorded_power_at(now)
        if recorded is not None:
            return recorded * job.nodes_required
        cpu, gpu, mem = run.utilization_at(now)
        model = self.node_model(job.partition)
        return float(model.power(cpu, gpu, mem)) * job.nodes_required

    def job_energy_j(self, job: Job) -> float:
        """Energy of a job over its recorded duration (joules).

        Integrates the recorded power trace when present, otherwise the
        component model applied to the utilization profiles on the union of
        their sample grids.
        """
        duration = job.duration
        if duration <= 0:
            return 0.0
        if job.node_power is not None:
            return job.node_power.integral(duration) * job.nodes_required
        model = self.node_model(job.partition)
        times = np.unique(
            np.concatenate([job.cpu_util.times, job.gpu_util.times, job.mem_util.times, [0.0]])
        )
        times = times[times <= duration]
        cpu = job.cpu_util.values_at(times)
        gpu = job.gpu_util.values_at(times)
        mem = job.mem_util.values_at(times)
        watts = np.asarray(model.power(cpu, gpu, mem), dtype=float)
        edges = np.concatenate([times, [duration]])
        widths = np.diff(edges)
        return float(np.sum(watts * widths)) * job.nodes_required

    def job_peak_power_w(self, job: Job) -> float:
        """Peak instantaneous power of one job (watts across all its nodes).

        Evaluated on the union change-point grid of the job's
        power-relevant profiles (recorded trace when present, component
        model otherwise) — piecewise-constant profiles attain their peak
        on the grid, so this is an exact bound on
        :meth:`job_power_w` at any time. The
        :class:`~repro.engine.scheduler.PowerCapScheduler` projects
        admissions against this peak, which is what makes its zero-violation
        guarantee hold for time-varying job power under a constant cap.
        """
        times = _union_grid(job)
        if job.node_power is not None:
            watts = job.node_power.values_at(times)
        else:
            model = self.node_model(job.partition)
            cpu = job.cpu_util.values_at(times)
            gpu = job.gpu_util.values_at(times)
            mem = job.mem_util.values_at(times)
            watts = np.asarray(model.power(cpu, gpu, mem), dtype=float)
        return float(np.max(watts)) * job.nodes_required

    def node_idle_power_w(self, partition: str) -> float:
        """Idle draw of one in-service node of ``partition`` (watts)."""
        partition_config = next(
            (p for p in self.system.partitions if p.name == partition),
            self.system.partitions[0],
        )
        return float(partition_config.node_power.min_w)

    def idle_floor_kw(self) -> float:
        """IT power of the whole system sitting idle (every node at min), kW.

        A conservative floor for cap projections: actual idle power is
        lower whenever nodes are allocated (their idle share moves into job
        power) or down.
        """
        idle_w = sum(
            partition.node_count * partition.node_power.min_w
            for partition in self.system.partitions
        )
        return idle_w / 1000.0

    # -- system power ---------------------------------------------------------------

    def sample(
        self,
        now: float,
        running_jobs: Sequence[JobRun] | Iterable[JobRun],
        *,
        allocated_nodes: int | None = None,
        down_nodes: int = 0,
    ) -> SystemPowerSample:
        """Evaluate system power at time ``now`` by scanning the running jobs.

        This is the straightforward O(running jobs) evaluation; the engine
        uses :class:`RunningSetPowerAggregator` instead, which reuses cached
        per-job contributions between profile breakpoints and produces the
        same numbers up to floating-point associativity.
        """
        job_power_w = 0.0
        cpu_weighted = 0.0
        gpu_weighted = 0.0
        nodes_busy = 0
        for run in running_jobs:
            nodes = run.job.nodes_required
            job_power_w += self.job_power_w(run, now)
            cpu, gpu, _ = run.utilization_at(now)
            cpu_weighted += cpu * nodes
            gpu_weighted += gpu * nodes
            nodes_busy += nodes
        return self.compose_sample(
            now,
            job_power_w,
            nodes_busy=nodes_busy,
            cpu_weighted=cpu_weighted,
            gpu_weighted=gpu_weighted,
            allocated_nodes=allocated_nodes,
            down_nodes=down_nodes,
        )

    def compose_sample(
        self,
        now: float,
        job_power_w: float,
        *,
        nodes_busy: int,
        cpu_weighted: float,
        gpu_weighted: float,
        allocated_nodes: int | None = None,
        down_nodes: int = 0,
    ) -> SystemPowerSample:
        """Build a :class:`SystemPowerSample` from aggregated job totals.

        Shared by the scanning :meth:`sample` and the incremental
        :class:`RunningSetPowerAggregator`: given the summed job power and
        node-weighted utilizations, add the idle power of unallocated nodes
        and the conversion losses.
        """
        if allocated_nodes is None:
            allocated_nodes = nodes_busy

        idle_nodes = max(0, self.system.total_nodes - allocated_nodes - down_nodes)
        idle_power_w = 0.0
        remaining_idle = idle_nodes
        # Idle power accounted per partition, assuming busy nodes are drawn
        # from partitions in configuration order (sufficient for the
        # single-partition systems of the paper; multi-partition splits are
        # approximate).
        busy_remaining = allocated_nodes
        for partition in self.system.partitions:
            busy_here = min(busy_remaining, partition.node_count)
            busy_remaining -= busy_here
            idle_here = min(remaining_idle, partition.node_count - busy_here)
            remaining_idle -= idle_here
            idle_power_w += idle_here * partition.node_power.min_w

        total_busy = max(1, nodes_busy)
        return SystemPowerSample(
            time_s=now,
            job_power_kw=job_power_w / 1000.0,
            idle_power_kw=idle_power_w / 1000.0,
            loss_kw=self.loss_model.total_loss_kw(
                (job_power_w + idle_power_w) / 1000.0
            ),
            allocated_nodes=allocated_nodes,
            mean_cpu_util=cpu_weighted / total_busy if nodes_busy else 0.0,
            mean_gpu_util=gpu_weighted / total_busy if nodes_busy else 0.0,
        )


class _JobPowerState:
    """Cached piecewise-constant power contribution of one running job.

    Built once when the job enters the running set: the job's power-relevant
    profiles are merged onto the union of their change-point grids and the
    per-node model (or recorded power trace) is evaluated on that grid in one
    vectorised call. Afterwards, sampling the job at any time is a
    ``searchsorted`` into the grid instead of three profile lookups plus a
    scalar model evaluation — and between change points nothing needs to be
    recomputed at all.
    """

    __slots__ = (
        "run",
        "start",
        "times",
        "power_w",
        "cpu_weighted",
        "gpu_weighted",
        "next_change",
        "current_power_w",
        "current_cpu_weighted",
        "current_gpu_weighted",
    )

    def __init__(
        self,
        run: JobRun,
        times: np.ndarray,
        power_w: np.ndarray,
        cpu_weighted: np.ndarray,
        gpu_weighted: np.ndarray,
        now: float,
    ) -> None:
        self.run = run
        self.start = run.sim_start_time if run.sim_start_time is not None else now
        self.times = times
        self.power_w = power_w
        self.cpu_weighted = cpu_weighted
        self.gpu_weighted = gpu_weighted
        self.next_change = math.inf
        self.current_power_w = 0.0
        self.current_cpu_weighted = 0.0
        self.current_gpu_weighted = 0.0
        self.advance_to(now)

    @classmethod
    def for_job(cls, run: JobRun, model: NodePowerModel, now: float) -> "_JobPowerState":
        """Per-job construction: one profile/model evaluation per job.

        The aggregator takes this path for a job that starts alone, where
        it costs about half a one-job :func:`build_power_states` call. The
        batched builder must produce bit-identical grids and powers, and
        the property tests hold the two to exactly that.
        """
        job = run.job
        nodes = job.nodes_required
        times = _union_grid(job)
        cpu_values = job.cpu_util.values_at(times)
        gpu_values = job.gpu_util.values_at(times)
        if job.node_power is not None:
            watts = job.node_power.values_at(times) * nodes
        else:
            mem_values = job.mem_util.values_at(times)
            watts = (
                np.asarray(model.power(cpu_values, gpu_values, mem_values), dtype=float)
                * nodes
            )
        return cls(run, times, watts, cpu_values * nodes, gpu_values * nodes, now)

    def advance_to(self, now: float) -> None:
        """Move the cached contribution to the grid interval containing ``now``."""
        elapsed = now - self.start
        if elapsed < 0.0:
            elapsed = 0.0
        times = self.times
        index = int(np.searchsorted(times, elapsed, side="right")) - 1
        if index < 0:
            index = 0
        self.current_power_w = float(self.power_w[index])
        self.current_cpu_weighted = float(self.cpu_weighted[index])
        self.current_gpu_weighted = float(self.gpu_weighted[index])
        if index + 1 < times.size:
            self.next_change = self.start + float(times[index + 1])
        else:
            self.next_change = math.inf


def _union_grid(job: Job) -> np.ndarray:
    """Union of the change-point grids of a job's power-relevant profiles."""
    grids = [profile.change_grid()[0] for profile in job.power_profiles()]
    if all(grid.size == 1 for grid in grids):
        # All profiles constant: every grid is exactly [0.0], so the
        # union is too — skip the concatenate/unique round-trip, which
        # dominates state construction on summary-only (scalar
        # telemetry) workloads at frontier scale.
        return grids[0]
    return np.unique(np.concatenate(grids))


#: Segment roles of a job's ``power_profiles()`` tuple: with a recorded
#: power trace the tuple is (node_power, cpu, gpu), otherwise (cpu, gpu, mem).
_ROLE_POWER, _ROLE_CPU, _ROLE_GPU, _ROLE_MEM = 0, 1, 2, 3
_ROLES_TRACE = (_ROLE_POWER, _ROLE_CPU, _ROLE_GPU)
_ROLES_MODEL = (_ROLE_CPU, _ROLE_GPU, _ROLE_MEM)


def build_power_states(
    runs_models: Sequence[tuple[JobRun, NodePowerModel]], now: float
) -> list[_JobPowerState]:
    """Construct the :class:`_JobPowerState` of ``k`` started jobs in one pass.

    The whole batch is processed in *integer rank space*: one global
    ``np.unique`` over every job's change-point grids yields the distinct
    times and each point's rank; per-job grid unions, zero-order-hold value
    lookups (a single segmented ``searchsorted`` — segments kept disjoint
    by integer key offsets, which unlike float offsets are exact), the
    :class:`NodePowerModel` evaluation (once per distinct model per
    refresh, not per job), the node-count weighting, and the initial
    ``advance_to(now)`` positioning are each **one** vectorised pass over
    the concatenation; the per-job arrays are then sliced back as views.
    Every resulting array and cached scalar is bit-identical to
    :meth:`_JobPowerState.for_job` (the same IEEE operations applied
    element-wise; rank arithmetic is exact), so the batched and per-job
    paths are interchangeable, and the property tests hold the two to bit
    equality.
    """
    count = len(runs_models)
    if count == 0:
        return []

    # -- collect the per-profile change grids (cached on each Profile) -------
    seg_times: list[np.ndarray] = []      # per segment: change-grid times
    seg_values: list[np.ndarray] = []     # per segment: change-grid values
    seg_role: list[int] = []              # per segment: _ROLE_* label
    seg_job: list[int] = []               # per segment: owning job index
    trace_job_indices: list[int] = []
    #: id(model) -> (model, job indices) for component-model jobs.
    model_groups: dict[int, tuple[NodePowerModel, list[int]]] = {}
    for index, (run, model) in enumerate(runs_models):
        job = run.job
        roles = _ROLES_MODEL
        if job.node_power is not None:
            roles = _ROLES_TRACE
            trace_job_indices.append(index)
        else:
            group = model_groups.get(id(model))
            if group is None:
                model_groups[id(model)] = group = (model, [])
            group[1].append(index)
        for role, profile in zip(roles, job.power_profiles()):
            grid_times, grid_values = profile.change_grid()
            seg_times.append(grid_times)
            seg_values.append(grid_values)
            seg_role.append(role)
            seg_job.append(index)

    n_seg = len(seg_times)
    seg_lengths = np.array([times.size for times in seg_times])
    point_seg = np.repeat(np.arange(n_seg), seg_lengths)
    point_job = np.asarray(seg_job)[point_seg]

    # -- rank space: global distinct times, each point's rank ----------------
    all_times = np.concatenate(seg_times)
    distinct_times, point_rank = np.unique(all_times, return_inverse=True)
    n_rank = distinct_times.size

    # -- per-job union grids: unique (job, rank) keys, job-major -------------
    union_keys = np.unique(point_job * n_rank + point_rank)
    union_job = union_keys // n_rank
    union_rank = union_keys - union_job * n_rank
    union_times = distinct_times[union_rank]
    union_counts = np.bincount(union_job, minlength=count)
    union_offsets = np.concatenate([[0], np.cumsum(union_counts)])
    # Identical values to the per-job ``np.unique(np.concatenate(grids))``:
    # the same floats, sorted and deduplicated, just computed for the whole
    # batch at once.

    # -- zero-order-hold lookup: one segmented searchsorted ------------------
    # Haystack: every grid point keyed ``segment * n_rank + rank`` — sorted,
    # because grids ascend within a segment and segment keys are disjoint.
    # Needles: for each segment, its job's union ranks under the same
    # segment offset. ``searchsorted(..., "right") - 1`` then lands on the
    # segment's last grid point at or before each union time (every grid
    # starts at t=0.0, so the result never leaves the segment), exactly the
    # ``Profile.values_at`` hold rule.
    needle_lengths = union_counts[seg_job]
    needle_starts = union_offsets[seg_job]
    total_needles = int(needle_lengths.sum())
    needle_local = np.arange(total_needles) - np.repeat(
        np.cumsum(needle_lengths) - needle_lengths, needle_lengths
    )
    needle_pos = needle_local + np.repeat(needle_starts, needle_lengths)
    needle_keys = union_rank[needle_pos] + np.repeat(
        np.arange(n_seg) * n_rank, needle_lengths
    )
    haystack_keys = point_seg * n_rank + point_rank
    held_index = np.searchsorted(haystack_keys, needle_keys, side="right") - 1
    held_values = np.concatenate(seg_values)[held_index]

    # -- split held values by role (job-major order is preserved) ------------
    point_role = np.repeat(seg_role, needle_lengths)
    cpu_values = held_values[point_role == _ROLE_CPU]
    gpu_values = held_values[point_role == _ROLE_GPU]

    node_counts = np.array([float(run.job.nodes_required) for run, _ in runs_models])
    weights = np.repeat(node_counts, union_counts)
    cpu_weighted = cpu_values * weights
    gpu_weighted = gpu_values * weights

    # -- power: one model evaluation per distinct model ----------------------
    if len(model_groups) == 1 and not trace_job_indices:
        # Every job uses the same component model (the common case): the
        # role-split arrays already are the model inputs, in job order.
        (model, _indices), = model_groups.values()
        model_w = np.asarray(
            model.power(cpu_values, gpu_values, held_values[point_role == _ROLE_MEM]),
            dtype=float,
        )
        model_w *= weights
        watts = model_w
    else:
        watts = np.empty(int(union_counts.sum()))
        mem_values = held_values[point_role == _ROLE_MEM]
        trace_values = held_values[point_role == _ROLE_POWER]
        # Offsets of each job's slice within the role-split arrays.
        is_trace = np.zeros(count, dtype=bool)
        is_trace[trace_job_indices] = True
        mem_offsets = np.concatenate(
            [[0], np.cumsum(np.where(is_trace, 0, union_counts))]
        )
        trace_offsets = np.concatenate(
            [[0], np.cumsum(np.where(is_trace, union_counts, 0))]
        )
        def job_slice(offsets: np.ndarray, i: int) -> slice:
            return slice(offsets[i], offsets[i] + union_counts[i])

        for i in trace_job_indices:
            watts[union_offsets[i] : union_offsets[i + 1]] = (
                trace_values[job_slice(trace_offsets, i)]
                * runs_models[i][0].job.nodes_required
            )

        def job_cpu(i: int) -> np.ndarray:
            return cpu_values[union_offsets[i] : union_offsets[i + 1]]

        def job_gpu(i: int) -> np.ndarray:
            return gpu_values[union_offsets[i] : union_offsets[i + 1]]

        for model, indices in model_groups.values():
            group_w = np.asarray(
                model.power(
                    np.concatenate([job_cpu(i) for i in indices]),
                    np.concatenate([job_gpu(i) for i in indices]),
                    np.concatenate(
                        [mem_values[job_slice(mem_offsets, i)] for i in indices]
                    ),
                ),
                dtype=float,
            )
            group_w *= np.repeat(node_counts[indices], union_counts[indices])
            position = 0
            for i in indices:
                width = int(union_counts[i])
                watts[union_offsets[i] : union_offsets[i] + width] = group_w[
                    position : position + width
                ]
                position += width

    # -- vectorised initial advance_to(now) ----------------------------------
    starts = np.array(
        [
            run.sim_start_time if run.sim_start_time is not None else now
            for run, _ in runs_models
        ]
    )
    elapsed = np.maximum(now - starts, 0.0)
    # Count of union times at or before each job's elapsed time, computed in
    # rank space: ``searchsorted(distinct_times, elapsed, "right")`` bounds
    # the rank, then the (job, rank) key bounds the job's union slice — the
    # same index ``advance_to`` finds with its per-job searchsorted.
    elapsed_rank = np.searchsorted(distinct_times, elapsed, side="right")
    held_counts = (
        np.searchsorted(
            union_keys, np.arange(count) * n_rank + elapsed_rank, side="left"
        )
        - union_offsets[:-1]
    )
    current_index = np.maximum(held_counts - 1, 0) + union_offsets[:-1]
    current_power = watts[current_index]
    current_cpu = cpu_weighted[current_index]
    current_gpu = gpu_weighted[current_index]
    has_next = current_index + 1 < union_offsets[1:]
    next_change = np.where(
        has_next,
        starts + union_times[np.minimum(current_index + 1, len(union_times) - 1)],
        math.inf,
    )

    states: list[_JobPowerState] = []
    for index, (run, _) in enumerate(runs_models):
        span = slice(union_offsets[index], union_offsets[index + 1])
        state = _JobPowerState.__new__(_JobPowerState)
        state.run = run
        state.start = float(starts[index])
        state.times = union_times[span]
        state.power_w = watts[span]
        state.cpu_weighted = cpu_weighted[span]
        state.gpu_weighted = gpu_weighted[span]
        state.current_power_w = float(current_power[index])
        state.current_cpu_weighted = float(current_cpu[index])
        state.current_gpu_weighted = float(current_gpu[index])
        state.next_change = float(next_change[index])
        states.append(state)
    return states


class RunningSetPowerAggregator:
    """Incrementally maintained system power over the running set.

    Drop-in replacement for :meth:`SystemPowerModel.sample` (identical up to
    float add/subtract associativity: the incremental totals can carry
    ~1e-15 residue relative to a fresh scan while jobs are running, and are
    flushed to exact zeros whenever the running set drains): the engine asks
    it for a :class:`SystemPowerSample` every step, but instead of
    re-evaluating every running job's profiles and node-power model per
    step, it keeps per-job contributions cached (see :class:`_JobPowerState`)
    and recomputes only

    - jobs that started or ended since the last step, detected in O(1) via
      :attr:`ResourceManager.epoch`, and
    - jobs whose profile crossed a change point since the last step, tracked
      in a min-heap of upcoming change times.

    On an event-free stretch a step is O(1). Dense and event-driven runs
    apply the exact same sequence of add/remove/update operations (membership
    changes and breakpoint crossings happen on the same grid ticks either
    way), so the two modes produce bit-identical power series.
    """

    def __init__(
        self, model: SystemPowerModel, resource_manager: ResourceManager
    ) -> None:
        self._model = model
        self._rm = resource_manager
        self._epoch: int | None = None
        self._journal_cursor = 0
        self._states: dict[int, _JobPowerState] = {}
        self._changes: list[tuple[float, int]] = []  # (abs change time, job id)
        self._job_power_w = 0.0
        self._cpu_weighted = 0.0
        self._gpu_weighted = 0.0
        self._nodes_busy = 0
        # Observability counters: plain ints on per-event paths, folded
        # into the engine's metrics registry at run finalisation.
        self.breakpoint_crossings = 0
        self.membership_syncs = 0
        self.journal_resyncs = 0
        self.states_built = 0
        self.batched_builds = 0

    @hot_path
    def sample(
        self,
        now: float,
        *,
        allocated_nodes: int | None = None,
        down_nodes: int = 0,
    ) -> SystemPowerSample:
        """System power at ``now``, recomputing only what changed."""
        self._refresh(now)
        if allocated_nodes is None:
            allocated_nodes = self._nodes_busy
        return self._model.compose_sample(
            now,
            self._job_power_w,
            nodes_busy=self._nodes_busy,
            cpu_weighted=self._cpu_weighted,
            gpu_weighted=self._gpu_weighted,
            allocated_nodes=allocated_nodes,
            down_nodes=down_nodes,
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
        after ``now`` and float-identical to the corresponding
        :meth:`JobRun.next_power_change_after` bound.
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
            "journal_resyncs": self.journal_resyncs,
            "states_built": self.states_built,
            "batched_builds": self.batched_builds,
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
        """Apply the running-set membership changes since the last refresh.

        The default path consumes the resource manager's allocate/release
        journal — O(changes) regardless of the running-set size — and hands
        every started job to the state builder in one pass. When the
        journal cannot answer (a second consumer drained it, cold start
        after a capped buffer) a full set-diff against
        :attr:`ResourceManager.running_by_id` runs instead; both paths add
        and remove the same per-job contributions, so they only differ in
        float add/subtract association order (well below the engine's 1e-9
        equivalence gates).
        """
        self.membership_syncs += 1
        running = self._rm.running_by_id
        self._journal_cursor, entries = self._rm.drain_change_journal(
            self._journal_cursor
        )
        if entries is None:
            self.journal_resyncs += 1
            ended_ids = sorted(self._states.keys() - running.keys())
            started_jobs = [
                running[job_id]
                for job_id in sorted(running.keys() - self._states.keys())
            ]
        else:
            # Net effect of the journal slice: a job that both started and
            # ended between refreshes never contributed to a sample and
            # cancels out. First-touch order preserves the chronological
            # allocate/release order for everything else.
            touched: dict[int, None] = {}
            for _, job_id in entries:
                touched.setdefault(job_id, None)
            ended_ids = [
                job_id
                for job_id in touched
                if job_id in self._states and job_id not in running
            ]
            started_jobs = [
                running[job_id]
                for job_id in touched
                if job_id in running and job_id not in self._states
            ]
        for job_id in ended_ids:
            state = self._states.pop(job_id)
            self._job_power_w -= state.current_power_w
            self._cpu_weighted -= state.current_cpu_weighted
            self._gpu_weighted -= state.current_gpu_weighted
            self._nodes_busy -= state.run.job.nodes_required
            # Heap entries of ended jobs are discarded lazily.
        if started_jobs:
            self.states_built += len(started_jobs)
            for state in self._build_states(started_jobs, now):
                job_id = state.run.job_id
                self._states[job_id] = state
                self._job_power_w += state.current_power_w
                self._cpu_weighted += state.current_cpu_weighted
                self._gpu_weighted += state.current_gpu_weighted
                self._nodes_busy += state.run.job.nodes_required
                if math.isfinite(state.next_change):
                    heapq.heappush(self._changes, (state.next_change, job_id))
        if not self._states:
            # Flush float residue so an idle system reports exactly zero job
            # power, not the leftovers of cancelled additions.
            self._job_power_w = 0.0
            self._cpu_weighted = 0.0
            self._gpu_weighted = 0.0

    def _build_states(
        self, started_jobs: list[JobRun], now: float
    ) -> list[_JobPowerState]:
        """Construct the power states of jobs that just entered the running set.

        Several jobs starting in one refresh share one vectorised
        :func:`build_power_states` pass; a job starting alone takes the
        cheaper :meth:`_JobPowerState.for_job`. Both produce bit-identical
        arrays (contract of :func:`build_power_states`).
        """
        if len(started_jobs) > 1:
            self.batched_builds += 1
            return build_power_states(
                [
                    (run, self._model.node_model(run.job.partition))
                    for run in started_jobs
                ],
                now,
            )
        return [
            _JobPowerState.for_job(run, self._model.node_model(run.job.partition), now)
            for run in started_jobs
        ]

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
