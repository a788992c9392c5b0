"""The batch-job data model: read-only workload records and per-run state.

Each :class:`Job` carries the scheduling-relevant fields required by the
dataloaders (Sec. 3.2.2 of the paper): submit time, recorded start and end
times, wall-time limit and the number of requested nodes (or the exact node
set from the telemetry, for replay). On top of those it carries telemetry
profiles (CPU/GPU/memory utilization or power), user/account information for
the incentive studies and priority. A :class:`Job` is frozen: it describes
what the dataset recorded, so one job list can drive any number of runs.

What happens to a job in one run — its state, placement, simulated
submit/start/end times and the typed reasons behind them — lives in a
:class:`JobRun`, which the engine builds per input job and owns.

Times are seconds relative to the telemetry window start as established by
the dataloader; the simulation engine works entirely in this relative frame.
"""

from __future__ import annotations

import enum
import itertools
import math
import numbers
from dataclasses import dataclass, field

from ..exceptions import DataLoaderError, SimulationError
from .trace import Profile, constant_profile

_job_id_counter = itertools.count(1)


def _next_job_id() -> int:
    return next(_job_id_counter)


def _zero_profile() -> Profile:
    return constant_profile(0.0)


#: Fields a :class:`Job` requires to be finite numbers.
_FINITE_FIELDS = ("submit_time", "start_time", "end_time", "priority")


class JobState(enum.Enum):
    """Life-cycle of a job inside the simulation."""

    #: Known to the dataloader but not yet submitted (simulation time < submit).
    PENDING = "pending"
    #: Submitted and waiting in the scheduler queue.
    QUEUED = "queued"
    #: Placed on nodes and running.
    RUNNING = "running"
    #: Finished normally (ran to its recorded/estimated duration).
    COMPLETED = "completed"
    #: Removed without running (outside the simulation window, cancelled, ...).
    DISMISSED = "dismissed"


@dataclass(frozen=True, slots=True)
class Job:
    """A single batch job, as the dataset recorded it (read-only)."""

    nodes_required: int
    submit_time: float
    start_time: float
    end_time: float
    wall_time_limit: float | None = None
    job_id: int = field(default_factory=_next_job_id)
    name: str = ""
    user: str = "unknown"
    account: str = "unknown"
    partition: str = "batch"
    priority: float = 0.0
    #: Exact node ids recorded in the telemetry (used in replay mode).
    recorded_nodes: tuple[int, ...] = ()
    #: Utilization profiles in [0, 1] relative to job start.
    cpu_util: Profile = field(default_factory=_zero_profile)
    gpu_util: Profile = field(default_factory=_zero_profile)
    mem_util: Profile = field(default_factory=_zero_profile)
    #: Optional recorded per-node power profile in watts (overrides the
    #: utilization-based power model when present).
    node_power: Profile | None = None
    #: Dataset-specific extras (performance class, network counters, ...).
    metadata: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        nodes = self.nodes_required
        # ``type() is int`` first: the ABC check is ten times slower, and
        # plain ints are what every loader passes.
        if type(nodes) is not int and (
            isinstance(nodes, bool) or not isinstance(nodes, numbers.Integral)
        ):
            raise DataLoaderError(
                f"job {self.job_id}: nodes_required must be an integer, "
                f"got {nodes!r}"
            )
        if nodes <= 0:
            raise DataLoaderError(
                f"job {self.job_id}: nodes_required must be positive, "
                f"got {nodes}"
            )
        for name in _FINITE_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DataLoaderError(
                    f"job {self.job_id}: {name} must be finite, got {value!r}"
                )
        if self.end_time < self.start_time:
            raise DataLoaderError(
                f"job {self.job_id}: end_time {self.end_time} precedes "
                f"start_time {self.start_time}"
            )
        if self.submit_time > self.start_time:
            # Some datasets have clock skew; clamp rather than reject, but a
            # submit after the recorded end is irrecoverably inconsistent.
            if self.submit_time > self.end_time:
                raise DataLoaderError(
                    f"job {self.job_id}: submit_time after end_time"
                )
            object.__setattr__(self, "submit_time", self.start_time)
        if self.recorded_nodes and len(self.recorded_nodes) != self.nodes_required:
            raise DataLoaderError(
                f"job {self.job_id}: recorded_nodes has "
                f"{len(self.recorded_nodes)} entries but nodes_required is "
                f"{self.nodes_required}"
            )
        limit = self.wall_time_limit
        if limit is not None and not 0.0 < limit < math.inf:
            raise DataLoaderError(
                f"job {self.job_id}: wall_time_limit must be positive and "
                f"finite, got {limit!r}"
            )

    # -- derived workload properties ------------------------------------------

    @property
    def duration(self) -> float:
        """Recorded runtime in seconds (end - start from the telemetry)."""
        return self.end_time - self.start_time

    @property
    def requested_runtime(self) -> float:
        """Runtime the scheduler should assume when planning.

        The wall-time limit if available (what a real scheduler knows),
        otherwise the recorded duration (perfect estimate).
        """
        if self.wall_time_limit is not None:
            return self.wall_time_limit
        return self.duration

    @property
    def node_s(self) -> float:
        """Recorded node-seconds (nodes x runtime)."""
        return self.nodes_required * self.duration

    def power_profiles(self) -> tuple[Profile, ...]:
        """The profiles that determine this job's sampled power state.

        When a recorded node-power trace exists it wins over the component
        model, so memory utilization becomes irrelevant — but CPU/GPU
        utilization still feed the per-tick mean-utilization series, so they
        stay in the set. Without a power trace, power is the component model
        over all three utilization profiles.
        """
        if self.node_power is not None:
            return (self.node_power, self.cpu_util, self.gpu_util)
        return (self.cpu_util, self.gpu_util, self.mem_util)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Job(id={self.job_id}, nodes={self.nodes_required}, "
            f"submit={self.submit_time:.0f}, start={self.start_time:.0f}, "
            f"end={self.end_time:.0f})"
        )


class JobRun:
    """One job's state in one simulation run, owned by the engine.

    Built in O(1) per input job, without validation (the :class:`Job` was
    validated once, when it was loaded). The ``mark_*`` transitions are the
    only writers of :attr:`state` and raise :class:`SimulationError` on an
    illegal move. The typed tags say why a run ended the way it did:

    ``dismiss_reason``
        Why a dismissed job never ran (capacity, power cap, horizon).
    ``replay_delayed``
        Replay could not start the job at its recorded start: its recorded
        placement was busy, or a power cap held it.
    ``replay_relocated``
        Replay placed the job on free nodes because its recorded node set
        can never be satisfied (out-of-range or down nodes).
    ``truncated_by_horizon``
        The run's horizon cut the job before its recorded duration elapsed.
    """

    __slots__ = (
        "job",
        "job_id",
        "state",
        "assigned_nodes",
        "sim_submit_time",
        "sim_start_time",
        "sim_end_time",
        "dismiss_reason",
        "replay_delayed",
        "replay_relocated",
        "truncated_by_horizon",
    )

    def __init__(self, job: Job) -> None:
        self.job = job
        self.job_id = job.job_id
        self.state = JobState.PENDING
        self.assigned_nodes: tuple[int, ...] = ()
        self.sim_submit_time: float | None = None
        self.sim_start_time: float | None = None
        self.sim_end_time: float | None = None
        self.dismiss_reason: str | None = None
        self.replay_delayed = False
        self.replay_relocated = False
        self.truncated_by_horizon = False

    # -- derived simulation properties -----------------------------------------

    @property
    def is_active(self) -> bool:
        """True while the job occupies resources."""
        return self.state is JobState.RUNNING

    @property
    def is_finished(self) -> bool:
        """True once the job has left the system (completed or dismissed)."""
        return self.state in (JobState.COMPLETED, JobState.DISMISSED)

    @property
    def sim_duration(self) -> float | None:
        """Simulated runtime, if the job has both started and ended."""
        if self.sim_start_time is None or self.sim_end_time is None:
            return None
        return self.sim_end_time - self.sim_start_time

    @property
    def wait_time(self) -> float | None:
        """Simulated queue wait (start - submit), if started."""
        if self.sim_start_time is None:
            return None
        return max(0.0, self.sim_start_time - self._submit())

    @property
    def turnaround_time(self) -> float | None:
        """Simulated turnaround (end - submit), if finished."""
        if self.sim_end_time is None:
            return None
        return max(0.0, self.sim_end_time - self._submit())

    def _submit(self) -> float:
        if self.sim_submit_time is not None:
            return self.sim_submit_time
        return self.job.submit_time

    # -- state transitions (used by engine / resource manager) -----------------

    def mark_queued(self, now: float) -> None:
        """Transition PENDING → QUEUED when the job is submitted."""
        if self.state is not JobState.PENDING:
            raise SimulationError(
                f"job {self.job_id}: cannot queue from state {self.state.value}"
            )
        self.state = JobState.QUEUED
        if self.sim_submit_time is None:
            self.sim_submit_time = now

    def mark_running(self, now: float, nodes: tuple[int, ...]) -> None:
        """Transition QUEUED/PENDING → RUNNING with an allocation."""
        if self.state not in (JobState.QUEUED, JobState.PENDING):
            raise SimulationError(
                f"job {self.job_id}: cannot start from state {self.state.value}"
            )
        if len(nodes) != self.job.nodes_required:
            raise SimulationError(
                f"job {self.job_id}: allocation of {len(nodes)} nodes does not "
                f"match request of {self.job.nodes_required}"
            )
        self.state = JobState.RUNNING
        self.assigned_nodes = tuple(nodes)
        self.sim_start_time = now
        if self.sim_submit_time is None:
            self.sim_submit_time = self.job.submit_time

    def mark_completed(self, now: float) -> None:
        """Transition RUNNING → COMPLETED, releasing is the RM's job."""
        if self.state is not JobState.RUNNING:
            raise SimulationError(
                f"job {self.job_id}: cannot complete from state {self.state.value}"
            )
        self.state = JobState.COMPLETED
        self.sim_end_time = now

    def mark_dismissed(self, reason: str | None = None) -> None:
        """Remove the job from consideration without running it."""
        if self.state is JobState.RUNNING:
            raise SimulationError(
                f"job {self.job_id}: cannot dismiss a running job"
            )
        self.state = JobState.DISMISSED
        self.dismiss_reason = reason

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"JobRun(id={self.job_id}, state={self.state.value})"
