"""Pluggable scheduling policies.

The scheduler decides *which* queued jobs start *when* (and, in replay mode,
*where*); the resource manager validates and carries out the placement. A
policy answers each call with one :class:`SchedulePass`: the
:class:`SchedulingDecision` starts for the current tick, the jobs it
dismisses with their reasons, how many jobs a power cap held back,
``valid_until``, the earliest time the same queue and running set could get
a different answer, and ``stands_until``, that time if nothing of the pass
is executed. It never mutates job or node state itself (jobs are read-only;
the engine owns each job's run record). The engine executes the starts in
order, so a policy must account for the nodes its own earlier decisions of
the same tick will consume (all policies here track a local free-node count
for exactly that reason).

Three policies cover the paper's experiments:

``replay``
    Enforce the recorded schedule: every job starts at its recorded start
    time, on its recorded node set when the telemetry includes one. This is
    the validation mode of Sec. 3.2.3 — the simulated power/cooling series
    can be compared against the observed ones.

``fcfs``
    Strict first-come-first-served: jobs start in submission order and the
    queue blocks on the first job that does not fit.

``backfill``
    EASY backfill (Lifka): FCFS with a reservation for the queue head; later
    jobs may jump ahead if, judged by their wall-time limit, they cannot
    delay the head's reservation.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..cluster import DOWN, FREE, ResourceManager
from ..exceptions import SchedulingError
from ..power.signals import OperatingSignals
from ..telemetry.job import Job
from ..units import watts_to_kilowatts

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from ..power.system_power import SystemPowerModel

__all__ = [
    "SchedulePass",
    "SchedulingDecision",
    "Scheduler",
    "ReplayScheduler",
    "FCFSScheduler",
    "BackfillScheduler",
    "PowerCapScheduler",
    "available_policies",
    "get_scheduler",
]


@dataclass(frozen=True)
class SchedulingDecision:
    """One job start decided by a policy for the current tick.

    Attributes
    ----------
    job:
        The queued job to start.
    node_ids:
        Explicit placement. ``None`` lets the resource manager pick the
        first available nodes of the job's partition.
    exact_placement:
        Replay mode — require the job's recorded node set.
    start_time:
        Simulated start time to record. Replay backdates this to the
        recorded start time (which may fall between ticks); ``None`` means
        "now".
    replay_delayed / replay_relocated:
        Replay's tags, copied onto the started job's run record: the job
        missed its recorded start, or runs away from its recorded nodes.
    """

    job: Job
    node_ids: tuple[int, ...] | None = None
    exact_placement: bool = False
    start_time: float | None = None
    replay_delayed: bool = False
    replay_relocated: bool = False


#: Default of :attr:`SchedulePass.stands_until`: take ``valid_until``.
_SAME_AS_VALID_UNTIL: Any = object()


@dataclass(frozen=True, slots=True, kw_only=True)
class SchedulePass:
    """A policy's whole answer to one :meth:`Scheduler.schedule` call.

    Attributes
    ----------
    starts:
        The jobs to start now, in execution order.
    dismissals:
        Queued jobs the policy rejects outright, each with the reason why;
        they leave the queue exactly like capacity-infeasible submissions.
    held:
        How many queued jobs a power cap held back this pass (the engine
        integrates it into ``capped_hold_s``).
    valid_until:
        The earliest time at which the same queue and running set could get
        a different answer; ``None`` means not before the next submission or
        release. The pass bounds event-driven coalescing at that time, so
        ``valid_until=now`` makes the engine step every tick.
    stands_until:
        The earliest time at which the same queue and running set could get
        a different answer if nothing of this pass were executed; it
        defaults to ``valid_until``. The engine reuses the pass without
        asking again while the resource manager's epoch and its queue are
        unchanged and ``now < stands_until``; executing a start or a
        dismissal changes both. ``now`` is always safe: ask again next tick.
        A policy sets it apart from ``valid_until`` when it must step every
        tick yet knows that a pass nothing came of keeps its answer longer,
        as :class:`PowerCapScheduler` does for a pass that held every start.
    """

    starts: list[SchedulingDecision]
    dismissals: Sequence[tuple[Job, str]] = ()
    held: int = 0
    valid_until: float | None
    stands_until: float | None = _SAME_AS_VALID_UNTIL

    def __post_init__(self) -> None:
        if self.stands_until is _SAME_AS_VALID_UNTIL:
            object.__setattr__(self, "stands_until", self.valid_until)


class Scheduler(abc.ABC):
    """Base class for scheduling policies.

    Subclasses implement :meth:`schedule`; they are stateful per simulation
    run (e.g. replay tracks which jobs missed their recorded start) and are
    reset by the engine via :meth:`reset` before a run.
    """

    #: Registry/CLI name of the policy.
    name: str = "abstract"

    @abc.abstractmethod
    def schedule(
        self, queue: Sequence[Job], resource_manager: ResourceManager, now: float
    ) -> SchedulePass:
        """Return this tick's pass: starts, dismissals, holds and validity.

        Parameters
        ----------
        queue:
            Queued jobs in submission order (submit time, then job id).
            The engine passes its live queue without copying: policies
            must treat it as read-only — never mutate, reorder or retain
            it past the call (take a sorted/filtered copy instead, as
            :class:`ReplayScheduler` does).
        resource_manager:
            Read-only view of the node inventory. Policies must not call
            its mutating methods.
        now:
            Current simulation time (tick boundary).
        """

    def reset(self) -> None:
        """Clear per-run state. The default implementation is a no-op."""

    def observability_counters(self) -> dict[str, int]:
        """Plain-int instrumentation counters for the metrics registry.

        Keys become ``sched_<key>_total`` counters when the engine
        publishes metrics at run finalisation; the default policy exposes
        none. Counters are per run (cleared by :meth:`reset`).
        """
        return {}

    def next_event_hint(self, queue: Sequence[Job], now: float) -> float | None:
        """Unused: a policy states when its answer can change in
        :attr:`SchedulePass.valid_until`, and the engine never calls this.

        It stays only because ``perfbench/layers.py`` wraps this name on
        every policy class; it goes with that wrapper.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"


class ReplayScheduler(Scheduler):
    """Start every job at its recorded start time, where it actually ran.

    Jobs whose recorded placement is momentarily infeasible (busy nodes, a
    prepopulation edge case), or that a wrapping :class:`PowerCapScheduler`
    holds under its cap, are retried each tick and started as soon as
    possible at the *current* time. Their decisions carry
    ``replay_delayed=True``, which the engine copies onto the run record
    (:attr:`JobRun.replay_delayed`), so downstream analysis can exclude
    them from validation plots. Jobs whose recorded placement can *never*
    be satisfied (out-of-range node ids or down nodes — inconsistent
    telemetry) fall back to free-node placement, with
    ``replay_relocated=True``.
    """

    name = "replay"

    def __init__(self) -> None:
        #: Jobs that were due in an earlier pass: one still queued missed
        #: its recorded start.
        self._due_before: set[int] = set()

    def reset(self) -> None:
        self._due_before.clear()

    def schedule(
        self, queue: Sequence[Job], resource_manager: ResourceManager, now: float
    ) -> SchedulePass:
        # One scan splits the due jobs from the earliest recorded start
        # still ahead, the pass's validity: a due job left queued waits for
        # a release, which the engine tracks as an event of its own. Only
        # the due jobs are ordered, by (recorded start, job id).
        due: list[Job] = []
        next_start: float | None = None
        for job in queue:
            start = job.start_time
            if start <= now:
                due.append(job)
            elif next_start is None or start < next_start:
                next_start = start
        due.sort(key=lambda j: (j.start_time, j.job_id))
        if not due:
            return SchedulePass(starts=[], valid_until=next_start)
        owner = resource_manager.owner
        exact_jobs: list[Job] = []
        flex_jobs: list[Job] = []
        for job in due:
            if job.recorded_nodes and all(
                0 <= nid < len(owner) and owner[nid] is not DOWN
                for nid in job.recorded_nodes
            ):
                exact_jobs.append(job)
            else:
                flex_jobs.append(job)

        # Recorded placements claim their nodes first, so a free-node
        # placement in the same tick can never steal them.
        decisions: list[SchedulingDecision] = []
        claimed: set[int] = set()
        for job in exact_jobs:
            if claimed.isdisjoint(job.recorded_nodes) and all(
                owner[nid] is FREE for nid in job.recorded_nodes
            ):
                claimed.update(job.recorded_nodes)
                decisions.append(self._decide(job, now, exact_placement=True))
        # With no recorded placements to protect this tick, a count ledger
        # suffices and the resource manager picks the nodes (cheap on large
        # systems); otherwise select explicit free nodes of the job's
        # partition around the claims: a wrapping cap may hold a claiming
        # job, and the resource manager's own pick would then hand its
        # recorded nodes to this one.
        free_counts = _FreeNodeCounts(resource_manager)
        for job in flex_jobs:
            if not claimed:
                if free_counts.fits(job):
                    free_counts.take(job)
                    decisions.append(self._decide(job, now))
                continue
            free = [
                nid
                for nid in resource_manager.available_node_ids(
                    resource_manager.partition_of(job)
                )
                if nid not in claimed
            ]
            if len(free) >= job.nodes_required:
                chosen = tuple(free[: job.nodes_required])
                claimed.update(chosen)
                decisions.append(self._decide(job, now, node_ids=chosen))
        self._due_before.update(job.job_id for job in due)
        return SchedulePass(starts=decisions, valid_until=next_start)

    def _decide(
        self,
        job: Job,
        now: float,
        *,
        node_ids: tuple[int, ...] | None = None,
        exact_placement: bool = False,
    ) -> SchedulingDecision:
        """Propose ``job``: at its recorded start the first pass it is due,
        now after.

        A job still queued after an earlier pass it was due in did not
        start then: its placement failed, or a wrapping policy such as
        :class:`PowerCapScheduler` held it. It then starts at the tick that
        admits it, never backdated to its recorded start, and is tagged
        delayed. A free-node placement of a job with recorded nodes is
        tagged relocated.
        """
        delayed = job.job_id in self._due_before
        return SchedulingDecision(
            job,
            node_ids=node_ids,
            exact_placement=exact_placement,
            start_time=now if delayed else job.start_time,
            replay_delayed=delayed,
            replay_relocated=bool(job.recorded_nodes) and not exact_placement,
        )


class FCFSScheduler(Scheduler):
    """Strict first-come-first-served.

    Jobs start in submission order; the first job that does not fit blocks
    everything behind it (no backfilling). This is the baseline rescheduling
    policy of the paper's Sec. 4.2 comparison.
    """

    name = "fcfs"

    def schedule(
        self, queue: Sequence[Job], resource_manager: ResourceManager, now: float
    ) -> SchedulePass:
        # Whether the head fits depends only on the free-node counts, which
        # change only on releases: blocked now means blocked until the next
        # event, so the pass holds until then.
        decisions: list[SchedulingDecision] = []
        free_counts = _FreeNodeCounts(resource_manager)
        for job in queue:
            if not free_counts.fits(job):
                break
            free_counts.take(job)
            decisions.append(SchedulingDecision(job))
        return SchedulePass(starts=decisions, valid_until=None)


def _last_start_before(end: float, runtime: float) -> float:
    """A time ``t`` such that ``now + runtime < end`` in floats for every
    ``now < t``.

    ``end - ulp(end)`` is exact, and rounding the difference down keeps ``t
    <= end - ulp(end) - runtime`` exactly; the sum ``now + runtime`` is then
    below ``end - ulp(end)`` before rounding, and no greater after it.
    """
    return math.nextafter(end - math.ulp(end) - runtime, -math.inf)


class BackfillScheduler(Scheduler):
    """EASY backfill against wall-time limits.

    FCFS until the queue head does not fit; then a *shadow time* is computed
    — the earliest time the head can start, assuming running jobs end at
    ``sim_start + requested_runtime`` — and later queued jobs are started out
    of order iff they fit now and either (a) are expected to finish before
    the shadow time, or (b) use only nodes that are spare even once the
    head's reservation is carved out at the shadow time. Expected runtimes
    come from :attr:`Job.requested_runtime` (the wall-time limit when the
    dataset has one), so an overrun-prone limit distribution degrades
    backfill quality exactly as it does on a real system.
    """

    name = "backfill"

    def __init__(self) -> None:
        #: Observability counter (published as a ``sched_*_total`` metric).
        self.reservations_computed = 0

    def reset(self) -> None:
        self.reservations_computed = 0

    def observability_counters(self) -> dict[str, int]:
        return {"backfill_reservations": self.reservations_computed}

    def schedule(
        self, queue: Sequence[Job], resource_manager: ResourceManager, now: float
    ) -> SchedulePass:
        # The pass holds until the next event: once it is executed, the
        # jobs it started sit in the running set at fixed expected ends, so
        # with the running set and the queue frozen the free-node counts,
        # the shadow time and the spare nodes are constant, and the one
        # now-dependent test, ``now + requested_runtime <= shadow_time``,
        # can only flip from true to false, so a declined job stays
        # declined. A pass nothing came of (a cap held its starts) stands
        # only until one of its own starts would flip that test (case 1) or
        # overtake a fixed expected end in the reservation walk (case 3).
        decisions: list[SchedulingDecision] = []
        free_counts = _FreeNodeCounts(resource_manager)
        #: (expected end, job, its partition) of jobs started this tick.
        started: list[tuple[float, Job, str]] = []

        # Phase 1 — plain FCFS prefix. An index cursor over the engine's
        # live queue: no per-call list copy, no O(queue) pop(0) shuffles.
        index = 0
        count = len(queue)
        while index < count:
            job = queue[index]
            if not free_counts.fits(job):
                break
            index += 1
            started.append((now + job.requested_runtime, job, free_counts.take(job)))
            decisions.append(SchedulingDecision(job))

        if index == count:
            return SchedulePass(starts=decisions, valid_until=None)

        # Phase 2 — reservation for the blocked head, in its partition.
        head = queue[index]
        partition = free_counts.partition_of(head)
        shadow_time, spare_nodes, shadow_fixed, stands_until = self._reserve(
            head, partition, free_counts, resource_manager, started, now
        )

        # Phase 3 — backfill behind the reservation, one sweep. A job of
        # the head's partition keeps its nodes past the shadow time unless
        # it is expected to end before it; a job of another partition takes
        # none of the head's nodes.
        for position in range(index + 1, count):
            job = queue[position]
            if not free_counts.fits(job):
                continue
            if now + job.requested_runtime > shadow_time:
                if free_counts.partition_of(job) == partition:
                    if job.nodes_required > spare_nodes:
                        continue
                    spare_nodes -= job.nodes_required
            elif shadow_fixed and free_counts.partition_of(job) == partition:
                # Case 1: against a fixed shadow, the job ends by it only
                # while now + requested_runtime stays at or below it.
                stands_until = min(
                    stands_until, _last_start_before(shadow_time, job.requested_runtime)
                )
            free_counts.take(job)
            decisions.append(SchedulingDecision(job))
        return SchedulePass(
            starts=decisions,
            valid_until=None,
            stands_until=stands_until if stands_until < math.inf else None,
        )

    def _reserve(
        self,
        head: Job,
        partition: str,
        free_counts: "_FreeNodeCounts",
        resource_manager: ResourceManager,
        started: list[tuple[float, Job, str]],
        now: float,
    ) -> tuple[float, int, bool, float]:
        """Shadow reservation for the blocked head: ``(shadow_time, spare,
        fixed, stands_until)``.

        One walk for every head: the resource manager's expected-release
        list of the head's partition merged with this tick's own starts in
        that partition, until the head fits. ``shadow_time`` is when enough
        nodes have been freed (by expected end times) for the head to
        start; ``spare`` is how many nodes of the partition remain free
        then beyond the head's reservation — the budget for backfill jobs
        that outlive the shadow time. The reference is
        ``tests/helpers.py::scan_reservation``. ``fixed`` says whether the
        shadow is an expected end still ahead, which stays put as ``now``
        advances, rather than ``now`` or an own start, which move with it.

        The own starts end at ``now + requested_runtime``, so they move
        through the fixed ends as ``now`` advances. ``stands_until`` is the
        earliest time one walked before the head fits could reach the next
        fixed end after it (case 3; a tie already changes the order). The
        merge is walked by hand to read that next end: ``heapq.merge``
        reads one entry ahead of the one it yields.
        """
        self.reservations_computed += 1
        own = sorted(
            (end, job.nodes_required, job.job_id, job.requested_runtime)
            for end, job, name in started
            if name == partition
        )
        available = free_counts.free_in(partition)
        releases = resource_manager.expected_release_entries(partition)
        release = next(releases, None)
        stands_until = math.inf
        position = 0
        while True:
            if release is not None and (position == len(own) or release < own[position]):
                end, nodes, _ = release
                release = next(releases, None)
                fixed = True
            elif position < len(own):
                end, nodes, _, runtime = own[position]
                position += 1
                fixed = False
                if release is not None:
                    stands_until = min(stands_until, _last_start_before(release[0], runtime))
            else:
                # Head can never fit by this estimate (should have been
                # dismissed at submission); reserve nothing rather than crash.
                return math.inf, 0, False, stands_until
            available += nodes
            if available >= head.nodes_required:
                # A job that overran its wall-time limit has an expected end
                # in the past; assume it ends imminently (the usual EASY
                # convention), never before the current tick.
                spare = available - head.nodes_required
                return max(now, end), spare, fixed and end > now, stands_until


class _FreeNodeCounts:
    """Per-partition free-node ledger a policy debits as it decides.

    The resource manager's availability only changes when the engine
    executes decisions, so a policy emitting several decisions in one tick
    must do its own bookkeeping to avoid overcommitting. Every job runs in
    one partition (:meth:`ResourceManager.partition_of`), so each decision
    debits that partition's count, which is then the one the resource
    manager will report once the decisions are executed.
    """

    def __init__(self, resource_manager: ResourceManager) -> None:
        self._rm = resource_manager
        #: The resource manager's partition rule.
        self.partition_of = resource_manager.partition_of
        self._free: dict[str, int] = {}

    def free_in(self, partition: str) -> int:
        """Free nodes remaining in one partition."""
        free = self._free.get(partition)
        if free is None:
            free = self._free[partition] = self._rm.free_node_count(partition)
        return free

    def fits(self, job: Job) -> bool:
        """Whether the job's partition has enough free nodes left for it."""
        return job.nodes_required <= self.free_in(self.partition_of(job))

    def take(self, job: Job) -> str:
        """Debit ``job``'s nodes from its partition (it fits); return the
        partition."""
        partition = self.partition_of(job)
        self._free[partition] = self.free_in(partition) - job.nodes_required
        return partition


class PowerCapScheduler(Scheduler):
    """Power-capping wrapper: admit a base policy's starts under a cap.

    Composes over any base policy (replay/FCFS/backfill): the base proposes
    start decisions as usual and the wrapper greedily admits them, in
    order, while the *projected* IT power stays under the active
    ``power_cap_kw`` from :class:`~repro.power.signals.OperatingSignals`.
    Projected power is the system's idle floor (every in-service node at
    its partition's idle draw, :meth:`SystemPowerModel.idle_power_w`) plus
    the committed draw: the running set's peak incremental draws over the
    idle baseline of the nodes each job occupies, cached per job when it
    was admitted and summed afresh whenever the running set changes. The
    per-job peak is conservative, so a run under a *constant* cap can never
    record compute power above the cap (``cap_violation_kwh`` stays zero).
    Demand-response windows that drop the cap below already-committed load
    — or below the idle floor itself — can still record violations: capping
    holds *future* starts, it does not checkpoint running jobs.

    Jobs whose incremental draw can never fit under any present-or-future
    cap are dismissed with a reason instead of deadlocking an FCFS queue
    head forever; held jobs simply stay queued, and the base proposes them
    again when it is next asked.

    A pass that held or dismissed a job is valid only until ``now``, so the
    engine steps every grid tick while jobs are held: a dismissal removes
    queue entries after the base ran — dismissing a blocked head unblocks
    the jobs behind it on the very next tick, which a dense run acts on
    immediately — and stepping through holds keeps each run's steps. A
    pass that held every start and dismissed nothing executes nothing, so
    its answer stands until its base's could change (its ``stands_until``;
    for backfill, ``now`` alone can change it) or the signals step (the
    cap sets the budget); the engine reuses it until then. Otherwise the
    admitted set equals the base's proposals, and the pass is the base's.
    Cap *changes* bound coalescing through the engine's signal breakpoints,
    not through the pass.
    """

    def __init__(self, base: Scheduler, signals: OperatingSignals) -> None:
        self.base = base
        self.signals = signals
        self.name = f"power_cap({base.name})"
        self._power_model: SystemPowerModel | None = None
        self._idle_floor_kw = 0.0
        #: Peak incremental draw per job id (jobs are immutable, so the
        #: grid evaluation in job_peak_power_w runs once per job). Every
        #: running job was admitted through it.
        self._incr_kw_cache: dict[int, float] = {}
        #: The running set's summed increments, taken at the last epoch.
        self._committed_total_kw = 0.0
        self._epoch = -1
        #: Observability counters (published as ``sched_*_total`` metrics).
        self._holds_total = 0
        self._dismissed_total = 0

    def bind_power_model(
        self, model: SystemPowerModel, resource_manager: ResourceManager
    ) -> None:
        """Attach the run's power model and take the idle floor over the
        resource manager's in-service nodes (the engine calls this once)."""
        self._power_model = model
        self._idle_floor_kw = watts_to_kilowatts(
            model.idle_power_w(
                resource_manager.partition_capacity(partition.name)
                for partition in model.system.partitions
            )
        )

    def reset(self) -> None:
        self.base.reset()
        self._incr_kw_cache.clear()
        self._committed_total_kw = 0.0
        self._epoch = -1
        self._holds_total = 0
        self._dismissed_total = 0

    def observability_counters(self) -> dict[str, int]:
        counters = dict(self.base.observability_counters())
        counters["cap_hold_events"] = self._holds_total
        counters["cap_dismissed_jobs"] = self._dismissed_total
        return counters

    def _incr_kw(self, job: Job) -> float:
        """Peak incremental draw of one job over its nodes' idle baseline."""
        cached = self._incr_kw_cache.get(job.job_id)
        if cached is not None:
            return cached
        model = self._power_model
        if model is None:  # pragma: no cover - the engine always binds
            raise SchedulingError(
                "PowerCapScheduler.schedule() called before bind_power_model()"
            )
        peak_w = model.job_peak_power_w(job)
        idle_w = model.node_model(job.partition).config.min_w * job.nodes_required
        incr = max(0.0, watts_to_kilowatts(peak_w - idle_w))
        self._incr_kw_cache[job.job_id] = incr
        return incr

    def schedule(
        self, queue: Sequence[Job], resource_manager: ResourceManager, now: float
    ) -> SchedulePass:
        if resource_manager.epoch != self._epoch:
            # The running set changes only across epoch changes. Its jobs
            # are in admission order, so the sum adds the same cached
            # floats in the same order each time and no error accumulates.
            self._epoch = resource_manager.epoch
            self._committed_total_kw = sum(
                map(self._incr_kw_cache.__getitem__, resource_manager.running_by_id)
            )
        proposals = self.base.schedule(queue, resource_manager, now)
        if not proposals.starts:
            return proposals
        cap_kw = self.signals.cap_at(now)
        budget_kw = cap_kw - self._idle_floor_kw - self._committed_total_kw
        admitted: list[SchedulingDecision] = []
        dismissals = list(proposals.dismissals)
        held = proposals.held
        for decision in proposals.starts:
            job = decision.job
            incr_kw = self._incr_kw(job)
            if incr_kw <= budget_kw:
                admitted.append(decision)
                budget_kw -= incr_kw
                continue
            headroom_kw = self.signals.max_cap_at_or_after(now) - self._idle_floor_kw
            if incr_kw > headroom_kw:
                dismissals.append(
                    (
                        job,
                        "power cap infeasible: needs "
                        f"{incr_kw:.3f} kW over the idle floor, best "
                        f"present-or-future headroom {headroom_kw:.3f} kW",
                    )
                )
                self._dismissed_total += 1
                continue
            held += 1
            self._holds_total += 1
        if not held and not dismissals:
            return proposals
        stands_until = proposals.stands_until
        change = self.signals.next_change_after(now)
        if dismissals:
            stands_until = now
        elif change is not None and (stands_until is None or change < stands_until):
            stands_until = change
        return SchedulePass(
            starts=admitted,
            dismissals=dismissals,
            held=held,
            valid_until=now,
            stands_until=stands_until,
        )


_POLICIES: dict[str, Callable[[], Scheduler]] = {
    ReplayScheduler.name: ReplayScheduler,
    FCFSScheduler.name: FCFSScheduler,
    BackfillScheduler.name: BackfillScheduler,
}


def available_policies() -> tuple[str, ...]:
    """Names of all registered scheduling policies, sorted."""
    return tuple(sorted(_POLICIES))


def get_scheduler(name: str) -> Scheduler:
    """Instantiate a scheduling policy by (case-insensitive) name.

    ``"easy"`` is an alias of ``"backfill"``; anything but a known name is
    a :class:`SchedulingError`.
    """
    if not isinstance(name, str):
        raise SchedulingError(f"scheduling policy must be a name, got {name!r}")
    key = name.lower()
    if key == "easy":  # common alias for EASY backfill
        key = "backfill"
    if key not in _POLICIES:
        known = ", ".join(available_policies())
        raise SchedulingError(f"unknown scheduling policy {name!r}; known: {known}")
    return _POLICIES[key]()
