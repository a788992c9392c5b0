"""Pluggable scheduling policies.

The scheduler decides *which* queued jobs start *when* (and, in replay mode,
*where*); the resource manager validates and carries out the placement. Each
policy returns a list of :class:`SchedulingDecision` for the current tick and
never mutates job or node state itself (jobs are read-only; the engine owns
each job's run record). The engine executes decisions in order, so a policy
must account for the nodes its own earlier decisions of the same tick will
consume (all policies here track a local free-node count for exactly that
reason).

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
import heapq
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from ..cluster import DOWN, FREE, ResourceManager
from ..devtools import hot_path
from ..exceptions import SchedulingError
from ..power.signals import OperatingSignals
from ..telemetry.job import Job
from ..units import watts_to_kilowatts

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from ..power.system_power import SystemPowerModel

__all__ = [
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
    ) -> list[SchedulingDecision]:
        """Return the start decisions for the current tick.

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

    def drain_dismissals(self) -> list[tuple[Job, str]]:
        """Jobs the policy decided to reject outright, each with a reason.

        The engine polls this once per tick after executing the decisions
        and marks the returned jobs dismissed, removing them from the
        queue. Draining transfers ownership: the policy must forget the
        jobs it returns. The default policy never dismisses.
        """
        return []

    def held_jobs(self) -> int:
        """Queued jobs the policy deliberately held back this tick.

        Power-capped policies hold jobs that fit the free nodes but not
        the active power budget; the engine feeds the count to the stats
        collector's ``capped_hold_s`` integral. The default holds none.
        """
        return 0

    @hot_path
    def next_event_hint(self, queue: Sequence[Job], now: float) -> float | None:
        """Earliest future time this policy might start a job spontaneously.

        The engine uses this for event-driven time advancement: between
        ``now`` and the earliest of (next submission, next running-job end,
        this hint, the horizon) the simulation state cannot change, so the
        engine may coalesce the intervening no-op ticks into one sample.

        Return ``None`` when the policy only ever acts in response to a
        submission or a release (both of which the engine tracks as events
        of their own); return a time ``<= now`` to veto coalescing
        entirely. The engine calls this *after* :meth:`schedule` within a
        tick, so the queue contains only jobs the policy just declined to
        start. As with :meth:`schedule`, the queue is the engine's live
        list and must be treated as read-only.

        The default is conservative: a non-empty queue vetoes coalescing,
        an empty queue allows it freely.
        """
        return now if queue else None

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
        #: Due jobs whose placement failed: they wait for a release.
        self._delayed: set[int] = set()
        #: Jobs proposed at least once; proposing one again means the
        #: earlier proposal did not start it.
        self._proposed: set[int] = set()
        #: (now, job ids expected in the queue after the engine executes
        #: the returned decisions, earliest future recorded start) stashed
        #: by :meth:`schedule` so the engine's same-tick
        #: :meth:`next_event_hint` call skips the sort and the per-job due
        #: checks. Jobs the engine starts between the two calls are all
        #: *due* (recorded start <= now), so removing them from the queue
        #: can never change the future-start minimum; the exact id match
        #: guards direct callers that drop the decisions on the floor or
        #: present a different queue.
        self._hint_stash: tuple[float, frozenset[int], float | None] | None = None
        #: Memoized queue ordering: ((resource-manager epoch, queue length),
        #: member job ids, the sorted list). Within the engine, the queue's
        #: composition can only change through a submission (length changes)
        #: or a start (allocation bumps the epoch), so an (epoch, length)
        #: match plus the id check — O(queue) but far cheaper than the
        #: O(queue log queue) sort with its per-job key tuples — proves the
        #: cached ordering is current. The sort keys (recorded start, job
        #: id) are immutable, so a membership match is an ordering match.
        self._order_memo: (
            tuple[tuple[int, int], frozenset[int], list[Job]] | None
        ) = None
        #: Observability counters (published as ``sched_*_total`` metrics).
        self.order_memo_hits = 0
        self.hint_stash_hits = 0

    def reset(self) -> None:
        self._delayed.clear()
        self._proposed.clear()
        self._hint_stash = None
        self._order_memo = None
        self.order_memo_hits = 0
        self.hint_stash_hits = 0

    def observability_counters(self) -> dict[str, int]:
        return {
            "replay_order_memo_hits": self.order_memo_hits,
            "replay_hint_stash_hits": self.hint_stash_hits,
        }

    def _ordered_queue(
        self, queue: Sequence[Job], resource_manager: ResourceManager
    ) -> list[Job]:
        """The queue sorted by (recorded start, job id), memoized."""
        key = (resource_manager.epoch, len(queue))
        memo = self._order_memo
        if (
            memo is not None
            and memo[0] == key
            and all(job.job_id in memo[1] for job in queue)
        ):
            self.order_memo_hits += 1
            return memo[2]
        ordered = sorted(queue, key=lambda j: (j.start_time, j.job_id))
        self._order_memo = (
            key, frozenset(job.job_id for job in ordered), ordered
        )
        return ordered

    def schedule(
        self, queue: Sequence[Job], resource_manager: ResourceManager, now: float
    ) -> list[SchedulingDecision]:
        ordered = self._ordered_queue(queue, resource_manager)
        # ``ordered`` ascends by recorded start, so the due jobs are exactly
        # the prefix with start_time <= now.
        cut = bisect_right(ordered, now, key=lambda j: j.start_time)
        due = ordered[:cut]
        future_min = ordered[cut].start_time if cut < len(ordered) else None
        if not due:
            self._hint_stash = (
                now, frozenset(job.job_id for job in ordered), future_min
            )
            return []
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
            feasible = not (claimed & set(job.recorded_nodes)) and all(
                owner[nid] is FREE for nid in job.recorded_nodes
            )
            if not feasible:
                self._delayed.add(job.job_id)
                continue
            claimed.update(job.recorded_nodes)
            decisions.append(self._decide(job, now, exact_placement=True))
        # With no recorded placements to protect this tick, a count ledger
        # suffices and the resource manager picks the nodes (cheap on large
        # systems); otherwise select explicit free nodes around the claims.
        free_counts = _FreeNodeCounts(resource_manager)
        for job in flex_jobs:
            if not claimed:
                if not free_counts.fits(job):
                    self._delayed.add(job.job_id)
                    continue
                free_counts.consume(job)
                decisions.append(self._decide(job, now))
                continue
            partition = free_counts.partition_key(job)
            free = [
                nid
                for nid in resource_manager.available_node_ids(partition)
                if nid not in claimed
            ]
            if len(free) < job.nodes_required:
                self._delayed.add(job.job_id)
                continue
            chosen = tuple(free[: job.nodes_required])
            claimed.update(chosen)
            decisions.append(self._decide(job, now, node_ids=chosen))
        started_ids = {decision.job.job_id for decision in decisions}
        self._hint_stash = (
            now,
            frozenset(
                job.job_id for job in ordered if job.job_id not in started_ids
            ),
            future_min,
        )
        return decisions

    def _decide(
        self,
        job: Job,
        now: float,
        *,
        node_ids: tuple[int, ...] | None = None,
        exact_placement: bool = False,
    ) -> SchedulingDecision:
        """Propose ``job``: at its recorded start the first time, now after.

        A job proposed again was not started by its earlier proposal: its
        placement failed, or a wrapping policy such as
        :class:`PowerCapScheduler` held it. It then starts at the tick that
        admits it, never backdated to its recorded start, and is tagged
        delayed. A free-node placement of a job with recorded nodes is
        tagged relocated.
        """
        job_id = job.job_id
        delayed = job_id in self._delayed or job_id in self._proposed
        if not delayed:
            self._proposed.add(job_id)
        return SchedulingDecision(
            job,
            node_ids=node_ids,
            exact_placement=exact_placement,
            start_time=now if delayed else job.start_time,
            replay_delayed=delayed,
            replay_relocated=bool(job.recorded_nodes) and not exact_placement,
        )

    @hot_path
    def next_event_hint(self, queue: Sequence[Job], now: float) -> float | None:
        """The earliest backdated (recorded) start still ahead of ``now``.

        Queued jobs whose recorded start lies in the future are pure timer
        events; jobs already due can only have been left in the queue
        because their placement failed this tick (they are in
        ``_delayed``), and a failed placement can only succeed after a
        release — which the engine tracks as an event of its own. A due
        job that has *not* been attempted yet (``schedule`` not called)
        vetoes coalescing.

        When :meth:`schedule` already ran at this ``now`` on this exact
        residual queue (the engine's calling order), its stashed
        future-start minimum answers without re-sorting or re-checking
        dueness; any job it started since was due, so the stash cannot
        have gone stale. Any other caller — schedule skipped, its
        decisions dropped, a different queue — fails the id match and
        falls back to the O(queue) scan.
        """
        if not queue:
            return None
        if self._hint_stash is not None:
            stash_now, expected_ids, future_min = self._hint_stash
            if (
                stash_now == now
                and len(queue) == len(expected_ids)
                # Id-set membership test, O(queue) by construction: the
                # stash is only valid for this exact residual queue.
                and all(job.job_id in expected_ids for job in queue)  # repro-lint: disable=hot-path
            ):
                # Every due job was either started (left the queue) or
                # recorded in _delayed by the schedule() call that filled
                # the stash, so the veto case cannot arise here.
                self.hint_stash_hits += 1
                return future_min
        hint: float | None = None
        # Stash miss: the O(queue) fallback scan the stash exists to avoid.
        for job in queue:  # repro-lint: disable=hot-path
            if job.start_time > now:
                hint = job.start_time if hint is None else min(hint, job.start_time)
            elif job.job_id not in self._delayed:
                return now
        return hint


class FCFSScheduler(Scheduler):
    """Strict first-come-first-served.

    Jobs start in submission order; the first job that does not fit blocks
    everything behind it (no backfilling). This is the baseline rescheduling
    policy of the paper's Sec. 4.2 comparison.
    """

    name = "fcfs"

    def schedule(
        self, queue: Sequence[Job], resource_manager: ResourceManager, now: float
    ) -> list[SchedulingDecision]:
        decisions: list[SchedulingDecision] = []
        free_counts = _FreeNodeCounts(resource_manager)
        for job in queue:
            if not free_counts.fits(job):
                break
            free_counts.consume(job)
            decisions.append(SchedulingDecision(job))
        return decisions

    @hot_path
    def next_event_hint(self, queue: Sequence[Job], now: float) -> float | None:
        """FCFS never acts spontaneously.

        Whether the queue head fits depends only on the free-node counts,
        which change exclusively on releases (and the queue itself only on
        submissions) — both tracked by the engine as events. Blocked now
        means blocked until the next event, so coalescing is always safe.
        """
        return None


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
        #: Memoized "nothing startable" key: (resource-manager epoch, queue
        #: job ids). The full EASY pass is O(queue × occupants); with
        #: breakpoint-bounded coalescing the engine steps on every profile
        #: breakpoint, and re-running that pass each power-only step would
        #: dominate busy traces. A no-op decision is a pure function of the
        #: free-node inventory (changes only with the epoch) and the queue
        #: composition: the only ``now``-dependent test,
        #: ``now + requested_runtime <= shadow_time``, can flip true→false
        #: but never false→true as ``now`` advances, so a declined queue
        #: stays declined until the next allocation, release or submission.
        self._noop_key: tuple[int, tuple[int, ...]] | None = None
        #: Observability counters (published as ``sched_*_total`` metrics).
        self.reservations_computed = 0
        self.reservations_indexed = 0
        self.noop_memo_hits = 0

    def reset(self) -> None:
        self._noop_key = None
        self.reservations_computed = 0
        self.reservations_indexed = 0
        self.noop_memo_hits = 0

    def observability_counters(self) -> dict[str, int]:
        return {
            "backfill_reservations": self.reservations_computed,
            "backfill_reservations_indexed": self.reservations_indexed,
            "backfill_noop_memo_hits": self.noop_memo_hits,
        }

    def schedule(
        self, queue: Sequence[Job], resource_manager: ResourceManager, now: float
    ) -> list[SchedulingDecision]:
        key = (resource_manager.epoch, tuple(job.job_id for job in queue))
        if key == self._noop_key:
            self.noop_memo_hits += 1
            return []
        decisions = self._schedule(queue, resource_manager, now)
        self._noop_key = None if decisions else key
        return decisions

    def _schedule(
        self, queue: Sequence[Job], resource_manager: ResourceManager, now: float
    ) -> list[SchedulingDecision]:
        decisions: list[SchedulingDecision] = []
        free_counts = _FreeNodeCounts(resource_manager)
        #: (expected end, job, registered partition) of jobs started this tick.
        started: list[tuple[float, Job, str | None]] = []

        # Phase 1 — plain FCFS prefix. An index cursor over the engine's
        # live queue: no per-call list copy, no O(queue) pop(0) shuffles.
        index = 0
        count = len(queue)
        while index < count:
            job = queue[index]
            if not free_counts.fits(job):
                break
            index += 1
            free_counts.consume(job)
            started.append((now + job.requested_runtime, job, free_counts.partition_key(job)))
            decisions.append(SchedulingDecision(job))

        if index == count:
            return decisions

        # Phase 2 — reservation for the blocked head, against the node pool
        # the head actually draws from (its partition, when registered).
        head = queue[index]
        index += 1
        head_key = free_counts.partition_key(head)
        shadow_time, spare_nodes = self._reserve(
            head, head_key, free_counts, resource_manager, started, now
        )

        # Phase 3 — backfill behind the reservation.
        for position in range(index, count):
            job = queue[position]
            if not free_counts.fits(job):
                continue
            job_key = free_counts.partition_key(job)
            # A job confined to a different registered partition can never
            # occupy the head's reserved nodes, so it backfills freely.
            independent = (
                head_key is not None and job_key is not None and job_key != head_key
            )
            ends_before_shadow = now + job.requested_runtime <= shadow_time
            constrained = not independent and not ends_before_shadow
            if constrained and job.nodes_required > spare_nodes:
                continue
            free_counts.consume(job)
            if constrained:
                spare_nodes -= job.nodes_required
            decisions.append(SchedulingDecision(job))
        return decisions

    @hot_path
    def next_event_hint(self, queue: Sequence[Job], now: float) -> float | None:
        """EASY backfill never acts spontaneously between events.

        With the running set and the queue frozen, the free-node counts and
        the reservation's ``spare_nodes`` are constant; the only
        now-dependent quantity is the shadow time ``max(now, end_k)``, and
        the backfill condition ``now + requested_runtime <= shadow_time``
        can only flip from true to false as ``now`` advances (or stays
        constant in the overrun case ``shadow == now``). A job declined
        this tick therefore stays declined until the next submission or
        release, so coalescing is always safe.
        """
        return None

    def _reserve(
        self,
        head: Job,
        head_key: str | None,
        free_counts: "_FreeNodeCounts",
        resource_manager: ResourceManager,
        started: list[tuple[float, Job, str | None]],
        now: float,
    ) -> tuple[float, int]:
        """Shadow reservation for the blocked head: ``(shadow_time, spare)``.

        When the head draws from the whole node pool (no registered
        partition, or a partition spanning every node — every single-
        partition system), each occupant's overlap with the head's pool is
        simply its full node count, so the walk can consume the resource
        manager's expected-release index directly: occupants arrive in
        ``(expected end, nodes)`` order — the exact order the historical
        ``sorted(occupants)`` produced (ties beyond that are
        indistinguishable to the arithmetic) — merged with this tick's own
        starts, and the walk stops as soon as the head fits. That replaces
        the per-call O(running set) occupant scan with its per-node overlap
        loop and the O(R log R) sort. Heads confined to a proper partition
        take the occupant scan (:meth:`_occupants` + :meth:`_reservation`),
        which counts only the nodes inside that partition.
        """
        self.reservations_computed += 1
        free_now = free_counts.free_in(head_key)
        whole_pool = head_key is None
        if not whole_pool:
            node_range = resource_manager.system.partition_node_range(head_key)
            whole_pool = (
                node_range.start == 0
                and node_range.stop == resource_manager.total_nodes
            )
        if whole_pool:
            self.reservations_indexed += 1
            started_entries = sorted(
                (end, job.nodes_required, job.job_id) for end, job, _ in started
            )
            available = free_now
            for end, nodes, _ in heapq.merge(
                resource_manager.expected_release_entries(), started_entries
            ):
                available += nodes
                if available >= head.nodes_required:
                    # Overrun convention as in _reservation: a stale
                    # expected end never shadows before the current tick.
                    return max(now, end), available - head.nodes_required
            return float("inf"), 0
        occupants = self._occupants(resource_manager, started, head_key, now)
        return self._reservation(head, free_now, occupants, now)

    @staticmethod
    def _occupants(
        resource_manager: ResourceManager,
        started: list[tuple[float, Job, str | None]],
        head_key: str | None,
        now: float,
    ) -> list[tuple[float, int]]:
        """(expected end, nodes relevant to the head's pool) of occupying jobs.

        Running jobs contribute their actual node overlap with the head's
        partition; jobs decided earlier this tick (no placement yet)
        contribute their full request when they draw from the head's pool.
        """
        if head_key is None:
            node_range = None
        else:
            node_range = resource_manager.system.partition_node_range(head_key)
        occupants: list[tuple[float, int]] = []
        for run in resource_manager.running_jobs:
            start = run.sim_start_time if run.sim_start_time is not None else now
            if node_range is None:
                overlap = run.job.nodes_required
            else:
                overlap = sum(
                    1
                    for nid in run.assigned_nodes
                    if node_range.start <= nid < node_range.stop
                )
            if overlap:
                occupants.append((start + run.job.requested_runtime, overlap))
        for end, job, job_key in started:
            if head_key is None or job_key is None or job_key == head_key:
                occupants.append((end, job.nodes_required))
        return occupants

    @staticmethod
    def _reservation(
        head: Job,
        free_now: int,
        occupants: list[tuple[float, int]],
        now: float,
    ) -> tuple[float, int]:
        """Return ``(shadow_time, spare_nodes)`` for the blocked head job.

        ``shadow_time`` is when enough nodes have been freed (by expected
        end times) for the head to start; ``spare_nodes`` is how many nodes
        remain free at that moment beyond the head's reservation — the
        budget available to backfill jobs that outlive the shadow time.
        """
        available = free_now
        for end, nodes in sorted(occupants):
            available += nodes
            if available >= head.nodes_required:
                # A job that overran its wall-time limit has an expected end
                # in the past; assume it ends imminently (the usual EASY
                # convention), never before the current tick.
                return max(now, end), available - head.nodes_required
        # Head can never fit by this estimate (should have been dismissed
        # at submission); reserve nothing rather than crash.
        return float("inf"), 0


class _FreeNodeCounts:
    """Per-partition free-node ledger a policy debits as it decides.

    The resource manager's availability only changes when the engine
    executes decisions, so a policy emitting several decisions in one tick
    must do its own bookkeeping to avoid overcommitting. Jobs naming an
    unregistered partition are placed from the whole node pool, so their
    consumption is debited against *every* named ledger (conservative: a
    later same-tick decision may be deferred to the next tick, but can
    never overcommit).
    """

    def __init__(self, resource_manager: ResourceManager) -> None:
        self._rm = resource_manager
        self._free: dict[str | None, int] = {None: resource_manager.free_node_count()}
        #: Nodes consumed pool-wide (unregistered-partition jobs); already
        #: materialized named ledgers are debited directly, ones
        #: materialized later subtract this debt from the fresh RM count.
        self._pool_debt = 0

    @property
    def total_free(self) -> int:
        return self._free[None]

    def partition_key(self, job: Job) -> str | None:
        """The job's partition if registered, else ``None`` (whole pool)."""
        if any(p.name == job.partition for p in self._rm.system.partitions):
            return job.partition
        return None

    def free_in(self, key: str | None) -> int:
        """Free nodes remaining in one partition (or the whole pool)."""
        if key not in self._free:
            fresh = self._rm.free_node_count(key)
            self._free[key] = max(0, fresh - self._pool_debt)
        return self._free[key]

    def fits(self, job: Job) -> bool:
        if job.nodes_required > self._free[None]:
            return False
        key = self.partition_key(job)
        return key is None or job.nodes_required <= self.free_in(key)

    def consume(self, job: Job) -> None:
        """Debit the ledger for one decision."""
        n = job.nodes_required
        key = self.partition_key(job)
        self._free[None] -= n
        if key is not None:
            self._free[key] = self.free_in(key) - n
        else:
            self._pool_debt += n
            for ledger_key in self._free:
                if ledger_key is not None:
                    self._free[ledger_key] = max(0, self._free[ledger_key] - n)


class PowerCapScheduler(Scheduler):
    """Power-capping wrapper: admit a base policy's starts under a cap.

    Composes over any base policy (replay/FCFS/backfill): the base proposes
    start decisions as usual and the wrapper greedily admits them, in
    order, while the *projected* IT power stays under the active
    ``power_cap_kw`` from :class:`~repro.power.signals.OperatingSignals`.
    Projected power is the system's idle floor (every node's minimum draw)
    plus, per admitted job, its peak incremental draw over the idle
    baseline of the nodes it occupies. The per-job peak is conservative,
    so a run under a *constant* cap can never record compute power above
    the cap (``cap_violation_kwh`` stays zero). Demand-response windows
    that drop the cap below already-committed load — or below the idle
    floor itself — can still record violations: capping holds *future*
    starts, it does not checkpoint running jobs.

    Jobs whose incremental draw can never fit under any present-or-future
    cap are dismissed with a reason instead of deadlocking an FCFS queue
    head forever; held jobs simply stay queued and are re-proposed by the
    base policy next tick.
    """

    def __init__(self, base: Scheduler, signals: OperatingSignals) -> None:
        self.base = base
        self.signals = signals
        self.name = f"power_cap({base.name})"
        self._power_model: SystemPowerModel | None = None
        self._idle_floor_kw = 0.0
        #: Peak incremental draw per job id (jobs are immutable, so the
        #: grid evaluation in job_peak_power_w runs once per job).
        self._incr_kw_cache: dict[int, float] = {}
        #: Incremental draw committed per admitted job still running,
        #: purged against the resource manager's running set on each
        #: allocation epoch change.
        self._committed_kw: dict[int, float] = {}
        self._committed_total_kw = 0.0
        self._epoch = -1
        self._held = 0
        #: Dismissals produced by the *latest* pass (not yet superseded by
        #: another pass). A dismissal mutates the queue after the base
        #: policy ran, so the base must be re-consulted on the very next
        #: grid tick — see :meth:`next_event_hint`.
        self._dismissed_pass = 0
        self._dismissals: list[tuple[Job, str]] = []
        #: Observability counters (published as ``sched_*_total`` metrics).
        self._holds_total = 0
        self._dismissed_total = 0

    def bind_power_model(self, model: SystemPowerModel) -> None:
        """Attach the run's power model (the engine calls this once)."""
        self._power_model = model
        self._idle_floor_kw = model.system.idle_system_power_kw

    def reset(self) -> None:
        self.base.reset()
        self._incr_kw_cache.clear()
        self._committed_kw.clear()
        self._committed_total_kw = 0.0
        self._epoch = -1
        self._held = 0
        self._dismissed_pass = 0
        self._dismissals.clear()
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
    ) -> list[SchedulingDecision]:
        self._held = 0
        self._dismissed_pass = 0
        if resource_manager.epoch != self._epoch:
            # Releases only happen across epoch changes, so the committed
            # ledger needs purging exactly then. Recomputing the total from
            # the surviving entries keeps float error from accumulating.
            self._epoch = resource_manager.epoch
            running = resource_manager.running_by_id
            for job_id in [j for j in self._committed_kw if j not in running]:
                del self._committed_kw[job_id]
            self._committed_total_kw = sum(self._committed_kw.values())
        proposals = self.base.schedule(queue, resource_manager, now)
        if not proposals:
            return proposals
        cap_kw = self.signals.cap_at(now)
        budget_kw = cap_kw - self._idle_floor_kw - self._committed_total_kw
        admitted: list[SchedulingDecision] = []
        for decision in proposals:
            job = decision.job
            incr_kw = self._incr_kw(job)
            if incr_kw <= budget_kw:
                admitted.append(decision)
                budget_kw -= incr_kw
                self._committed_kw[job.job_id] = incr_kw
                self._committed_total_kw += incr_kw
                continue
            headroom_kw = self.signals.max_cap_at_or_after(now) - self._idle_floor_kw
            if incr_kw > headroom_kw:
                self._dismissals.append(
                    (
                        job,
                        "power cap infeasible: needs "
                        f"{incr_kw:.3f} kW over the idle floor, best "
                        f"present-or-future headroom {headroom_kw:.3f} kW",
                    )
                )
                self._dismissed_total += 1
                self._dismissed_pass += 1
                continue
            self._held += 1
            self._holds_total += 1
        return admitted

    def drain_dismissals(self) -> list[tuple[Job, str]]:
        drained = self._dismissals
        self._dismissals = []
        return drained

    def held_jobs(self) -> int:
        return self._held

    @hot_path
    def next_event_hint(self, queue: Sequence[Job], now: float) -> float | None:
        """Veto coalescing while any job is held back by the cap.

        A held job's admissibility depends on the active cap *and* on the
        base policy's proposal set, which (for backfill) can change with
        ``now`` alone mid-interval as the shadow-time test ages; dense
        stepping while holding keeps the dense and event-driven schedules
        identical. A pass that *dismissed* jobs vetoes once too: the
        dismissal removes queue entries after the base policy ran, so the
        base's no-op contract (queue and running set frozen between events)
        no longer holds — dismissing a blocked FCFS/backfill head unblocks
        the jobs behind it on the very next grid tick, which a dense run
        acts on immediately. With nothing held and nothing just dismissed,
        the admitted set equals the base's proposals, so the base policy's
        own coalescing contract applies unchanged. Cap *changes* bound
        coalescing globally through the engine's signal breakpoint stream,
        not through this hint.
        """
        if self._held or (self._dismissed_pass and queue):
            return now
        return self.base.next_event_hint(queue, now)


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
