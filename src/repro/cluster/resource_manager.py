"""The resource manager: node-owner table, allocation and release.

The resource manager completes placements decided by the scheduler
(Sec. 3.2.3/3.2.4 of the paper): in replay mode the exact recorded node set
is enforced, in reschedule mode the scheduler requests *n* nodes and the
resource manager selects them. It also resolves the timing corner case the
paper mentions — jobs ending and starting on the same node within the same
time step — because releases are always processed before new allocations in
the engine's step order.

Node occupancy is one owner table: ``owner[node_id]`` holds the id of the
job running on the node, :data:`FREE` or :data:`DOWN`. Per-partition free
counts and lowest-id-first free heaps index it, so a placement never scans
the inventory. What the resource manager allocates and releases are the
engine's :class:`~repro.telemetry.job.JobRun` records; the read-only
:class:`~repro.telemetry.job.Job` inside each one is never written.

It is also the one owner of the rule "which partition does this job run
in": every job runs in exactly one partition — its own when the system has
it, otherwise the system's first partition, the partition whose node model
prices it (:meth:`~repro.power.SystemPowerModel.node_model`). The policies
and the engine ask it (:meth:`ResourceManager.partition_of` and the
per-partition queries) instead of re-deriving the rule.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from collections import Counter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence, ValuesView

import numpy as np

from ..config import SystemConfig
from ..exceptions import AllocationError
from ..devtools import hot_path
from ..telemetry.job import Job, JobRun, JobState

#: Owner-table entry of an idle, in-service node.
FREE = None
#: Owner-table entry of a down or drained node; never allocated. The public
#: datasets do not record this, but the engine supports it for what-if
#: studies (the paper notes its absence inflates rescheduled utilization).
DOWN = "down"

#: An expected-release entry: ``(expected end, nodes in the partition, job id)``.
_Expected = tuple[float, int, int]


class ResourceManager:
    """Owns the node inventory of a simulated system.

    Parameters
    ----------
    system:
        The system configuration (node counts, partitions, down fraction).
    seed:
        Seed used only to pick which nodes are marked down when
        ``system.down_node_fraction`` is non-zero.
    """

    def __init__(self, system: SystemConfig, *, seed: int = 0) -> None:
        self.system = system
        total = system.total_nodes
        #: ``owner[node_id]``: the running job's id, :data:`FREE` or
        #: :data:`DOWN`. Read-only outside this class: allocate and release
        #: keep it in step with the free counts, heaps and counters below.
        self.owner: list[int | str | None] = [FREE] * total
        self._running: dict[int, JobRun] = {}
        if system.down_node_fraction > 0.0:
            rng = np.random.default_rng(seed)
            n_down = int(round(system.down_node_fraction * total))
            for node_id in rng.choice(total, size=n_down, replace=False):
                self.owner[int(node_id)] = DOWN

        # Free-node index: per-partition free counts plus min-heaps
        # (lowest-id-first selection) so placing a job is O(n log N) instead
        # of a full inventory scan. Heap entries staled by explicit
        # placements are discarded lazily: the owner table is the truth.
        self._partition_of: list[str] = [""] * total
        self._default_partition = system.partitions[0].name
        self._free_count: dict[str, int] = {}
        self._free_heaps: dict[str, list[int]] = {}
        for partition in system.partitions:
            node_range = system.partition_node_range(partition.name)
            self._partition_of[node_range.start : node_range.stop] = [
                partition.name
            ] * len(node_range)
            free_ids = [nid for nid in node_range if self.owner[nid] is FREE]
            self._free_count[partition.name] = len(free_ids)
            self._free_heaps[partition.name] = free_ids  # ascending == valid heap

        #: In-service nodes per partition, fixed after the down-node draw
        #: (every in-service node is still free here).
        self._capacity = dict(self._free_count)

        # Inventory counters kept in lockstep with allocate/release so the
        # per-step queries are O(1) instead of full inventory scans; the
        # down count is immutable after the seed draw above. The epoch
        # increments on every allocation/release, giving consumers (the
        # incremental power aggregator, scheduler memoization) a cheap
        # "did the running set change?" check.
        self._down_count = self.owner.count(DOWN)
        self._allocated_count = 0
        self._epoch = 0

        # End-time index: a min-heap of (end time, job id) entries plus the
        # authoritative job-id -> end-time map. Entries are pushed on
        # allocate; a release (early, e.g. horizon truncation) merely drops
        # the map entry, leaving the heap entry stale — stale entries are
        # recognised on access (map disagrees with the entry) and popped
        # exactly once, never to be revisited. complete_finished_jobs and
        # next_job_end are thereby O(k log R) for k due/stale entries
        # instead of a full running-set scan.
        self._end_heap: list[tuple[float, int]] = []
        self._end_of: dict[int, float] = {}

        # Allocate/release journal: every membership change appends one
        # ``(is_allocation, job_id)`` entry. Its one consumer, the engine's
        # power aggregator, drains it whenever the epoch moved, so it holds
        # one step's changes and the aggregator applies them in O(changes)
        # instead of diffing its cached job set against the running set.
        self._journal: list[tuple[bool, int]] = []

        # Expected-release index for the EASY shadow reservation, one list
        # per partition: running jobs ordered by ``(sim_start +
        # requested_runtime, nodes in the partition)`` — the planning view a
        # scheduler has (wall-time limits), distinct from the end-time heap
        # above (actual recorded durations). Each list is insort-maintained
        # and holds exactly the running jobs' entries, so the reservation
        # walk reads occupants in expected-end order with early exit instead
        # of materialising and sorting the running set per call. Each
        # running job's entries are kept with their lists for its release.
        self._expected_sorted: dict[str, list[_Expected]] = {
            name: [] for name in self._free_count
        }
        self._expected_entries: dict[int, list[tuple[list[_Expected], _Expected]]] = {}

        # Observability counters: plain ints bumped on already-per-event
        # paths (never per step), folded into the engine's metrics registry
        # at run finalisation via :meth:`observability_counters`.
        self.end_heap_pops = 0
        self.end_heap_stale_pops = 0
        self.journal_appends = 0
        self.journal_drains = 0

    # -- inventory queries -----------------------------------------------------

    @property
    def total_nodes(self) -> int:
        """Total node count (including down nodes)."""
        return len(self.owner)

    @property
    def allocated_nodes(self) -> int:
        """Number of nodes currently running a job (O(1) counter)."""
        return self._allocated_count

    @property
    def down_nodes(self) -> int:
        """Number of down/drained nodes (immutable after the seed draw)."""
        return self._down_count

    @property
    def epoch(self) -> int:
        """Monotonic counter bumped on every allocation or release.

        Two calls observing the same epoch are guaranteed to see the same
        running set and free-node inventory, which lets consumers cache
        derived state (per-job power contributions, no-op scheduling
        decisions) without re-scanning anything.
        """
        return self._epoch

    @property
    def running_jobs(self) -> list[JobRun]:
        """Runs currently occupying nodes (stable job-id order)."""
        return [self._running[jid] for jid in sorted(self._running)]

    @property
    def running_by_id(self) -> Mapping[int, JobRun]:
        """Read-only live view of the running jobs keyed by job id."""
        return MappingProxyType(self._running)

    def available_node_ids(self, partition: str | None = None) -> list[int]:
        """Ids of idle nodes in ascending order, optionally of one partition."""
        if partition is None:
            return [nid for nid, owner in enumerate(self.owner) if owner is FREE]
        node_range = self.system.partition_node_range(partition)  # validates
        owner = self.owner
        return [nid for nid in node_range if owner[nid] is FREE]

    def free_node_count(self, partition: str | None = None) -> int:
        """Idle in-service nodes of one partition (``None``: the whole
        system), from the O(1) free counts."""
        if partition is None:
            return len(self.owner) - self._allocated_count - self._down_count
        return self._free_count.get(partition, 0)

    @property
    def partition_free_counts(self) -> ValuesView[int]:
        """Idle in-service nodes of each partition, in configuration order
        (a live read-only view; the power model counts idle power from it)."""
        return self._free_count.values()

    # -- partitions ------------------------------------------------------------

    def partition_of(self, job: Job) -> str:
        """The partition ``job`` runs in: its own when the system has it,
        otherwise the system's first partition."""
        partition = job.partition
        return partition if partition in self._capacity else self._default_partition

    def partition_capacity(self, partition: str) -> int:
        """In-service nodes of a partition (fixed after the down-node draw)."""
        return self._capacity[partition]

    # -- allocation / release ---------------------------------------------------

    def allocate(
        self,
        run: JobRun,
        now: float,
        *,
        node_ids: Sequence[int] | None = None,
        exact_placement: bool = False,
    ) -> tuple[int, ...]:
        """Place ``run``'s job on nodes at time ``now`` and mark it running.

        Parameters
        ----------
        run:
            The run to place. Must be queued (or pending for prepopulation).
        now:
            Current simulation time.
        node_ids:
            Explicit placement (scheduler- or replay-chosen). When omitted,
            the lowest-id free nodes of the job's partition
            (:meth:`partition_of`) are used.
        exact_placement:
            Replay mode — require the job's recorded nodes; if any of them is
            unavailable an :class:`AllocationError` is raised.

        Returns
        -------
        tuple[int, ...]
            The node ids the job was placed on.
        """
        job = run.job
        job_id = run.job_id
        if job_id in self._running:
            raise AllocationError(f"job {job_id} is already running")
        if exact_placement and not job.recorded_nodes:
            raise AllocationError(
                f"job {job_id}: exact placement requested but the job "
                "has no recorded nodes"
            )
        if exact_placement or node_ids is not None:
            chosen = tuple(job.recorded_nodes if exact_placement else node_ids)
            self._claim(chosen, job_id, job.nodes_required)
            # An explicit placement may hold nodes of several partitions
            # (recorded telemetry); each counts its own share.
            partition_of = self._partition_of
            shares: Iterable[tuple[str, int]] = Counter(
                partition_of[nid] for nid in chosen
            ).items()
        else:
            partition = self.partition_of(job)
            free = self._free_count[partition]
            if free < job.nodes_required:
                raise AllocationError(
                    f"job {job_id}: requested {job.nodes_required} nodes, "
                    f"only {free} available"
                )
            chosen = self._claim_lowest_free(job.nodes_required, partition, job_id)
            shares = ((partition, job.nodes_required),)

        run.mark_running(now, chosen)
        self._running[job_id] = run
        self._allocated_count += len(chosen)
        self._epoch += 1
        end_time = now + job.duration
        self._end_of[job_id] = end_time
        heapq.heappush(self._end_heap, (end_time, job_id))
        expected_end = now + job.requested_runtime
        entries = self._expected_entries[job_id] = [
            (self._expected_sorted[name], (expected_end, nodes, job_id))
            for name, nodes in shares
        ]
        for ordered, entry in entries:
            insort(ordered, entry)
        self._journal.append((True, job_id))
        self.journal_appends += 1
        return chosen

    def release(self, run: JobRun, now: float) -> None:
        """Free the nodes of a finished run and mark it completed."""
        if run.job_id not in self._running:
            raise AllocationError(f"job {run.job_id} is not running")
        # The heap entry goes stale (the map no longer vouches for it) and
        # is discarded lazily the next time it surfaces.
        self._end_of.pop(run.job_id, None)
        self._release(run, now)

    @hot_path
    def complete_finished_jobs(self, now: float) -> list[JobRun]:
        """Release every running job whose simulated end time has arrived.

        This is step (1) of the engine loop — clearing completed jobs before
        new submissions and scheduling, which resolves same-timestep
        end/start collisions on a node. A job is due once its indexed end
        time ``sim_start + duration`` — the exact event bound the engine
        coalesces towards — is at or before ``now``. This supersedes the
        historical elapsed-time comparison (``now - sim_start >=
        duration``), which could disagree with the event bound by one ulp
        and leave the engine stepping onto a release tick that then
        released nothing; the two conditions differ only in sub-ulp float
        cases, where the indexed form releases one grid tick earlier and
        drops the spurious extra step.

        The due set comes from the end-time min-heap: ``O(k log R)`` for
        ``k`` due jobs (plus any stale entries surfacing, each discarded
        exactly once) instead of a scan of the running set. Due jobs are
        released in job-id order.
        """
        finished = []
        while (entry := self._peek_live_end()) is not None:
            end_time, job_id = entry
            if end_time > now:
                break
            heapq.heappop(self._end_heap)
            self.end_heap_pops += 1
            finished.append(self._running[job_id])
        finished.sort(key=lambda run: run.job_id)
        for run in finished:
            self._release(run, self._end_of.pop(run.job_id))
        return finished

    @hot_path
    def next_job_end(self) -> float | None:
        """Earliest indexed end time over the running set, or ``None``.

        Peeks the end-time heap, discarding stale entries as they surface,
        so the amortised cost is ``O(log R)`` — the engine's event-driven
        coalescing uses this as the running-set release bound instead of a
        per-step scan.
        """
        entry = self._peek_live_end()
        return entry[0] if entry is not None else None

    @hot_path
    def _peek_live_end(self) -> tuple[float, int] | None:
        """Top live ``(end time, job id)`` heap entry, or ``None``.

        Encodes the lazy-deletion rule in one place: an entry the map no
        longer vouches for is stale and is popped exactly once, never to
        be revisited.
        """
        heap = self._end_heap
        while heap:
            end_time, job_id = heap[0]
            if self._end_of.get(job_id) != end_time:
                heapq.heappop(heap)
                self.end_heap_pops += 1
                self.end_heap_stale_pops += 1
                continue
            return end_time, job_id
        return None

    # -- change journal / expected-release index ---------------------------------

    def drain_change_journal(self) -> list[tuple[bool, int]]:
        """The ``(is_allocation, job_id)`` entries since the last drain.

        Chronological; the journal is empty afterwards.
        """
        entries = self._journal
        self._journal = []
        self.journal_drains += 1
        return entries

    def expected_release_entries(self, partition: str) -> Iterator[_Expected]:
        """Running jobs holding nodes of ``partition`` as ``(expected end,
        nodes in the partition, job_id)``, ordered.

        Ascending by ``(sim_start + requested_runtime, nodes)`` — exactly
        the order the EASY shadow reservation consumes occupants in (ties
        beyond that are indistinguishable to the reservation arithmetic).
        A plain iterator over the partition's insort-maintained index, which
        a release deletes from at once, so a walk that exits early (the
        reservation stops once the head fits) costs O(entries consumed),
        never a sort of the running set. The index must not change while a
        walk is open.
        """
        return iter(self._expected_sorted[partition])

    # -- owner table -------------------------------------------------------------

    def _claim(self, chosen: tuple[int, ...], job_id: int, nodes_required: int) -> None:
        """Validate an explicit placement, then give its nodes to ``job_id``."""
        if len(set(chosen)) != len(chosen):
            raise AllocationError(f"job {job_id}: duplicate node ids in placement")
        if len(chosen) != nodes_required:
            raise AllocationError(
                f"job {job_id}: placement of {len(chosen)} nodes does not "
                f"match request of {nodes_required}"
            )
        owner = self.owner
        missing = [nid for nid in chosen if not 0 <= nid < len(owner)]
        if missing:
            raise AllocationError(f"job {job_id}: nodes {missing[:8]} do not exist")
        # The owner of a busy node is its job's id, of a down node DOWN.
        taken = [nid for nid in chosen if owner[nid] is not FREE][:8]
        if taken:
            raise AllocationError(
                f"job {job_id}: nodes {taken} are not available (owners "
                f"{[owner[nid] for nid in taken]})"
            )
        free_count = self._free_count
        partition_of = self._partition_of
        for nid in chosen:
            owner[nid] = job_id
            free_count[partition_of[nid]] -= 1

    def _claim_lowest_free(self, count: int, partition: str, job_id: int) -> tuple[int, ...]:
        """Give the ``count`` lowest-id free nodes of ``partition`` to
        ``job_id``; the caller has checked that enough are free.

        Heap entries staled by explicit placements are discarded as they
        surface. Each node is claimed the moment it is popped, so a
        duplicate heap entry (stale, then re-pushed after a release) cannot
        be chosen twice within one selection.
        """
        heap = self._free_heaps[partition]
        owner = self.owner
        chosen: list[int] = []
        while len(chosen) < count:
            nid = heapq.heappop(heap)
            if owner[nid] is FREE:
                owner[nid] = job_id
                chosen.append(nid)
        self._free_count[partition] -= count
        return tuple(chosen)

    def _release(self, run: JobRun, now: float) -> None:
        """Return a running job's nodes to the free index; complete the run."""
        job_id = run.job_id
        owner = self.owner
        partition_of = self._partition_of
        free_count = self._free_count
        free_heaps = self._free_heaps
        for nid in run.assigned_nodes:
            if owner[nid] != job_id:
                raise AllocationError(
                    f"node {nid} is not allocated to job {job_id} "
                    f"(owner: {owner[nid]!r})"
                )
            owner[nid] = FREE
            name = partition_of[nid]
            free_count[name] += 1
            heapq.heappush(free_heaps[name], nid)
        del self._running[job_id]
        for ordered, entry in self._expected_entries.pop(job_id):
            del ordered[bisect_left(ordered, entry)]
        self._allocated_count -= len(run.assigned_nodes)
        self._epoch += 1
        self._journal.append((False, job_id))
        self.journal_appends += 1
        if run.state is JobState.RUNNING:
            run.mark_completed(now)

    def observability_counters(self) -> dict[str, int]:
        """Plain-int instrumentation counters (engine metrics publication).

        Keys become ``rm_<key>_total`` counters in the metrics registry.
        """
        return {
            "end_heap_pops": self.end_heap_pops,
            "end_heap_stale_pops": self.end_heap_stale_pops,
            "journal_appends": self.journal_appends,
            "journal_drains": self.journal_drains,
        }
