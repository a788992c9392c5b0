"""The resource manager: node inventory, allocation and release.

The resource manager completes placements decided by the scheduler
(Sec. 3.2.3/3.2.4 of the paper): in replay mode the exact recorded node set
is enforced, in reschedule mode the scheduler requests *n* nodes and the
resource manager selects them. It also resolves the timing corner case the
paper mentions — jobs ending and starting on the same node within the same
time step — because releases are always processed before new allocations in
the engine's step order.
"""

from __future__ import annotations

import heapq
from bisect import insort
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

import numpy as np

from ..config import SystemConfig
from ..exceptions import AllocationError
from ..devtools import hot_path
from ..telemetry.job import Job, JobState
from .node import Node, NodeState


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
        self.nodes: list[Node] = [Node(node_id=i) for i in range(system.total_nodes)]
        self._running: dict[int, Job] = {}
        if system.down_node_fraction > 0.0:
            rng = np.random.default_rng(seed)
            n_down = int(round(system.down_node_fraction * system.total_nodes))
            for node_id in rng.choice(system.total_nodes, size=n_down, replace=False):
                self.nodes[int(node_id)].mark_down()

        # Free-node index: per-partition id sets (membership / counts) plus
        # min-heaps (lowest-id-first selection) so placing a job is
        # O(n log N) instead of a full inventory scan. Node state changes
        # must go through allocate/release for the index to stay in sync;
        # heap entries staled by explicit placements are discarded lazily.
        self._partition_of: list[str] = [""] * system.total_nodes
        self._free_sets: dict[str, set[int]] = {}
        self._free_heaps: dict[str, list[int]] = {}
        for partition in system.partitions:
            node_range = system.partition_node_range(partition.name)
            for nid in node_range:
                self._partition_of[nid] = partition.name
            free_ids = [nid for nid in node_range if self.nodes[nid].is_available]
            self._free_sets[partition.name] = set(free_ids)
            self._free_heaps[partition.name] = free_ids  # ascending == valid heap

        # Inventory counters kept in lockstep with allocate/release so the
        # per-step queries are O(1) instead of full inventory scans; the
        # down count is immutable after the seed draw above. The epoch
        # increments on every allocation/release, giving consumers (the
        # incremental power aggregator, scheduler memoization) a cheap
        # "did the running set change?" check.
        self._down_count = sum(1 for node in self.nodes if node.state is NodeState.DOWN)
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
        # ``(is_allocation, job_id)`` entry, so a consumer that polls between
        # events (the incremental power aggregator) can apply exactly the
        # changes since its last poll in O(changes) instead of diffing its
        # cached job set against the full running set per epoch change.
        # ``_journal_base`` is the global index of the first retained entry;
        # draining hands out the retained tail and empties the buffer, and a
        # consumer whose cursor predates the retained window (a second
        # consumer, or a capped journal) is told to resync via set diff.
        self._journal: list[tuple[bool, int]] = []
        self._journal_base = 0

        # Expected-release index for the EASY shadow reservation: running
        # jobs ordered by ``(sim_start + requested_runtime, nodes_required)``
        # — the planning view a scheduler has (wall-time limits), distinct
        # from the end-time heap above (actual recorded durations). Kept as
        # an insort-maintained sorted list with lazy deletion so the
        # reservation walk reads occupants in expected-end order with early
        # exit instead of materialising and sorting the running set per call.
        self._expected_sorted: list[tuple[float, int, int]] = []
        self._expected_of: dict[int, float] = {}
        self._expected_stale = 0

        # Observability counters: plain ints bumped on already-per-event
        # paths (never per step), folded into the engine's metrics registry
        # at run finalisation via :meth:`observability_counters`.
        self.end_heap_pops = 0
        self.end_heap_stale_pops = 0
        self.journal_appends = 0
        self.journal_drains = 0
        self.journal_resyncs = 0

    #: Retained-journal cap: without a draining consumer the buffer would
    #: grow by two entries per job for the whole run, so the oldest entries
    #: are dropped beyond this size (late consumers then resync, which is
    #: always correct).
    JOURNAL_CAP = 8192

    # -- inventory queries -----------------------------------------------------

    @property
    def total_nodes(self) -> int:
        """Total node count (including down nodes)."""
        return len(self.nodes)

    @property
    def available_nodes(self) -> int:
        """Number of idle, in-service nodes (from the free-node index)."""
        return self.free_node_count()

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
    def utilization(self) -> float:
        """Fraction of in-service nodes that are allocated."""
        in_service = self.total_nodes - self.down_nodes
        if in_service == 0:
            return 0.0
        return self.allocated_nodes / in_service

    @property
    def running_jobs(self) -> list[Job]:
        """Jobs currently occupying nodes (stable job-id order)."""
        return [self._running[jid] for jid in sorted(self._running)]

    @property
    def running_by_id(self) -> Mapping[int, Job]:
        """Read-only live view of the running jobs keyed by job id."""
        return MappingProxyType(self._running)

    def job_on_node(self, node_id: int) -> Job | None:
        """Return the job running on ``node_id``, if any."""
        job_id = self.nodes[node_id].job_id
        return self._running.get(job_id) if job_id is not None else None

    def available_node_ids(self, partition: str | None = None) -> list[int]:
        """Ids of idle nodes, optionally restricted to one partition."""
        if partition is None:
            ids: list[int] = []
            for p in self.system.partitions:
                ids.extend(sorted(self._free_sets[p.name]))
            return ids
        self.system.partition_node_range(partition)  # validates the name
        return sorted(self._free_sets[partition])

    def free_node_count(self, partition: str | None = None) -> int:
        """Number of idle in-service nodes, from the O(1) free-node index."""
        if partition is None:
            return sum(len(s) for s in self._free_sets.values())
        return len(self._free_sets.get(partition, ()))

    def can_allocate(self, job: Job) -> bool:
        """Whether the job's node request can currently be satisfied."""
        if job.recorded_nodes and self._replay_placement_possible(job):
            return True
        partition = job.partition if self._partition_exists(job.partition) else None
        return self.free_node_count(partition) >= job.nodes_required

    # -- allocation / release ---------------------------------------------------

    def allocate(
        self,
        job: Job,
        now: float,
        *,
        node_ids: Sequence[int] | None = None,
        exact_placement: bool = False,
    ) -> tuple[int, ...]:
        """Place ``job`` on nodes at time ``now`` and mark it running.

        Parameters
        ----------
        job:
            The job to place. Must be queued (or pending for prepopulation).
        now:
            Current simulation time.
        node_ids:
            Explicit placement (scheduler- or replay-chosen). When omitted,
            the first available nodes of the job's partition are used.
        exact_placement:
            Replay mode — require the job's recorded nodes; if any of them is
            unavailable an :class:`AllocationError` is raised.

        Returns
        -------
        tuple[int, ...]
            The node ids the job was placed on.
        """
        if job.job_id in self._running:
            raise AllocationError(f"job {job.job_id} is already running")
        if exact_placement:
            if not job.recorded_nodes:
                raise AllocationError(
                    f"job {job.job_id}: exact placement requested but the job "
                    "has no recorded nodes"
                )
            chosen = tuple(job.recorded_nodes)
        elif node_ids is not None:
            chosen = tuple(node_ids)
        else:
            partition = job.partition if self._partition_exists(job.partition) else None
            free = self.free_node_count(partition)
            if free < job.nodes_required:
                raise AllocationError(
                    f"job {job.job_id}: requested {job.nodes_required} nodes, "
                    f"only {free} available"
                )
            chosen = tuple(self._pop_free_nodes(job.nodes_required, partition))

        if len(set(chosen)) != len(chosen):
            raise AllocationError(f"job {job.job_id}: duplicate node ids in placement")
        if len(chosen) != job.nodes_required:
            raise AllocationError(
                f"job {job.job_id}: placement of {len(chosen)} nodes does not "
                f"match request of {job.nodes_required}"
            )
        unavailable = [nid for nid in chosen if not self.nodes[nid].is_available]
        if unavailable:
            raise AllocationError(
                f"job {job.job_id}: nodes {unavailable[:8]} are not available"
            )

        for nid in chosen:
            self.nodes[nid].allocate(job.job_id, now)
            self._free_sets[self._partition_of[nid]].discard(nid)
        job.mark_running(now, chosen)
        self._running[job.job_id] = job
        self._allocated_count += len(chosen)
        self._epoch += 1
        end_time = now + job.duration
        self._end_of[job.job_id] = end_time
        heapq.heappush(self._end_heap, (end_time, job.job_id))
        expected_end = now + job.requested_runtime
        self._expected_of[job.job_id] = expected_end
        insort(self._expected_sorted, (expected_end, job.nodes_required, job.job_id))
        self._journal_append(True, job.job_id)
        return chosen

    def release(self, job: Job, now: float) -> None:
        """Free the nodes of a finished job and mark it completed."""
        if job.job_id not in self._running:
            raise AllocationError(f"job {job.job_id} is not running")
        for nid in job.assigned_nodes:
            self.nodes[nid].release(now)
            self._mark_free(nid)
        del self._running[job.job_id]
        # The heap entry goes stale (the map no longer vouches for it) and
        # is discarded lazily the next time it surfaces.
        self._end_of.pop(job.job_id, None)
        self._drop_expected(job.job_id)
        self._allocated_count -= len(job.assigned_nodes)
        self._epoch += 1
        self._journal_append(False, job.job_id)
        if job.state is JobState.RUNNING:
            job.mark_completed(now)

    @hot_path
    def complete_finished_jobs(self, now: float) -> list[Job]:
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
        finished.sort(key=lambda j: j.job_id)
        for job in finished:
            end_time = self._end_of.pop(job.job_id)
            for nid in job.assigned_nodes:
                self.nodes[nid].release(end_time)
                self._mark_free(nid)
            del self._running[job.job_id]
            self._drop_expected(job.job_id)
            self._allocated_count -= len(job.assigned_nodes)
            self._epoch += 1
            self._journal_append(False, job.job_id)
            job.mark_completed(end_time)
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

    @property
    def journal_total(self) -> int:
        """Number of journal entries ever appended (a consumer cursor)."""
        return self._journal_base + len(self._journal)

    def drain_change_journal(
        self, cursor: int
    ) -> tuple[int, list[tuple[bool, int]] | None]:
        """Hand out the ``(is_allocation, job_id)`` entries since ``cursor``.

        Returns ``(new_cursor, entries)``. ``entries`` is ``None`` when the
        journal no longer reaches back to ``cursor`` (the buffer was capped,
        or another consumer drained it first) — the caller must then resync
        by diffing its cached membership against :attr:`running_by_id`,
        which is always correct, just O(running set) instead of O(changes).
        Draining empties the retained buffer, so the journal never grows
        beyond one poll interval for its steady consumer.
        """
        total = self._journal_base + len(self._journal)
        self.journal_drains += 1
        if cursor < self._journal_base:
            entries: list[tuple[bool, int]] | None = None
            self.journal_resyncs += 1
        elif cursor == total:
            entries = []
        else:
            entries = self._journal[cursor - self._journal_base :]
        self._journal.clear()
        self._journal_base = total
        return total, entries

    def _journal_append(self, is_allocation: bool, job_id: int) -> None:
        journal = self._journal
        journal.append((is_allocation, job_id))
        self.journal_appends += 1
        if len(journal) > self.JOURNAL_CAP:
            # Nobody is draining: keep the newest half so a steady consumer
            # that shows up late pays one resync, not unbounded memory.
            drop = len(journal) - self.JOURNAL_CAP // 2
            del journal[:drop]
            self._journal_base += drop

    def expected_release_entries(self) -> Iterator[tuple[float, int, int]]:
        """Running jobs as ``(expected end, nodes_required, job_id)``, ordered.

        Ascending by ``(sim_start + requested_runtime, nodes_required)`` —
        exactly the order the EASY shadow reservation consumes occupants in
        (ties beyond that are indistinguishable to the reservation
        arithmetic). Backed by the insort-maintained index, so a walk that
        exits early (the reservation stops once the head fits) costs
        O(entries consumed + stale skipped), never a sort of the running
        set. Stale entries of released jobs are skipped via the
        authoritative map, mirroring the end-time heap's lazy deletion.
        """
        expected_of = self._expected_of
        for entry in self._expected_sorted:
            if expected_of.get(entry[2]) == entry[0]:
                yield entry

    def _drop_expected(self, job_id: int) -> None:
        """Lazily delete a released job from the expected-release index."""
        if self._expected_of.pop(job_id, None) is None:
            return
        self._expected_stale += 1
        if self._expected_stale > max(64, len(self._expected_of)):
            # More tombstones than live entries: compact so walks stay
            # proportional to the live running set.
            self._expected_sorted = [
                entry
                for entry in self._expected_sorted
                if self._expected_of.get(entry[2]) == entry[0]
            ]
            self._expected_stale = 0

    # -- helpers -----------------------------------------------------------------

    def _mark_free(self, nid: int) -> None:
        """Return a released node to the free-node index."""
        name = self._partition_of[nid]
        self._free_sets[name].add(nid)
        heapq.heappush(self._free_heaps[name], nid)

    def _pop_free_nodes(self, count: int, partition: str | None) -> list[int]:
        """Take the ``count`` lowest-id free nodes (of one partition or all).

        Entries staled by explicit/replay placements or by nodes taken out
        of service are discarded lazily as they surface.
        """
        names = (
            [partition]
            if partition is not None
            else [p.name for p in self.system.partitions]
        )
        chosen: list[int] = []
        for name in names:
            heap = self._free_heaps[name]
            free = self._free_sets[name]
            while heap and len(chosen) < count:
                nid = heapq.heappop(heap)
                if nid in free and self.nodes[nid].is_available:
                    # Remove from the set immediately so a duplicate heap
                    # entry (stale + re-pushed after a release) cannot be
                    # chosen twice within this selection.
                    free.discard(nid)
                    chosen.append(nid)
            if len(chosen) == count:
                break
        return chosen

    def _partition_exists(self, name: str) -> bool:
        return any(p.name == name for p in self.system.partitions)

    def _replay_placement_possible(self, job: Job) -> bool:
        return all(
            0 <= nid < self.total_nodes and self.nodes[nid].is_available
            for nid in job.recorded_nodes
        )

    def observability_counters(self) -> dict[str, int]:
        """Plain-int instrumentation counters (engine metrics publication).

        Keys become ``rm_<key>_total`` counters in the metrics registry.
        """
        return {
            "end_heap_pops": self.end_heap_pops,
            "end_heap_stale_pops": self.end_heap_stale_pops,
            "journal_appends": self.journal_appends,
            "journal_drains": self.journal_drains,
            "journal_resyncs": self.journal_resyncs,
        }

    def snapshot(self) -> dict[str, float]:
        """Small dictionary snapshot of the inventory state (debug/tests)."""
        return {
            "total_nodes": float(self.total_nodes),
            "allocated_nodes": float(self.allocated_nodes),
            "available_nodes": float(self.available_nodes),
            "down_nodes": float(self.down_nodes),
            "utilization": float(self.utilization),
            "running_jobs": float(len(self._running)),
        }
