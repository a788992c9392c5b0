"""Tests for the node model and resource manager."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Node, NodeState, ResourceManager
from repro.config import get_system_config
from repro.exceptions import AllocationError

from helpers import make_job


class TestNode:
    def test_initial_state(self):
        node = Node(node_id=3)
        assert node.is_available
        assert node.job_id is None

    def test_allocate_release_cycle(self):
        node = Node(node_id=0)
        node.allocate(job_id=7, now=100.0)
        assert node.state is NodeState.ALLOCATED
        assert node.job_id == 7
        assert not node.is_available
        node.release(now=400.0)
        assert node.is_available
        assert node.busy_s == pytest.approx(300.0)
        assert node.allocation_count == 1

    def test_double_allocate_rejected(self):
        node = Node(node_id=0)
        node.allocate(1, 0.0)
        with pytest.raises(AllocationError):
            node.allocate(2, 1.0)

    def test_release_idle_rejected(self):
        with pytest.raises(AllocationError):
            Node(node_id=0).release(0.0)

    def test_down_node_cannot_allocate(self):
        node = Node(node_id=0)
        node.mark_down()
        with pytest.raises(AllocationError):
            node.allocate(1, 0.0)
        node.mark_up()
        node.allocate(1, 0.0)

    def test_cannot_mark_allocated_node_down(self):
        node = Node(node_id=0)
        node.allocate(1, 0.0)
        with pytest.raises(AllocationError):
            node.mark_down()


class TestResourceManager:
    def test_inventory(self, tiny_system):
        rm = ResourceManager(tiny_system)
        assert rm.total_nodes == 32
        assert rm.available_nodes == 32
        assert rm.allocated_nodes == 0
        assert rm.utilization == 0.0

    def test_allocate_auto_placement(self, tiny_system):
        rm = ResourceManager(tiny_system)
        job = make_job(nodes=4)
        job.mark_queued(0.0)
        nodes = rm.allocate(job, 0.0)
        assert len(nodes) == 4
        assert rm.allocated_nodes == 4
        assert rm.utilization == pytest.approx(4 / 32)
        assert job.assigned_nodes == nodes

    def test_allocate_explicit_placement(self, tiny_system):
        rm = ResourceManager(tiny_system)
        job = make_job(nodes=2)
        job.mark_queued(0.0)
        nodes = rm.allocate(job, 0.0, node_ids=[5, 9])
        assert nodes == (5, 9)

    def test_exact_placement_replay(self, tiny_system):
        rm = ResourceManager(tiny_system)
        job = make_job(nodes=3, recorded_nodes=(1, 2, 3))
        job.mark_queued(0.0)
        assert rm.allocate(job, 0.0, exact_placement=True) == (1, 2, 3)

    def test_exact_placement_requires_recorded_nodes(self, tiny_system):
        rm = ResourceManager(tiny_system)
        job = make_job(nodes=2)
        job.mark_queued(0.0)
        with pytest.raises(AllocationError):
            rm.allocate(job, 0.0, exact_placement=True)

    def test_exact_placement_conflict(self, tiny_system):
        rm = ResourceManager(tiny_system)
        first = make_job(nodes=1, recorded_nodes=(4,))
        first.mark_queued(0.0)
        rm.allocate(first, 0.0, exact_placement=True)
        second = make_job(nodes=1, recorded_nodes=(4,))
        second.mark_queued(0.0)
        with pytest.raises(AllocationError):
            rm.allocate(second, 0.0, exact_placement=True)

    def test_insufficient_nodes(self, tiny_system):
        rm = ResourceManager(tiny_system)
        job = make_job(nodes=33)
        job.mark_queued(0.0)
        with pytest.raises(AllocationError):
            rm.allocate(job, 0.0)

    def test_duplicate_node_ids_rejected(self, tiny_system):
        rm = ResourceManager(tiny_system)
        job = make_job(nodes=2)
        job.mark_queued(0.0)
        with pytest.raises(AllocationError):
            rm.allocate(job, 0.0, node_ids=[3, 3])

    def test_wrong_placement_size_rejected(self, tiny_system):
        rm = ResourceManager(tiny_system)
        job = make_job(nodes=2)
        job.mark_queued(0.0)
        with pytest.raises(AllocationError):
            rm.allocate(job, 0.0, node_ids=[1, 2, 3])

    def test_double_allocation_of_job_rejected(self, tiny_system):
        rm = ResourceManager(tiny_system)
        job = make_job(nodes=1)
        job.mark_queued(0.0)
        rm.allocate(job, 0.0)
        with pytest.raises(AllocationError):
            rm.allocate(job, 1.0)

    def test_release(self, tiny_system):
        rm = ResourceManager(tiny_system)
        job = make_job(nodes=4, duration=600)
        job.mark_queued(0.0)
        rm.allocate(job, 0.0)
        rm.release(job, 600.0)
        assert rm.allocated_nodes == 0
        assert rm.available_nodes == 32
        assert job.is_finished

    def test_release_unknown_job_rejected(self, tiny_system):
        rm = ResourceManager(tiny_system)
        with pytest.raises(AllocationError):
            rm.release(make_job(), 0.0)

    def test_can_allocate(self, tiny_system):
        rm = ResourceManager(tiny_system)
        assert rm.can_allocate(make_job(nodes=32))
        assert not rm.can_allocate(make_job(nodes=33))

    def test_complete_finished_jobs(self, tiny_system):
        rm = ResourceManager(tiny_system)
        short = make_job(nodes=2, duration=100)
        long = make_job(nodes=3, duration=1000)
        for job in (short, long):
            job.mark_queued(0.0)
            rm.allocate(job, 0.0)
        finished = rm.complete_finished_jobs(now=100.0)
        assert finished == [short]
        assert rm.allocated_nodes == 3
        assert short.sim_end_time == pytest.approx(100.0)
        assert rm.complete_finished_jobs(now=1000.0) == [long]
        assert rm.allocated_nodes == 0

    def test_same_timestep_end_and_start(self, tiny_system):
        """A node freed at time t can be reallocated at time t (paper Sec. 3.2.3)."""
        rm = ResourceManager(tiny_system)
        first = make_job(nodes=32, duration=100)
        first.mark_queued(0.0)
        rm.allocate(first, 0.0)
        assert rm.available_nodes == 0
        rm.complete_finished_jobs(now=100.0)
        second = make_job(nodes=32, submit=50, start=100, duration=100)
        second.mark_queued(50.0)
        nodes = rm.allocate(second, 100.0)
        assert len(nodes) == 32

    def test_down_nodes_excluded(self, tiny_system):
        system = tiny_system.with_overrides(down_node_fraction=0.25)
        rm = ResourceManager(system, seed=1)
        assert rm.down_nodes == 8
        assert rm.available_nodes == 24
        assert not rm.can_allocate(make_job(nodes=25))
        assert rm.can_allocate(make_job(nodes=24))

    def test_utilization_ignores_down_nodes(self, tiny_system):
        system = tiny_system.with_overrides(down_node_fraction=0.5)
        rm = ResourceManager(system, seed=1)
        job = make_job(nodes=8)
        job.mark_queued(0.0)
        rm.allocate(job, 0.0)
        assert rm.utilization == pytest.approx(8 / 16)

    def test_partition_restricted_allocation(self):
        system = get_system_config("tiny")
        rm = ResourceManager(system)
        job = make_job(nodes=2)
        job.partition = "batch"
        job.mark_queued(0.0)
        nodes = rm.allocate(job, 0.0)
        assert all(n in system.partition_node_range("batch") for n in nodes)

    def test_unknown_partition_falls_back_to_any(self, tiny_system):
        rm = ResourceManager(tiny_system)
        job = make_job(nodes=2)
        job.partition = "nonexistent"
        job.mark_queued(0.0)
        assert len(rm.allocate(job, 0.0)) == 2

    def test_snapshot_keys(self, tiny_system):
        snap = ResourceManager(tiny_system).snapshot()
        assert snap["total_nodes"] == 32.0
        assert set(snap) >= {"allocated_nodes", "available_nodes", "utilization"}

    @given(sizes=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_allocation_conservation_property(self, sizes):
        """Allocated + available + down always equals total."""
        system = get_system_config("tiny")
        rm = ResourceManager(system)
        placed = []
        for size in sizes:
            job = make_job(nodes=size)
            job.mark_queued(0.0)
            if rm.can_allocate(job):
                rm.allocate(job, 0.0)
                placed.append(job)
            assert rm.allocated_nodes + rm.available_nodes + rm.down_nodes == rm.total_nodes
        for job in placed:
            rm.release(job, 10.0)
        assert rm.allocated_nodes == 0
        assert rm.available_nodes + rm.down_nodes == rm.total_nodes


class TestEpochAndCounters:
    """The epoch/counter bookkeeping backing the incremental consumers."""

    def test_epoch_bumps_on_allocate_and_release(self, tiny_system):
        rm = ResourceManager(tiny_system)
        assert rm.epoch == 0
        job = make_job(nodes=4, submit=0.0)
        job.mark_queued(0.0)
        rm.allocate(job, 0.0)
        assert rm.epoch == 1
        rm.release(job, 100.0)
        assert rm.epoch == 2

    def test_epoch_bumps_on_complete_finished_jobs(self, tiny_system):
        rm = ResourceManager(tiny_system)
        jobs = [make_job(nodes=1, submit=0.0, duration=300.0) for _ in range(3)]
        for job in jobs:
            job.mark_queued(0.0)
            rm.allocate(job, 0.0)
        epoch = rm.epoch
        assert rm.complete_finished_jobs(100.0) == []
        assert rm.epoch == epoch  # no releases, no bump
        assert len(rm.complete_finished_jobs(300.0)) == 3
        assert rm.epoch == epoch + 3

    def test_counters_match_inventory_scan(self, tiny_system):
        system = tiny_system.with_overrides(down_node_fraction=0.125)
        rm = ResourceManager(system, seed=5)
        jobs = [make_job(nodes=n, submit=0.0) for n in (3, 5, 2)]
        for job in jobs:
            job.mark_queued(0.0)
            rm.allocate(job, 0.0)
        rm.release(jobs[1], 50.0)

        def scan(state):
            return sum(1 for node in rm.nodes if node.state is state)

        assert rm.allocated_nodes == scan(NodeState.ALLOCATED) == 5
        assert rm.down_nodes == scan(NodeState.DOWN) == 4
        assert rm.available_nodes == sum(
            1 for node in rm.nodes if node.is_available
        )
        assert rm.allocated_nodes + rm.available_nodes + rm.down_nodes == rm.total_nodes

    def test_running_by_id_is_read_only_view(self, tiny_system):
        rm = ResourceManager(tiny_system)
        job = make_job(nodes=2, submit=0.0)
        job.mark_queued(0.0)
        rm.allocate(job, 0.0)
        view = rm.running_by_id
        assert view[job.job_id] is job
        with pytest.raises(TypeError):
            view[job.job_id + 1] = job  # type: ignore[index]
        rm.release(job, 10.0)
        assert job.job_id not in rm.running_by_id


def _allocate(rm, job, now=0.0):
    job.mark_queued(now)
    rm.allocate(job, now)
    return job


def _heap_invariants(rm):
    """Assert the end-time index invariants the engine relies on.

    Every running job has exactly one *live* heap entry whose key is its
    ``sim_start + duration``; everything else in the heap is stale (its
    job has been released) and must be vouched for by nothing.
    """
    live = {
        job_id: job.sim_start_time + job.duration
        for job_id, job in rm.running_by_id.items()
    }
    assert rm._end_of == live
    heap_live = [(end, jid) for end, jid in rm._end_heap if rm._end_of.get(jid) == end]
    assert sorted(heap_live) == sorted((end, jid) for jid, end in live.items())


class TestEndTimeHeap:
    """The lazy-deletion end-time heap behind O(k log R) completions."""

    def test_allocate_indexes_end_time(self, tiny_system):
        rm = ResourceManager(tiny_system)
        job = _allocate(rm, make_job(nodes=2, duration=600.0))
        assert rm.next_job_end() == pytest.approx(600.0)
        _heap_invariants(rm)

    def test_next_job_end_empty(self, tiny_system):
        assert ResourceManager(tiny_system).next_job_end() is None

    def test_early_release_leaves_stale_entry_popped_once(self, tiny_system):
        # A job released before its natural end (horizon truncation,
        # cancellation) leaves its heap entry stale; the first access
        # discards it permanently — it is never revisited.
        rm = ResourceManager(tiny_system)
        early = _allocate(rm, make_job(nodes=2, duration=1000.0))
        later = _allocate(rm, make_job(nodes=1, duration=2000.0))
        rm.release(early, 10.0)  # entry (1000.0, early.job_id) is now stale
        assert any(jid == early.job_id for _, jid in rm._end_heap)
        assert rm.next_job_end() == pytest.approx(2000.0)  # pops the stale entry
        assert all(jid != early.job_id for _, jid in rm._end_heap)
        _heap_invariants(rm)
        # The stale entry is gone for good: completing at its old end time
        # must not touch the released job again.
        assert rm.complete_finished_jobs(1000.0) == []
        assert rm.complete_finished_jobs(2000.0) == [later]
        assert rm._end_heap == []
        _heap_invariants(rm)

    def test_duplicate_end_times_complete_in_job_id_order(self, tiny_system):
        rm = ResourceManager(tiny_system)
        jobs = [
            _allocate(rm, make_job(nodes=1, duration=300.0)) for _ in range(4)
        ]
        finished = rm.complete_finished_jobs(300.0)
        assert finished == sorted(jobs, key=lambda j: j.job_id)
        assert all(j.sim_end_time == pytest.approx(300.0) for j in finished)
        assert rm._end_heap == [] and rm._end_of == {}

    def test_completion_does_not_disturb_later_entries(self, tiny_system):
        rm = ResourceManager(tiny_system)
        short = _allocate(rm, make_job(nodes=1, duration=100.0))
        long = _allocate(rm, make_job(nodes=1, duration=900.0))
        assert rm.complete_finished_jobs(100.0) == [short]
        _heap_invariants(rm)
        assert rm.next_job_end() == pytest.approx(900.0)
        assert rm.complete_finished_jobs(500.0) == []
        assert rm.complete_finished_jobs(900.0) == [long]

    def test_scan_and_heap_paths_release_identically(self, tiny_system):
        # The end-time heap must release exactly what a scan of the running
        # set finds due: the same jobs, in job-id order, at the same end
        # times.
        rm = ResourceManager(tiny_system)
        jobs = [
            _allocate(rm, make_job(nodes=1, duration=d))
            for d in (300.0, 100.0, 300.0, 777.25)
        ]
        rm.release(jobs[1], 50.0)  # early release -> stale entry
        released_total = 0
        for now in (0.0, 299.0, 300.0, 800.0):
            scanned = sorted(
                (job.job_id, job.sim_start_time + job.duration)
                for job in rm.running_by_id.values()
                if job.sim_start_time + job.duration <= now
            )
            released = rm.complete_finished_jobs(now)
            assert [(j.job_id, j.sim_end_time) for j in released] == scanned
            released_total += len(released)
        assert released_total == 3

    @given(
        plan=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=2000.0),
                st.booleans(),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_invariants_hold_under_churn(self, plan):
        # Epoch churn: interleaved allocations, early releases and
        # completions (duplicate end times included via coarse rounding)
        # must keep the heap and the running set consistent throughout.
        system = get_system_config("tiny")
        rm = ResourceManager(system)
        now = 0.0
        for duration, release_early in plan:
            duration = round(duration / 300.0) * 300.0  # force duplicates
            if rm.free_node_count() >= 1:
                job = make_job(nodes=1, submit=now, start=now, duration=duration)
                job.mark_queued(now)
                rm.allocate(job, now)
                if release_early and duration > 0:
                    rm.release(job, now)
            now += 150.0
            rm.complete_finished_jobs(now)
            _heap_invariants(rm)
        rm.complete_finished_jobs(now + 4000.0)
        assert rm.running_by_id == {}
        assert rm._end_of == {}
        _heap_invariants(rm)


class TestChangeJournal:
    """The allocate/release journal behind O(changes) membership sync."""

    def test_drain_returns_chronological_entries(self, tiny_system):
        rm = ResourceManager(tiny_system)
        a = _allocate(rm, make_job(nodes=1, duration=600.0))
        b = _allocate(rm, make_job(nodes=1, duration=300.0))
        rm.release(a, 50.0)
        cursor, entries = rm.drain_change_journal(0)
        assert cursor == rm.journal_total == 3
        assert entries == [(True, a.job_id), (True, b.job_id), (False, a.job_id)]

    def test_drain_is_incremental_from_cursor(self, tiny_system):
        rm = ResourceManager(tiny_system)
        a = _allocate(rm, make_job(nodes=1, duration=600.0))
        cursor, entries = rm.drain_change_journal(0)
        assert entries == [(True, a.job_id)]
        b = _allocate(rm, make_job(nodes=1, duration=600.0))
        cursor, entries = rm.drain_change_journal(cursor)
        assert entries == [(True, b.job_id)]
        cursor, entries = rm.drain_change_journal(cursor)
        assert entries == []

    def test_stale_cursor_forces_resync(self, tiny_system):
        # A consumer whose cursor predates the retained window (someone
        # else drained, or the cap dropped entries) is told to resync.
        rm = ResourceManager(tiny_system)
        _allocate(rm, make_job(nodes=1, duration=600.0))
        rm.drain_change_journal(0)  # first consumer empties the buffer
        _allocate(rm, make_job(nodes=1, duration=600.0))
        cursor, entries = rm.drain_change_journal(0)  # behind the base
        assert entries is None
        assert cursor == rm.journal_total
        # Once caught up, the same consumer drains incrementally again.
        _allocate(rm, make_job(nodes=1, duration=600.0))
        _, entries = rm.drain_change_journal(cursor)
        assert entries is not None and len(entries) == 1

    def test_complete_finished_jobs_journals_releases(self, tiny_system):
        rm = ResourceManager(tiny_system)
        job = _allocate(rm, make_job(nodes=1, duration=300.0))
        cursor, _ = rm.drain_change_journal(0)
        rm.complete_finished_jobs(300.0)
        _, entries = rm.drain_change_journal(cursor)
        assert entries == [(False, job.job_id)]

    def test_journal_cap_bounds_memory(self, tiny_system):
        rm = ResourceManager(tiny_system)
        original_cap = ResourceManager.JOURNAL_CAP
        ResourceManager.JOURNAL_CAP = 8
        try:
            for _ in range(10):
                job = _allocate(rm, make_job(nodes=1, duration=100.0))
                rm.release(job, 0.0)
            assert len(rm._journal) <= 8
            assert rm.journal_total == 20
            _, entries = rm.drain_change_journal(0)
            assert entries is None  # dropped prefix -> resync
        finally:
            ResourceManager.JOURNAL_CAP = original_cap


class TestExpectedReleaseIndex:
    """The (expected end, nodes) index behind the EASY reservation walk."""

    def test_entries_ordered_by_expected_end_then_nodes(self, tiny_system):
        rm = ResourceManager(tiny_system)
        late = _allocate(rm, make_job(nodes=2, duration=900.0, wall_limit=900.0))
        early = _allocate(rm, make_job(nodes=4, duration=300.0, wall_limit=300.0))
        tied = _allocate(rm, make_job(nodes=1, duration=300.0, wall_limit=300.0))
        entries = list(rm.expected_release_entries())
        assert entries == [
            (300.0, 1, tied.job_id),
            (300.0, 4, early.job_id),
            (900.0, 2, late.job_id),
        ]

    def test_wall_limit_wins_over_duration(self, tiny_system):
        # requested_runtime is the wall limit when present: the index holds
        # the *planning* end, distinct from the end-time heap's actual end.
        rm = ResourceManager(tiny_system)
        job = _allocate(rm, make_job(nodes=1, duration=10_000.0, wall_limit=600.0))
        (end, nodes, job_id), = rm.expected_release_entries()
        assert (end, nodes, job_id) == (600.0, 1, job.job_id)
        assert rm.next_job_end() == pytest.approx(10_000.0)

    def test_released_jobs_skipped_lazily(self, tiny_system):
        rm = ResourceManager(tiny_system)
        gone = _allocate(rm, make_job(nodes=2, duration=600.0, wall_limit=600.0))
        kept = _allocate(rm, make_job(nodes=1, duration=900.0, wall_limit=900.0))
        rm.release(gone, 10.0)
        assert [jid for _, _, jid in rm.expected_release_entries()] == [kept.job_id]

    def test_compaction_drops_tombstones(self, tiny_system):
        rm = ResourceManager(tiny_system)
        survivors = []
        for i in range(6):
            job = _allocate(rm, make_job(nodes=1, duration=600.0 + i, wall_limit=600.0 + i))
            survivors.append(job)
        # Release many more than survive so the stale count passes the
        # live count and the compaction threshold (>= 64 tombstones).
        for _ in range(70):
            job = _allocate(rm, make_job(nodes=1, duration=60.0, wall_limit=60.0))
            rm.release(job, 0.0)
        # Compaction ran at least once: far fewer tombstones than the 70
        # releases, and the sorted list stays proportional to live + recent.
        assert rm._expected_stale <= 64
        assert len(rm._expected_sorted) == len(survivors) + rm._expected_stale
        assert [jid for _, _, jid in rm.expected_release_entries()] == [
            j.job_id for j in sorted(survivors, key=lambda j: j.job_id)
        ]
