"""Tests for the resource manager and its node-owner table."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import DOWN, FREE, ResourceManager
from repro.config import get_system_config
from repro.exceptions import AllocationError
from repro.telemetry import JobRun, JobState

from helpers import assert_node_conservation, make_job, queued_run


class TestNode:
    """Node-level checks of the owner table."""

    def test_initial_state(self, tiny_system):
        rm = ResourceManager(tiny_system)
        assert rm.owner[3] is FREE
        assert rm.free_node_count() == rm.total_nodes

    def test_allocate_release_cycle(self, tiny_system):
        rm = ResourceManager(tiny_system)
        run = queued_run(make_job(nodes=1))
        rm.allocate(run, 100.0, node_ids=[0])
        assert rm.owner[0] == run.job_id
        assert 0 not in rm.available_node_ids()
        rm.release(run, 400.0)
        assert rm.owner[0] is FREE
        assert run.sim_duration == pytest.approx(300.0)

    def test_double_allocate_rejected(self, tiny_system):
        rm = ResourceManager(tiny_system)
        rm.allocate(queued_run(make_job(nodes=1)), 0.0, node_ids=[0])
        second = queued_run(make_job(nodes=1))
        with pytest.raises(AllocationError):
            rm.allocate(second, 1.0, node_ids=[0])
        assert not rm.running_by_id.get(second.job_id)

    def test_release_idle_rejected(self, tiny_system):
        # A run whose placement disagrees with the owner table (node 5 was
        # never given to it) cannot free that node.
        rm = ResourceManager(tiny_system)
        run = queued_run(make_job(nodes=2))
        rm.allocate(run, 0.0, node_ids=[0, 1])
        run.assigned_nodes = (0, 5)
        with pytest.raises(AllocationError):
            rm.release(run, 10.0)

    def test_down_node_cannot_allocate(self, tiny_system):
        system = tiny_system.with_overrides(down_node_fraction=0.25)
        rm = ResourceManager(system, seed=1)
        down = rm.owner.index(DOWN)
        with pytest.raises(AllocationError):
            rm.allocate(queued_run(make_job(nodes=1)), 0.0, node_ids=[down])
        assert rm.owner[down] is DOWN
        assert rm.allocated_nodes == 0


class TestResourceManager:
    def test_inventory(self, tiny_system):
        rm = ResourceManager(tiny_system)
        assert rm.total_nodes == 32
        assert rm.free_node_count() == 32
        assert rm.allocated_nodes == 0

    def test_allocate_auto_placement(self, tiny_system):
        rm = ResourceManager(tiny_system)
        run = queued_run(make_job(nodes=4))
        nodes = rm.allocate(run, 0.0)
        assert len(nodes) == 4
        assert rm.allocated_nodes == 4
        assert rm.free_node_count() == 28
        assert run.assigned_nodes == nodes

    def test_allocate_explicit_placement(self, tiny_system):
        rm = ResourceManager(tiny_system)
        run = queued_run(make_job(nodes=2))
        nodes = rm.allocate(run, 0.0, node_ids=[5, 9])
        assert nodes == (5, 9)

    def test_exact_placement_replay(self, tiny_system):
        rm = ResourceManager(tiny_system)
        run = queued_run(make_job(nodes=3, recorded_nodes=(1, 2, 3)))
        assert rm.allocate(run, 0.0, exact_placement=True) == (1, 2, 3)

    def test_exact_placement_requires_recorded_nodes(self, tiny_system):
        rm = ResourceManager(tiny_system)
        run = queued_run(make_job(nodes=2))
        with pytest.raises(AllocationError):
            rm.allocate(run, 0.0, exact_placement=True)

    def test_exact_placement_conflict(self, tiny_system):
        rm = ResourceManager(tiny_system)
        first = queued_run(make_job(nodes=1, recorded_nodes=(4,)))
        rm.allocate(first, 0.0, exact_placement=True)
        second = queued_run(make_job(nodes=1, recorded_nodes=(4,)))
        with pytest.raises(AllocationError):
            rm.allocate(second, 0.0, exact_placement=True)

    def test_insufficient_nodes(self, tiny_system):
        rm = ResourceManager(tiny_system)
        run = queued_run(make_job(nodes=33))
        with pytest.raises(AllocationError):
            rm.allocate(run, 0.0)

    def test_duplicate_node_ids_rejected(self, tiny_system):
        rm = ResourceManager(tiny_system)
        run = queued_run(make_job(nodes=2))
        with pytest.raises(AllocationError):
            rm.allocate(run, 0.0, node_ids=[3, 3])

    @pytest.mark.parametrize("node_id", [-1, 32])
    def test_out_of_range_node_ids_rejected(self, tiny_system, node_id):
        # A negative id must not wrap around to the last node.
        rm = ResourceManager(tiny_system)
        with pytest.raises(AllocationError, match="do not exist"):
            rm.allocate(queued_run(make_job(nodes=1)), 0.0, node_ids=[node_id])
        assert rm.allocated_nodes == 0

    def test_wrong_placement_size_rejected(self, tiny_system):
        rm = ResourceManager(tiny_system)
        run = queued_run(make_job(nodes=2))
        with pytest.raises(AllocationError):
            rm.allocate(run, 0.0, node_ids=[1, 2, 3])

    def test_double_allocation_of_job_rejected(self, tiny_system):
        rm = ResourceManager(tiny_system)
        run = queued_run(make_job(nodes=1))
        rm.allocate(run, 0.0)
        with pytest.raises(AllocationError):
            rm.allocate(run, 1.0)

    def test_release(self, tiny_system):
        rm = ResourceManager(tiny_system)
        run = queued_run(make_job(nodes=4, duration=600))
        rm.allocate(run, 0.0)
        rm.release(run, 600.0)
        assert rm.allocated_nodes == 0
        assert rm.free_node_count() == 32
        assert run.state is JobState.COMPLETED

    def test_release_unknown_job_rejected(self, tiny_system):
        rm = ResourceManager(tiny_system)
        with pytest.raises(AllocationError):
            rm.release(JobRun(make_job()), 0.0)

    def test_complete_finished_jobs(self, tiny_system):
        rm = ResourceManager(tiny_system)
        short = queued_run(make_job(nodes=2, duration=100))
        long = queued_run(make_job(nodes=3, duration=1000))
        for run in (short, long):
            rm.allocate(run, 0.0)
        finished = rm.complete_finished_jobs(now=100.0)
        assert finished == [short]
        assert rm.allocated_nodes == 3
        assert short.sim_end_time == pytest.approx(100.0)
        assert rm.complete_finished_jobs(now=1000.0) == [long]
        assert rm.allocated_nodes == 0

    def test_same_timestep_end_and_start(self, tiny_system):
        """A node freed at time t can be reallocated at time t (paper Sec. 3.2.3)."""
        rm = ResourceManager(tiny_system)
        first = queued_run(make_job(nodes=32, duration=100))
        rm.allocate(first, 0.0)
        assert rm.free_node_count() == 0
        rm.complete_finished_jobs(now=100.0)
        second = queued_run(make_job(nodes=32, submit=50, start=100, duration=100))
        nodes = rm.allocate(second, 100.0)
        assert len(nodes) == 32

    def test_down_nodes_excluded(self, tiny_system):
        system = tiny_system.with_overrides(down_node_fraction=0.25)
        rm = ResourceManager(system, seed=1)
        assert rm.down_nodes == 8
        assert rm.free_node_count() == 24
        with pytest.raises(AllocationError):
            rm.allocate(queued_run(make_job(nodes=25)), 0.0)
        nodes = rm.allocate(queued_run(make_job(nodes=24)), 0.0)
        assert all(rm.owner[nid] is not DOWN for nid in nodes)

    def test_utilization_ignores_down_nodes(self, tiny_system):
        # Utilization is allocated over in-service (free + allocated) nodes.
        system = tiny_system.with_overrides(down_node_fraction=0.5)
        rm = ResourceManager(system, seed=1)
        rm.allocate(queued_run(make_job(nodes=8)), 0.0)
        in_service = rm.allocated_nodes + rm.free_node_count()
        assert in_service == rm.total_nodes - rm.down_nodes == 16
        assert rm.allocated_nodes / in_service == pytest.approx(8 / 16)

    def test_partition_restricted_allocation(self):
        system = get_system_config("tiny")
        rm = ResourceManager(system)
        run = queued_run(make_job(nodes=2, partition="batch"))
        nodes = rm.allocate(run, 0.0)
        assert all(n in system.partition_node_range("batch") for n in nodes)

    def test_unknown_partition_falls_back_to_any(self, tiny_system):
        rm = ResourceManager(tiny_system)
        run = queued_run(make_job(nodes=2, partition="nonexistent"))
        assert len(rm.allocate(run, 0.0)) == 2

    @given(sizes=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_allocation_conservation_property(self, sizes):
        """Allocated + free + down always equals total."""
        system = get_system_config("tiny")
        rm = ResourceManager(system)
        placed = []
        for size in sizes:
            run = queued_run(make_job(nodes=size))
            if rm.free_node_count() >= size:
                rm.allocate(run, 0.0)
                placed.append(run)
            assert_node_conservation(rm)
        for run in placed:
            rm.release(run, 10.0)
        assert rm.allocated_nodes == 0
        assert_node_conservation(rm)


class TestEpochAndCounters:
    """The epoch/counter bookkeeping backing the incremental consumers."""

    def test_epoch_bumps_on_allocate_and_release(self, tiny_system):
        rm = ResourceManager(tiny_system)
        assert rm.epoch == 0
        run = queued_run(make_job(nodes=4, submit=0.0))
        rm.allocate(run, 0.0)
        assert rm.epoch == 1
        rm.release(run, 100.0)
        assert rm.epoch == 2

    def test_epoch_bumps_on_complete_finished_jobs(self, tiny_system):
        rm = ResourceManager(tiny_system)
        for _ in range(3):
            rm.allocate(queued_run(make_job(nodes=1, submit=0.0, duration=300.0)), 0.0)
        epoch = rm.epoch
        assert rm.complete_finished_jobs(100.0) == []
        assert rm.epoch == epoch  # no releases, no bump
        assert len(rm.complete_finished_jobs(300.0)) == 3
        assert rm.epoch == epoch + 3

    def test_counters_match_inventory_scan(self, tiny_system):
        system = tiny_system.with_overrides(down_node_fraction=0.125)
        rm = ResourceManager(system, seed=5)
        runs = [queued_run(make_job(nodes=n, submit=0.0)) for n in (3, 5, 2)]
        for run in runs:
            rm.allocate(run, 0.0)
        rm.release(runs[1], 50.0)
        assert rm.allocated_nodes == 5
        assert rm.down_nodes == 4
        assert_node_conservation(rm)

    def test_running_by_id_is_read_only_view(self, tiny_system):
        rm = ResourceManager(tiny_system)
        run = queued_run(make_job(nodes=2, submit=0.0))
        rm.allocate(run, 0.0)
        view = rm.running_by_id
        assert view[run.job_id] is run
        with pytest.raises(TypeError):
            view[run.job_id + 1] = run  # type: ignore[index]
        rm.release(run, 10.0)
        assert run.job_id not in rm.running_by_id


def _allocate(rm, job, now=0.0):
    run = queued_run(job)
    rm.allocate(run, now)
    return run


def _heap_invariants(rm):
    """Assert the end-time index invariants the engine relies on.

    Every running job has exactly one *live* heap entry whose key is its
    ``sim_start + duration``; everything else in the heap is stale (its
    job has been released) and must be vouched for by nothing.
    """
    live = {
        job_id: run.sim_start_time + run.job.duration
        for job_id, run in rm.running_by_id.items()
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
                (run.job_id, run.sim_start_time + run.job.duration)
                for run in rm.running_by_id.values()
                if run.sim_start_time + run.job.duration <= now
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
                run = _allocate(
                    rm, make_job(nodes=1, submit=now, start=now, duration=duration), now
                )
                if release_early and duration > 0:
                    rm.release(run, now)
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
        entries = rm.drain_change_journal()
        assert entries == [(True, a.job_id), (True, b.job_id), (False, a.job_id)]
        assert rm.journal_appends == 3

    def test_drain_is_incremental_from_cursor(self, tiny_system):
        # The last drain is the cursor: each drain hands out only what was
        # journalled after it.
        rm = ResourceManager(tiny_system)
        a = _allocate(rm, make_job(nodes=1, duration=600.0))
        assert rm.drain_change_journal() == [(True, a.job_id)]
        b = _allocate(rm, make_job(nodes=1, duration=600.0))
        assert rm.drain_change_journal() == [(True, b.job_id)]
        assert rm.drain_change_journal() == []
        assert rm.journal_drains == 3

    def test_complete_finished_jobs_journals_releases(self, tiny_system):
        rm = ResourceManager(tiny_system)
        job = _allocate(rm, make_job(nodes=1, duration=300.0))
        rm.drain_change_journal()
        rm.complete_finished_jobs(300.0)
        assert rm.drain_change_journal() == [(False, job.job_id)]


class TestExpectedReleaseIndex:
    """The (expected end, nodes) index behind the EASY reservation walk."""

    def test_entries_ordered_by_expected_end_then_nodes(self, tiny_system):
        rm = ResourceManager(tiny_system)
        late = _allocate(rm, make_job(nodes=2, duration=900.0, wall_limit=900.0))
        early = _allocate(rm, make_job(nodes=4, duration=300.0, wall_limit=300.0))
        tied = _allocate(rm, make_job(nodes=1, duration=300.0, wall_limit=300.0))
        entries = list(rm.expected_release_entries("batch"))
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
        (end, nodes, job_id), = rm.expected_release_entries("batch")
        assert (end, nodes, job_id) == (600.0, 1, job.job_id)
        assert rm.next_job_end() == pytest.approx(10_000.0)

    def test_released_jobs_skipped_lazily(self, tiny_system):
        rm = ResourceManager(tiny_system)
        gone = _allocate(rm, make_job(nodes=2, duration=600.0, wall_limit=600.0))
        kept = _allocate(rm, make_job(nodes=1, duration=900.0, wall_limit=900.0))
        rm.release(gone, 10.0)
        assert [jid for _, _, jid in rm.expected_release_entries("batch")] == [kept.job_id]

    def test_release_deletes_its_entries(self, tiny_system):
        rm = ResourceManager(tiny_system)
        survivors = []
        for i in range(6):
            job = _allocate(rm, make_job(nodes=1, duration=600.0 + i, wall_limit=600.0 + i))
            survivors.append(job)
        # Releases interleaved with allocations: each one deletes its entry
        # at once, so the list holds only the survivors' entries.
        for _ in range(70):
            job = _allocate(rm, make_job(nodes=1, duration=60.0, wall_limit=60.0))
            rm.release(job, 0.0)
        assert rm._expected_sorted["batch"] == [
            (600.0 + i, 1, job.job_id) for i, job in enumerate(survivors)
        ]

    def test_spanning_release_leaves_the_running_entries(self, two_partition_system):
        # An explicit placement across the cpu/gpu boundary holds one entry
        # in each partition's list, for its nodes there. Releasing one
        # deletes both and leaves each list with exactly the running jobs'.
        rm = ResourceManager(two_partition_system)
        spans = []
        for nodes, wall_limit in (((14, 15, 16, 17, 18), 600.0), ((13, 19), 1200.0)):
            run = queued_run(
                make_job(nodes=len(nodes), partition="cpu", wall_limit=wall_limit,
                         recorded_nodes=nodes)
            )
            rm.allocate(run, 0.0, exact_placement=True)
            spans.append(run)
        gone, kept = spans
        cpu = _allocate(rm, make_job(nodes=2, partition="cpu", wall_limit=900.0))
        gpu = _allocate(rm, make_job(nodes=1, partition="gpu", wall_limit=300.0))
        assert list(rm.expected_release_entries("gpu")) == [
            (300.0, 1, gpu.job_id), (600.0, 3, gone.job_id), (1200.0, 1, kept.job_id)
        ]
        rm.release(gone, 100.0)
        assert list(rm.expected_release_entries("cpu")) == [
            (900.0, 2, cpu.job_id), (1200.0, 1, kept.job_id)
        ]
        assert list(rm.expected_release_entries("gpu")) == [
            (300.0, 1, gpu.job_id), (1200.0, 1, kept.job_id)
        ]
        assert set(rm.running_by_id) == {cpu.job_id, gpu.job_id, kept.job_id}
