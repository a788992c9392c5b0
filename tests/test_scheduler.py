"""Tests for the scheduling policies (replay, FCFS, EASY backfill)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ResourceManager
from repro.config import get_system_config
from repro.engine import (
    BackfillScheduler,
    FCFSScheduler,
    ReplayScheduler,
    SchedulePass,
    Scheduler,
    SchedulingDecision,
    SimulationEngine,
    available_policies,
    get_scheduler,
)
from repro.engine.scheduler import _FreeNodeCounts, _last_start_before
from repro.exceptions import SchedulingError
from repro.telemetry import JobState

from helpers import (
    DenseEngine,
    make_job,
    queued_run,
    scan_reservation,
    schedule_calls,
    two_partition_system,
)


class TestRegistry:
    def test_available_policies(self):
        assert available_policies() == ("backfill", "fcfs", "replay")

    @pytest.mark.parametrize(
        "name, cls",
        [
            ("replay", ReplayScheduler),
            ("fcfs", FCFSScheduler),
            ("backfill", BackfillScheduler),
            ("EASY", BackfillScheduler),
        ],
    )
    def test_lookup(self, name, cls):
        assert isinstance(get_scheduler(name), cls)

    def test_unknown_policy(self):
        with pytest.raises(SchedulingError, match="unknown scheduling policy"):
            get_scheduler("sjf")


class TestReplayScheduler:
    def test_respects_recorded_start_times(self, tiny_system):
        # Recorded starts fall between the 15 s ticks on purpose.
        jobs = [
            make_job(nodes=2, submit=0.0, start=7.0, duration=300.0),
            make_job(nodes=4, submit=10.0, start=128.0, duration=450.0),
        ]
        engine = SimulationEngine(tiny_system, jobs, "replay")
        result = engine.run()
        assert [j.state for j in result.jobs] == [JobState.COMPLETED] * 2
        for original, simulated in zip(jobs, result.jobs):
            assert simulated.sim_start_time == pytest.approx(original.start_time)
            assert simulated.sim_end_time == pytest.approx(original.end_time)

    def test_enforces_recorded_node_sets(self, tiny_system):
        jobs = [
            make_job(nodes=3, start=0.0, duration=300.0, recorded_nodes=(5, 9, 17)),
        ]
        engine = SimulationEngine(tiny_system, jobs, "replay")
        result = engine.run()
        assert result.jobs[0].assigned_nodes == (5, 9, 17)

    def test_does_not_start_jobs_early(self, tiny_system):
        scheduler = ReplayScheduler()
        rm = ResourceManager(tiny_system)
        job = make_job(nodes=1, submit=0.0, start=500.0)
        assert scheduler.schedule([job], rm, now=0.0).starts == []
        decisions = scheduler.schedule([job], rm, now=510.0).starts
        assert len(decisions) == 1
        assert decisions[0].start_time == pytest.approx(500.0)

    def test_free_placement_cannot_steal_recorded_nodes_same_tick(self, tiny_system):
        # Both jobs are due in the same tick; the free-node job is earlier in
        # recorded-start order, but must not be handed nodes 0-1 that the
        # recorded placement of the other job needs.
        # Tick grid is 15 s: both become due at the t=15 tick, with the
        # flexible job first in recorded-start order.
        flexible = make_job(nodes=2, submit=0.0, start=8.0, duration=300.0)
        recorded = make_job(
            nodes=2, submit=0.0, start=12.0, duration=300.0, recorded_nodes=(0, 1)
        )
        result = SimulationEngine(tiny_system, [flexible, recorded], "replay").run()
        assert all(j.state is JobState.COMPLETED for j in result.jobs)
        placed = next(j for j in result.jobs if j.job.recorded_nodes)
        other = next(j for j in result.jobs if not j.job.recorded_nodes)
        assert placed.assigned_nodes == (0, 1)
        assert not set(other.assigned_nodes) & {0, 1}
        assert placed.sim_start_time == pytest.approx(12.0)
        assert other.sim_start_time == pytest.approx(8.0)

    def test_unsatisfiable_recorded_nodes_fall_back_to_free_placement(
        self, tiny_system
    ):
        # Node id 99 does not exist on the 32-node system: the recorded
        # placement can never be honoured, so the job must be relocated
        # rather than retried forever.
        job = make_job(
            nodes=2, submit=0.0, start=0.0, duration=300.0, recorded_nodes=(0, 99)
        )
        result = SimulationEngine(tiny_system, [job], "replay").run()
        assert result.jobs[0].state is JobState.COMPLETED
        assert result.jobs[0].replay_relocated is True
        assert all(n < 32 for n in result.jobs[0].assigned_nodes)

    def test_delayed_job_starts_late_and_is_flagged(self, tiny_system):
        # A 32-node blocker occupies the full system past job B's recorded start.
        blocker = make_job(nodes=32, submit=0.0, start=0.0, duration=600.0)
        late = make_job(nodes=1, submit=0.0, start=60.0, duration=150.0)
        engine = SimulationEngine(tiny_system, [blocker, late], "replay")
        result = engine.run()
        delayed = next(j for j in result.jobs if j.job.nodes_required == 1)
        assert delayed.state is JobState.COMPLETED
        assert delayed.sim_start_time >= 600.0
        assert delayed.replay_delayed is True


class TestFCFSScheduler:
    def test_starts_in_submission_order(self, tiny_system):
        scheduler = FCFSScheduler()
        rm = ResourceManager(tiny_system)
        jobs = [
            make_job(nodes=8, submit=float(i), start=float(i), duration=600.0)
            for i in range(3)
        ]
        decisions = scheduler.schedule(jobs, rm, now=10.0).starts
        assert [d.job.job_id for d in decisions] == [j.job_id for j in jobs]

    def test_blocks_behind_head_that_does_not_fit(self, tiny_system):
        scheduler = FCFSScheduler()
        rm = ResourceManager(tiny_system)
        # 30 of 32 nodes busy: an 8-node head is blocked, and strict FCFS
        # must not let the 1-node job behind it jump the queue.
        running = make_job(nodes=30, submit=0.0)
        rm.allocate(queued_run(running), 0.0)
        wide = make_job(nodes=8, submit=0.0)
        small = make_job(nodes=1, submit=1.0, start=1.0)
        assert scheduler.schedule([wide, small], rm, now=5.0).starts == []

    def test_tracks_nodes_consumed_within_one_tick(self, tiny_system):
        scheduler = FCFSScheduler()
        rm = ResourceManager(tiny_system)
        jobs = [make_job(nodes=12, submit=float(i)) for i in range(3)]
        decisions = scheduler.schedule(jobs, rm, now=5.0).starts
        # 12 + 12 fit in 32 nodes; the third must wait even though the
        # resource manager still reports 32 free nodes mid-tick.
        assert len(decisions) == 2


class TestBackfillScheduler:
    def test_short_job_backfills_without_delaying_wide_head(self, tiny_system):
        scheduler = BackfillScheduler()
        rm = ResourceManager(tiny_system)
        # 24 nodes busy until t=3600 (wall limit known to the scheduler).
        running = make_job(nodes=24, submit=0.0, start=0.0, duration=3600.0,
                           wall_limit=3600.0)
        rm.allocate(queued_run(running), 0.0)
        # Head needs 16 nodes -> blocked (only 8 free), shadow time 3600.
        wide = make_job(nodes=16, submit=10.0, wall_limit=1800.0)
        # Short job: 4 nodes for 600 s -> ends before the shadow time.
        short = make_job(nodes=4, submit=20.0, duration=600.0, wall_limit=600.0)
        # Long narrow job: 4 nodes for 2 h -> outlives the shadow time but
        # fits in the 8-node spare pool left once the head is reserved.
        long_narrow = make_job(nodes=4, submit=30.0, duration=7200.0,
                               wall_limit=7200.0)
        # Long wide job: 8 nodes past the shadow -> would eat the reservation.
        long_wide = make_job(nodes=8, submit=40.0, duration=7200.0,
                             wall_limit=7200.0)
        queue = [wide, short, long_narrow, long_wide]
        decisions = scheduler.schedule(queue, rm, now=60.0).starts
        started = {d.job.job_id for d in decisions}
        assert short.job_id in started
        assert long_narrow.job_id in started  # spare = 24 free at shadow - 16
        assert wide.job_id not in started
        assert long_wide.job_id not in started  # would delay the reservation

    def test_end_to_end_backfill_does_not_delay_wide_job(self, tiny_system):
        """The wide head starts at the same time with and without backfill."""
        def workload():
            return [
                make_job(nodes=24, submit=0.0, start=0.0, duration=3600.0,
                         wall_limit=3600.0),
                make_job(nodes=16, submit=30.0, start=30.0, duration=1800.0,
                         wall_limit=1800.0),
                make_job(nodes=4, submit=60.0, start=60.0, duration=600.0,
                         wall_limit=600.0),
            ]

        fcfs = SimulationEngine(tiny_system, workload(), "fcfs").run()
        easy = SimulationEngine(tiny_system, workload(), "backfill").run()

        def start_of(result, nodes):
            return next(
                j.sim_start_time for j in result.jobs if j.job.nodes_required == nodes
            )

        # The short job jumps ahead of the blocked 16-node job...
        assert start_of(easy, 4) < start_of(easy, 16)
        assert start_of(easy, 4) < start_of(fcfs, 4)
        # ...without delaying it: the wide job starts when the blocker ends,
        # exactly as under plain FCFS.
        assert start_of(easy, 16) == pytest.approx(start_of(fcfs, 16))

    def test_reduces_mean_wait_on_synthetic_workload(self, tiny_system, tiny_workload):
        fcfs = SimulationEngine(tiny_system, tiny_workload, "fcfs").run()
        easy = SimulationEngine(tiny_system, tiny_workload, "backfill").run()
        assert easy.summary()["mean_wait_s"] <= fcfs.summary()["mean_wait_s"]

    def test_reservation_is_partition_aware(self, two_partition_system):
        # gpu partition: 6 of 8 nodes busy until t=3600; a 7-node gpu head is
        # blocked. Free cpu nodes must not fool the reservation into letting
        # a long gpu job eat the head's nodes; an all-cpu job is independent
        # of the reservation and backfills freely.
        scheduler = BackfillScheduler()
        rm = ResourceManager(two_partition_system)
        running = make_job(nodes=6, partition="gpu", submit=0.0, duration=3600.0,
                           wall_limit=3600.0)
        rm.allocate(queued_run(running), 0.0)
        head = make_job(nodes=7, partition="gpu", submit=10.0, wall_limit=1800.0)
        gpu_long = make_job(nodes=2, partition="gpu", submit=20.0,
                            duration=7200.0, wall_limit=7200.0)
        cpu_long = make_job(nodes=4, partition="cpu", submit=30.0,
                            duration=7200.0, wall_limit=7200.0)
        decisions = scheduler.schedule([head, gpu_long, cpu_long], rm, now=60.0).starts
        started = {d.job.job_id for d in decisions}
        assert cpu_long.job_id in started  # different partition: independent
        assert gpu_long.job_id not in started  # would delay the gpu head
        assert head.job_id not in started


class TestBackfillReservationEdgeCases:
    def test_head_that_can_never_fit_reserves_nothing(self, tiny_system):
        # A 40-node head on a 32-node system can never start by the
        # expected-end estimate: shadow_time == inf, spare_nodes == 0.
        # Backfill must not crash, must not start the head, and every later
        # job that fits now may run (they all "end before" an infinite
        # shadow time).
        scheduler = BackfillScheduler()
        rm = ResourceManager(tiny_system)
        running = make_job(nodes=24, submit=0.0, duration=3600.0, wall_limit=3600.0)
        rm.allocate(queued_run(running), 0.0)
        head = make_job(nodes=40, submit=10.0, wall_limit=600.0)
        filler = make_job(nodes=8, submit=20.0, duration=7200.0, wall_limit=7200.0)
        queue = [head, filler]
        decisions = scheduler.schedule(queue, rm, now=60.0).starts
        started = {d.job.job_id for d in decisions}
        assert head.job_id not in started
        assert filler.job_id in started

    def test_occupant_overrunning_wall_limit_shadows_at_now(self, tiny_system):
        # The 24-node occupant's expected end (wall limit 600 s) is long
        # past; EASY assumes it ends imminently, so the shadow time is
        # ``now`` and no job that outlives ``now`` may eat the 8 spare
        # nodes beyond the head's reservation.
        scheduler = BackfillScheduler()
        rm = ResourceManager(tiny_system)
        overrunner = make_job(nodes=24, submit=0.0, duration=86400.0, wall_limit=600.0)
        rm.allocate(queued_run(overrunner), 0.0)
        head = make_job(nodes=16, submit=10.0, wall_limit=1800.0)
        # Shadow at now=7200: available = 8 free + 24 released = 32, spare
        # = 32 - 16 = 16... but only 8 nodes are actually free *now*, so a
        # backfill job must also fit the current free count.
        narrow = make_job(nodes=8, submit=20.0, duration=7200.0, wall_limit=7200.0)
        wide = make_job(nodes=12, submit=30.0, duration=7200.0, wall_limit=7200.0)
        queue = [head, narrow, wide]
        decisions = scheduler.schedule(queue, rm, now=7200.0).starts
        started = {d.job.job_id for d in decisions}
        assert head.job_id not in started
        assert narrow.job_id in started  # fits now and within the spare pool
        assert wide.job_id not in started  # only 8 nodes free right now

    @staticmethod
    def _reservation(system, head, now):
        """The walk's ``(shadow, spare)`` for ``head`` behind one 24-node
        occupant (wall limit 600 s, started at 0), and the scan's."""
        rm = ResourceManager(system)
        rm.allocate(
            queued_run(make_job(nodes=24, submit=0.0, duration=86400.0, wall_limit=600.0)),
            0.0,
        )
        scheduler = BackfillScheduler()
        walk = scheduler._reserve(head, rm.partition_of(head), _FreeNodeCounts(rm), rm, [], now)
        return walk[:2], scan_reservation(rm, head, [], now)

    def test_overrun_shadow_never_precedes_now(self, tiny_system):
        # Directly check the reservation arithmetic of the overrun case.
        head = make_job(nodes=16, submit=0.0, wall_limit=1800.0)
        walk, scan = self._reservation(tiny_system, head, now=7200.0)
        assert walk == scan == (7200.0, 16)  # max(now, stale end)

    def test_unfittable_head_reservation_is_inf(self, tiny_system):
        head = make_job(nodes=40, submit=0.0, wall_limit=600.0)
        walk, scan = self._reservation(tiny_system, head, now=0.0)
        assert walk == scan == (float("inf"), 0)


class TestNextEventHint:
    """A policy's next-event hint is its pass's ``valid_until``."""

    def test_default_vetoes_with_queue_and_allows_when_empty(self, tiny_system):
        # A policy that acts on the clock alone must answer valid_until=now,
        # the always-safe answer: the engine then steps every tick while
        # the queue holds a job, and ignores it once the queue is empty.
        class Minimal(Scheduler):
            name = "minimal"

            def schedule(self, queue, resource_manager, now):
                starts = [SchedulingDecision(queue[0])] if now >= 600.0 else []
                return SchedulePass(starts=starts, valid_until=now)

        job = make_job(nodes=1, submit=0.0, duration=300.0)
        result = SimulationEngine(tiny_system, [job], Minimal()).run()
        assert result.jobs[0].sim_start_time == 600.0
        times = [tick.time_s for tick in result.stats.ticks]
        assert times == [15.0 * k for k in range(41)] + [900.0]

    def test_fcfs_and_backfill_are_event_driven(self, tiny_system):
        # Started or blocked, their answer stands until the next event.
        rm = ResourceManager(tiny_system)
        fits = make_job(nodes=1, submit=0.0)
        blocked = make_job(nodes=40, submit=0.0, wall_limit=600.0)
        for scheduler in (FCFSScheduler(), BackfillScheduler()):
            for queue in ([fits], [blocked], [blocked, fits]):
                assert scheduler.schedule(queue, rm, now=50.0).valid_until is None

    def test_replay_hints_earliest_future_recorded_start(self, tiny_system):
        scheduler = ReplayScheduler()
        rm = ResourceManager(tiny_system)
        early = make_job(nodes=1, submit=0.0, start=900.0)
        late = make_job(nodes=1, submit=0.0, start=4500.0)
        idle = scheduler.schedule([late, early], rm, now=0.0)
        assert (idle.starts, idle.valid_until) == ([], 900.0)
        # A due job starts; the pass still names the earliest start ahead.
        due = make_job(nodes=1, submit=0.0, start=100.0)
        busy = scheduler.schedule([late, due, early], rm, now=200.0)
        assert [d.job.job_id for d in busy.starts] == [due.job_id]
        assert busy.valid_until == 900.0

    def test_replay_delayed_job_waits_on_releases_not_time(self, tiny_system):
        scheduler = ReplayScheduler()
        rm = ResourceManager(tiny_system)
        blocker = make_job(nodes=32, submit=0.0, duration=3600.0)
        rm.allocate(queued_run(blocker), 0.0)
        delayed = make_job(nodes=4, submit=0.0, start=60.0)
        schedule_pass = scheduler.schedule([delayed], rm, now=60.0)
        # The delayed job can only start after a release, which the engine
        # tracks as its own event — no time-based validity is needed.
        assert (schedule_pass.starts, schedule_pass.valid_until) == ([], None)


class TestLedgerSafety:
    def test_ledger_debits_each_job_from_its_partition(self, two_partition_system):
        # An unregistered-partition job runs in cpu, the first partition:
        # the ledger debits it there, exactly as the resource manager
        # places it, and the gpu count is untouched.
        rm = ResourceManager(two_partition_system)
        counts = _FreeNodeCounts(rm)
        debug = make_job(nodes=14, submit=0.0, partition="debug")
        assert counts.take(debug) == "cpu"
        assert (counts.free_in("cpu"), counts.free_in("gpu")) == (2, 8)
        assert not counts.fits(make_job(nodes=4, submit=0.0, partition="debug"))
        assert counts.fits(make_job(nodes=8, submit=0.0, partition="gpu"))
        rm.allocate(queued_run(debug), 0.0)
        assert (rm.free_node_count("cpu"), rm.free_node_count("gpu")) == (2, 8)

    def test_unregistered_partition_jobs_share_pool_safely(self, tiny_system):
        # A job naming an unregistered partition runs in the system's one
        # partition; a same-tick job naming it must see the reduced
        # availability instead of crashing the engine with an overcommit.
        big = make_job(nodes=30, submit=0.0, duration=600.0, partition="debug")
        small = make_job(nodes=4, submit=0.0, duration=300.0)
        result = SimulationEngine(tiny_system, [big, small], "fcfs").run()
        assert all(j.state is JobState.COMPLETED for j in result.jobs)
        deferred = next(j for j in result.jobs if j.job.nodes_required == 4)
        assert deferred.sim_start_time >= 600.0


class TestOnePartitionPerJob:
    """Every job runs in one partition: its own, else the first one."""

    @pytest.mark.parametrize("policy", ["replay", "fcfs", "backfill"])
    def test_unregistered_job_waits_for_cpu_and_never_exceeds_it(
        self, two_partition_system, policy
    ):
        # cpu (nodes 0-15) is full for an hour and gpu (16-23) idle: an
        # 8-node job naming no registered partition waits for cpu instead
        # of landing on gpu nodes 16-23, and a 17-node one exceeds cpu and
        # is dismissed at submission.
        hog = make_job(nodes=16, partition="cpu", duration=3600.0)
        waits = make_job(nodes=8, partition="debug", duration=600.0)
        too_big = make_job(nodes=17, partition="debug", duration=600.0)
        result = SimulationEngine(
            two_partition_system, [hog, waits, too_big], policy
        ).run()
        _, waited, dismissed = result.jobs
        assert waited.sim_start_time >= 3600.0
        assert max(waited.assigned_nodes) < 16
        assert dismissed.state is JobState.DISMISSED
        assert dismissed.dismiss_reason == "request exceeds system capacity"

    def test_reservation_declines_an_unregistered_job_in_one_sweep(
        self, two_partition_system
    ):
        # cpu head H (16 nodes) waits for a 14-node cpu job: shadow at its
        # expected end, no spare. A long 1-node job naming no registered
        # partition runs in cpu too, so the reservation declines it; the
        # short cpu job behind it takes the 2 free cpu nodes, and no second
        # sweep moves the declined job to a gpu node.
        rm = ResourceManager(two_partition_system)
        rm.allocate(
            queued_run(make_job(nodes=14, partition="cpu", duration=3600.0, wall_limit=3600.0)),
            0.0,
        )
        head = make_job(nodes=16, partition="cpu", submit=10.0, wall_limit=1800.0)
        debug = make_job(nodes=1, partition="debug", submit=20.0, wall_limit=7200.0)
        short = make_job(nodes=2, partition="cpu", submit=30.0, wall_limit=1800.0)
        decisions = BackfillScheduler().schedule([head, debug, short], rm, now=60.0).starts
        assert [d.job.job_id for d in decisions] == [short.job_id]


class TestBackfillNoOpMemoization:
    """Redundant EASY passes are skipped on power-only steps: the engine
    reuses a pass while the epoch and the queue stand (dense ticks, so
    every grid tick is a step)."""

    def _engine(self, extra_jobs=()):
        # A 32-node hog until t=7200 blocks an 8-node job behind it.
        system = get_system_config("tiny")
        hog = make_job(nodes=32, submit=0.0, duration=7200.0, wall_limit=7200.0)
        blocked = make_job(nodes=8, submit=0.0, duration=600.0, wall_limit=600.0)
        jobs = [hog, blocked, *extra_jobs]
        engine = DenseEngine(system, jobs, "backfill")
        return engine, schedule_calls(engine), blocked

    def test_noop_is_memoized_until_epoch_changes(self):
        engine, calls, blocked = self._engine()
        result = engine.run()
        # t=0 starts the hog, t=15 declines the blocked job, and that pass
        # stands until the release at t=7200 starts it.
        assert [now for now, _ in calls] == [0.0, 15.0, 7200.0]
        assert result.jobs[1].sim_start_time == 7200.0
        assert engine._pass_memo_hits == 7200 // 15 - 2
        assert engine.scheduler.reservations_computed == 2

    def test_queue_change_invalidates_memo(self):
        # A submission at t=3000 moves the queue version: the engine asks
        # again although the epoch stands.
        late = make_job(nodes=4, submit=3000.0, start=3000.0, duration=600.0,
                        wall_limit=600.0)
        engine, calls, _ = self._engine([late])
        engine.run()
        assert [now for now, _ in calls] == [0.0, 15.0, 3000.0, 7200.0]

    def test_reset_clears_memo(self):
        # The pass lives in the engine, not the policy: a second engine
        # driving the same policy instance asks it afresh, exactly as the
        # first did, and the engine's reset clears the policy's counter.
        engine, calls, _ = self._engine()
        engine.run()
        jobs = [run.job for run in engine.runs]
        again = DenseEngine(engine.system, jobs, engine.scheduler)
        assert again._pass_key is None
        assert again.scheduler.reservations_computed == 0
        again.run()
        assert [now for now, _ in calls] == [0.0, 15.0, 7200.0] * 2
        assert again.scheduler.reservations_computed == 2

    def test_successful_decisions_are_never_memoized(self):
        # Executing a pass's starts moves the epoch and the queue version,
        # so a pass that started a job is never reused.
        engine, calls, _ = self._engine()
        engine.step()
        [(_, first)] = calls
        assert first.starts
        assert engine._pass_key != (
            engine.resource_manager.epoch, engine._queue_version
        )
        engine.step()
        assert len(calls) == 2


class _ScanBackfillScheduler(BackfillScheduler):
    """Reference EASY backfill: every reservation from the node scan."""

    def _reserve(self, head, partition, free_counts, resource_manager, started, now):
        # A shadow that is never fixed and a walk that stands forever: the
        # decisions do not depend on either.
        self.reservations_computed += 1
        shadow, spare = scan_reservation(
            resource_manager, head, [job for _, job, _ in started], now
        )
        return shadow, spare, False, math.inf


class TestBackfillReservationIndex:
    """The indexed reservation (expected-release index) vs the scan."""

    def _rig(self, system, running_specs, queue_specs, now):
        def build(scheduler):
            rm = ResourceManager(system)
            for nodes, duration, limit in running_specs:
                job = make_job(nodes=nodes, submit=0.0, duration=duration,
                               wall_limit=limit)
                rm.allocate(queued_run(job), 0.0)
            queue = []
            for nodes, duration, limit in queue_specs:
                job = make_job(nodes=nodes, submit=0.0, duration=duration,
                               wall_limit=limit)
                queue.append(job)
            return [
                (d.job.nodes_required, d.job.wall_time_limit)
                for d in scheduler.schedule(queue, rm, now).starts
            ]

        indexed = BackfillScheduler()
        decisions = build(indexed), build(_ScanBackfillScheduler())
        assert indexed.reservations_computed > 0
        return decisions

    def test_indexed_and_scan_reservations_agree(self, tiny_system):
        indexed, scanned = self._rig(
            tiny_system,
            running_specs=[(24, 3600.0, 3600.0), (2, 7200.0, 7200.0)],
            queue_specs=[
                (16, 1800.0, 1800.0),   # blocked head -> reservation
                (4, 1200.0, 1200.0),    # ends before shadow -> backfills
                (6, 86400.0, 86400.0),  # outlives shadow, needs spare
            ],
            now=60.0,
        )
        assert indexed == scanned

    def test_overrun_occupant_agrees(self, tiny_system):
        # Expected end in the past: shadow snaps to now on both paths.
        indexed, scanned = self._rig(
            tiny_system,
            running_specs=[(24, 86400.0, 600.0)],
            queue_specs=[(16, 1800.0, 1800.0), (8, 7200.0, 7200.0),
                         (12, 7200.0, 7200.0)],
            now=7200.0,
        )
        assert indexed == scanned

    def test_unfittable_head_agrees(self, tiny_system):
        indexed, scanned = self._rig(
            tiny_system,
            running_specs=[(24, 3600.0, 3600.0)],
            queue_specs=[(40, 600.0, 600.0), (8, 7200.0, 7200.0)],
            now=0.0,
        )
        assert indexed == scanned

    def test_partition_confined_head_agrees(self, two_partition_system):
        # A head restricted to a proper subset of the nodes walks its
        # partition's expected-release list; it must take the same
        # partition-aware decisions as the reference scan.
        def run(scheduler):
            rm = ResourceManager(two_partition_system)
            running = make_job(nodes=6, partition="gpu", submit=0.0,
                               duration=3600.0, wall_limit=3600.0)
            rm.allocate(queued_run(running), 0.0)
            head = make_job(nodes=7, partition="gpu", submit=10.0, wall_limit=1800.0)
            gpu_long = make_job(nodes=2, partition="gpu", submit=20.0,
                                duration=7200.0, wall_limit=7200.0)
            cpu_long = make_job(nodes=4, partition="cpu", submit=30.0,
                                duration=7200.0, wall_limit=7200.0)
            queue = [head, gpu_long, cpu_long]
            return [d.job.partition for d in scheduler.schedule(queue, rm, 60.0).starts]

        default = BackfillScheduler()
        assert run(default) == run(_ScanBackfillScheduler()) == ["cpu"]
        assert default.reservations_computed == 1

    def test_same_tick_starts_enter_the_reservation(self, tiny_system):
        # Phase-1 starts of the same tick must occupy the reservation walk
        # on both paths: a 16-node head behind a fresh 24-node start.
        indexed, scanned = self._rig(
            tiny_system,
            running_specs=[],
            queue_specs=[
                (24, 3600.0, 3600.0),   # starts now (phase 1)
                (16, 1800.0, 1800.0),   # blocked head
                (8, 1200.0, 1200.0),    # candidate backfill
            ],
            now=0.0,
        )
        assert indexed == scanned


#: Partitions the reservation property draws jobs from: ``debug`` is not
#: registered on the two-partition system, so its jobs run in ``cpu``.
_PARTITIONS = ("cpu", "gpu", "debug")


class TestReservationWalkMatchesScan:
    """The one reservation walk equals the node scan with ``==``, and a pass
    nothing came of keeps its starts until its ``stands_until``."""

    NOW = 7200.0

    @classmethod
    def _draw_state(cls, data):
        """A two-partition resource manager, this tick's own starts (as
        phase 1 records them) and a blocked head of any partition name."""
        system = two_partition_system()
        rm = ResourceManager(system)
        now = cls.NOW
        # Running jobs of each partition name, some placed explicitly on
        # nodes of both partitions; early starts with short wall limits
        # overrun them (expected end before now).
        for _ in range(data.draw(st.integers(0, 10))):
            start = data.draw(st.sampled_from((0.0, 3600.0, 6600.0, now)))
            job = make_job(
                nodes=data.draw(st.integers(1, 12)),
                partition=data.draw(st.sampled_from(_PARTITIONS)),
                submit=start,
                start=start,
                duration=14400.0,
                wall_limit=data.draw(st.sampled_from((300.0, 1800.0, 3600.0, 7200.0))),
            )
            free = rm.available_node_ids()
            if data.draw(st.booleans()) and len(free) >= job.nodes_required:
                nodes = data.draw(st.permutations(free))[: job.nodes_required]
                rm.allocate(queued_run(job), start, node_ids=nodes)
            elif job.nodes_required <= rm.free_node_count(rm.partition_of(job)):
                rm.allocate(queued_run(job), start)
        # This tick's own starts, debited from the ledger as phase 1 does.
        ledger = _FreeNodeCounts(rm)
        started = []
        for _ in range(data.draw(st.integers(0, 4))):
            job = make_job(
                nodes=data.draw(st.integers(1, 8)),
                partition=data.draw(st.sampled_from(_PARTITIONS)),
                submit=now,
                start=now,
                wall_limit=data.draw(st.sampled_from((600.0, 1800.0, 7200.0))),
            )
            if ledger.fits(job):
                started.append((now + job.requested_runtime, job, ledger.take(job)))
        # A blocked head of any partition name; beyond its partition's
        # capacity it never fits.
        name = data.draw(st.sampled_from(_PARTITIONS))
        partition = rm.partition_of(make_job(partition=name))
        head = make_job(
            nodes=ledger.free_in(partition) + data.draw(st.integers(1, 10)),
            partition=name,
            submit=now,
            start=now,
            wall_limit=1800.0,
        )
        return rm, ledger, started, head

    @classmethod
    def _draw_overtaken_state(cls, data):
        """The shape only case 3 of ``stands_until`` covers, as a resource
        manager and a queue: an own start, the head and a candidate.

        The head fits on the own start's end with nodes to spare. A fixed
        expected end of its partition follows that end by a few ticks, so
        as ``now`` advances the own end passes it; the head then fits on
        the fixed end with none to spare, and the candidate, with the own
        start's wall limit, no longer ends by the shadow and is declined.
        """
        rm = ResourceManager(two_partition_system())
        now = cls.NOW
        name = data.draw(st.sampled_from(_PARTITIONS))
        partition = rm.partition_of(make_job(partition=name))
        fixed_nodes = data.draw(st.integers(1, 2))
        own_nodes = data.draw(st.integers(fixed_nodes + 1, fixed_nodes + 2))
        free_nodes = data.draw(
            st.integers(1, rm.partition_capacity(partition) - fixed_nodes - own_nodes)
        )
        runtime = data.draw(st.sampled_from((600.0, 1800.0)))
        fixed_end = now + runtime + 15.0 * data.draw(st.integers(1, 4))
        start = data.draw(st.sampled_from((0.0, 3600.0, 6600.0)))
        # The fixed end, and a later one holding the rest of the partition.
        for nodes, wall_limit in (
            (fixed_nodes, fixed_end - start),
            (rm.partition_capacity(partition) - fixed_nodes - own_nodes - free_nodes, 14400.0),
        ):
            if nodes:
                job = make_job(nodes=nodes, partition=name, submit=start, start=start,
                               duration=14400.0, wall_limit=wall_limit)
                rm.allocate(queued_run(job), start)
        queue = [
            make_job(nodes=nodes, partition=name, submit=now, start=now, wall_limit=limit)
            for nodes, limit in (
                (own_nodes, runtime),
                (free_nodes + fixed_nodes, 1800.0),
                (data.draw(st.integers(1, free_nodes)), runtime),
            )
        ]
        return rm, queue

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_walk_equals_scan_on_two_partitions(self, data):
        rm, ledger, started, head = self._draw_state(data)
        partition = rm.partition_of(head)
        walk = BackfillScheduler()._reserve(head, partition, ledger, rm, started, self.NOW)
        scan = scan_reservation(rm, head, [job for _, job, _ in started], self.NOW)
        assert walk[:2] == scan

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_pass_keeps_its_starts_until_it_stands_no_longer(self, data):
        # The queue is the own starts, the head and candidates behind it.
        # Asked again at every later grid tick before stands_until, with
        # nothing executed, the policy names the same starts. Every expected
        # end lies by 14400 s, and every answer after that stands. Half the
        # draws take the shape only case 3 covers; a uniform draw rarely
        # shows it.
        if data.draw(st.booleans()):
            rm, queue = self._draw_overtaken_state(data)
        else:
            rm, _, started, head = self._draw_state(data)
            queue = [job for _, job, _ in started] + [head]
        queue += [
            make_job(
                nodes=data.draw(st.integers(1, 8)),
                partition=data.draw(st.sampled_from(_PARTITIONS)),
                submit=self.NOW,
                start=self.NOW,
                wall_limit=data.draw(st.sampled_from((600.0, 1800.0, 3600.0, 7200.0))),
            )
            for _ in range(data.draw(st.integers(0, 6)))
        ]
        scheduler = BackfillScheduler()
        first = scheduler.schedule(queue, rm, self.NOW)
        starts = [decision.job.job_id for decision in first.starts]
        stands_until = 14400.0 if first.stands_until is None else first.stands_until
        now = self.NOW + 15.0
        while now < stands_until:
            again = scheduler.schedule(queue, rm, now)
            assert [decision.job.job_id for decision in again.starts] == starts, now
            now += 15.0


class TestStandingTimeArithmetic:
    """``e - requested_runtime`` rounded down to a safe bound."""

    @given(
        end=st.floats(-1e9, 1e9, allow_nan=False),
        runtime=st.floats(0.0, 1e7, allow_nan=False),
    )
    def test_every_earlier_start_ends_before_the_end(self, end, runtime):
        # The latest float before the bound is the worst case: float
        # addition is monotone, so every earlier now ends earlier still.
        now = math.nextafter(_last_start_before(end, runtime), -math.inf)
        assert now + runtime < end
