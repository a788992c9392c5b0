"""End-to-end tests for the simulation engine and run_simulation."""

from __future__ import annotations

import copy
import dataclasses
import textwrap

import pytest

import repro
from repro import run_simulation
from repro.cluster import ResourceManager
from repro.config import get_system_config
from repro.engine import (
    FCFSScheduler,
    PowerCapScheduler,
    SchedulePass,
    SimulationEngine,
    parse_duration,
)
from repro.exceptions import ConfigurationError, SchedulingError, SimulationError, SRapsError
from repro.power import OperatingSignals, SystemPowerModel
from repro.telemetry import JobState, Profile
from repro.workloads import (
    SyntheticWorkloadGenerator,
    WorkloadSpec,
    busy_trace_spec,
    default_workload_spec,
)
from repro.workloads.distributions import (
    JobSizeDistribution,
    RuntimeDistribution,
    WaveArrivals,
)

from helpers import (
    DenseEngine,
    idle_floor_kw,
    is_constant,
    make_job,
    next_power_change_after,
    run_dense,
    schedule_calls,
    summary_drifts,
    two_partition_system,
    without_pass_memo,
)


class TestParseDuration:
    @pytest.mark.parametrize(
        "value, expected",
        [
            ("3600", 3600.0),
            (1800, 1800.0),
            ("90m", 5400.0),
            ("6h", 21600.0),
            ("1d", 86400.0),
            ("30s", 30.0),
            ("2.5h", 9000.0),
            # Inherited from the canonical repro.units parser:
            ("1:30:00", 5400.0),
            ("2-12:00:00", 216000.0),
            ("2 weeks", 1209600.0),
        ],
    )
    def test_valid(self, value, expected):
        assert parse_duration(value) == pytest.approx(expected)

    @pytest.mark.parametrize("value", ["", "h6", "abc", "-5m", "0"])
    def test_invalid(self, value):
        # Garbage raises ConfigurationError (from repro.units), non-positive
        # values SimulationError; both are SRapsError.
        with pytest.raises(SRapsError):
            parse_duration(value)


class TestEngineSmoke:
    @pytest.mark.parametrize("policy", ["replay", "fcfs", "backfill"])
    def test_synthetic_run_completes(self, tiny_system, tiny_workload, policy):
        engine = SimulationEngine(tiny_system, tiny_workload, policy)
        result = engine.run()
        # Every job drains through the system...
        assert all(j.state is JobState.COMPLETED for j in result.jobs)
        # ...consuming energy at a plausible PUE.
        summary = result.summary()
        assert summary["total_energy_kwh"] > 0
        assert 1.0 <= summary["mean_pue"] <= 2.0
        assert 1.0 <= summary["max_pue"] <= 2.0
        assert 0.0 < summary["mean_utilization"] <= 1.0
        assert summary["node_hours"] > 0

    def test_engine_does_not_mutate_input_jobs(self, tiny_system, tiny_workload):
        before = copy.deepcopy(tiny_workload)
        result = SimulationEngine(tiny_system, tiny_workload, "fcfs").run()
        assert tiny_workload == before
        assert [run.job for run in result.jobs] == tiny_workload
        assert all(run.job is job for run, job in zip(result.jobs, tiny_workload))

    def test_duplicate_job_ids_rejected(self, tiny_system):
        # The run table is keyed on job ids: a repeated id is an input
        # error, not a policy that scheduled a job twice.
        first = make_job(nodes=1)
        twin = make_job(nodes=2)
        twin = dataclasses.replace(twin, job_id=first.job_id)
        with pytest.raises(SimulationError, match=str(first.job_id)):
            SimulationEngine(tiny_system, [first, twin], "fcfs")

    @pytest.mark.parametrize(
        "seed", [-1, 1.5, "3", True], ids=["negative", "float", "string", "bool"]
    )
    def test_rejects_bad_seed(self, tiny_system, tiny_workload, seed):
        # The engine checks its seed itself, with the error RunRequest
        # raises, rather than running (it draws from it only when nodes
        # are down).
        with pytest.raises(ConfigurationError, match="seed must be an integer >= 0"):
            SimulationEngine(tiny_system, tiny_workload, "fcfs", seed=seed)

    def test_fixed_seed_is_deterministic(self):
        a = run_simulation(system="tiny", policy="fcfs", duration="3h", seed=11)
        b = run_simulation(system="tiny", policy="fcfs", duration="3h", seed=11)
        assert a.summary() == b.summary()

    def test_releases_happen_before_allocations(self, tiny_system):
        # Back-to-back full-system jobs: the second can only ever start if
        # the engine releases the first within the same tick it reallocates.
        jobs = [
            make_job(nodes=32, submit=0.0, start=0.0, duration=300.0),
            make_job(nodes=32, submit=0.0, start=300.0, duration=300.0),
        ]
        result = SimulationEngine(tiny_system, jobs, "fcfs").run()
        assert all(j.state is JobState.COMPLETED for j in result.jobs)
        first, second = sorted(
            result.jobs, key=lambda j: j.sim_start_time or 0.0
        )
        assert second.sim_start_time == pytest.approx(
            (first.sim_start_time or 0.0) + 300.0
        )

    def test_impossible_request_is_dismissed(self, tiny_system):
        jobs = [
            make_job(nodes=33, submit=0.0),  # tiny has 32 nodes
            make_job(nodes=2, submit=0.0),
        ]
        result = SimulationEngine(tiny_system, jobs, "fcfs").run()
        oversize = next(j for j in result.jobs if j.job.nodes_required == 33)
        normal = next(j for j in result.jobs if j.job.nodes_required == 2)
        assert oversize.state is JobState.DISMISSED
        assert "capacity" in str(oversize.dismiss_reason)
        assert normal.state is JobState.COMPLETED

    def test_horizon_dismisses_leftover_jobs(self, tiny_system):
        jobs = [
            make_job(nodes=1, submit=0.0, duration=600.0),
            make_job(nodes=1, submit=7200.0, start=7200.0, duration=600.0),
        ]
        engine = SimulationEngine(tiny_system, jobs, "fcfs", horizon_s=3600.0)
        result = engine.run()
        states = sorted(j.state.value for j in result.jobs)
        assert states == ["completed", "dismissed"]

    def test_horizon_truncates_in_flight_jobs(self, tiny_system):
        # A job still running at the horizon must not vanish from the
        # accounting: it is truncated and counted as completed.
        jobs = [make_job(nodes=2, submit=0.0, duration=86400.0)]
        result = SimulationEngine(tiny_system, jobs, "fcfs", horizon_s=1800.0).run()
        job = result.jobs[0]
        assert job.state is JobState.COMPLETED
        assert job.truncated_by_horizon is True
        assert (job.sim_duration or 0.0) < 86400.0
        summary = result.summary()
        assert summary["jobs_completed"] + summary["jobs_dismissed"] == 1.0
        assert summary["node_hours"] == pytest.approx(2 * (job.sim_duration or 0) / 3600.0)

    def test_replay_long_recorded_wait_does_not_trip_loop_guard(self, tiny_system):
        # Replay legitimately idles until the recorded start, which can far
        # exceed the sum-of-runtimes bound a reschedule policy would obey.
        job = make_job(nodes=1, submit=0.0, start=50000.0, duration=600.0)
        result = SimulationEngine(tiny_system, [job], "replay").run()
        assert result.jobs[0].state is JobState.COMPLETED
        assert result.jobs[0].sim_start_time == pytest.approx(50000.0)

    def test_empty_workload(self, tiny_system):
        result = SimulationEngine(tiny_system, [], "fcfs").run()
        assert result.summary()["ticks"] == 0.0

    def test_down_nodes_shrink_capacity(self, tiny_system):
        system = tiny_system.with_overrides(down_node_fraction=0.25)
        jobs = [make_job(nodes=32, submit=0.0)]  # no longer fits: 24 up nodes
        result = SimulationEngine(system, jobs, "fcfs", seed=3).run()
        assert result.jobs[0].state is JobState.DISMISSED


def _summaries_equal(sparse: dict, dense: dict, *, rel: float = 1e-6) -> None:
    """Assert two run summaries agree on everything except the sample count."""
    assert set(sparse) == set(dense)
    for key, dense_value in dense.items():
        if key == "ticks":
            continue
        assert sparse[key] == pytest.approx(dense_value, rel=rel, abs=1e-9), key


class TestEventDrivenEquivalence:
    """Event-driven coalescing must be invisible in every summary metric."""

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_synthetic_backfill_summary_matches_dense(self, tiny_system, seed):
        generator = SyntheticWorkloadGenerator(
            tiny_system, default_workload_spec(tiny_system), seed=seed
        )
        jobs = generator.generate(6 * 3600.0)
        sparse = SimulationEngine(tiny_system, jobs, "backfill", seed=seed).run()
        dense = DenseEngine(tiny_system, jobs, "backfill", seed=seed).run()
        _summaries_equal(sparse.summary(), dense.summary())
        # Coalescing is bounded by events and profile breakpoints, so the
        # sample count can at best shrink, never grow.
        assert sparse.summary()["ticks"] <= dense.summary()["ticks"]

    @pytest.mark.parametrize("policy", ["fcfs", "replay"])
    def test_other_policies_match_dense(self, tiny_system, policy):
        generator = SyntheticWorkloadGenerator(
            tiny_system, default_workload_spec(tiny_system), seed=5
        )
        jobs = generator.generate(4 * 3600.0)
        sparse = SimulationEngine(tiny_system, jobs, policy).run()
        dense = DenseEngine(tiny_system, jobs, policy).run()
        _summaries_equal(sparse.summary(), dense.summary())

    def test_idle_heavy_workload_skips_ten_x_steps(self, tiny_system):
        # Three short constant-power jobs separated by hours of idle time:
        # the engine should jump the gaps (and the constant-power runs)
        # instead of grinding through every 15 s tick.
        jobs = [
            make_job(nodes=4, submit=0.0, duration=600.0),
            make_job(nodes=2, submit=20000.0, start=20000.0, duration=900.0),
            make_job(nodes=8, submit=50000.0, start=50000.0, duration=600.0),
        ]
        sparse = SimulationEngine(
            tiny_system, jobs, "fcfs"
        ).run()
        dense = DenseEngine(tiny_system, jobs, "fcfs").run()
        _summaries_equal(sparse.summary(), dense.summary())
        assert sparse.summary()["ticks"] * 10 <= dense.summary()["ticks"]

    def test_replay_skips_to_backdated_starts(self, tiny_system):
        # Replay idles until each recorded start; the scheduler hint lets
        # the engine jump there instead of ticking through the wait.
        jobs = [
            make_job(nodes=1, submit=0.0, start=30000.0, duration=300.0),
            make_job(nodes=1, submit=0.0, start=60000.0, duration=300.0),
        ]
        sparse = SimulationEngine(
            tiny_system, jobs, "replay"
        ).run()
        dense = DenseEngine(tiny_system, jobs, "replay").run()
        for result in (sparse, dense):
            starts = sorted(j.sim_start_time for j in result.jobs)
            assert starts == [pytest.approx(30000.0), pytest.approx(60000.0)]
        _summaries_equal(sparse.summary(), dense.summary())
        assert sparse.summary()["ticks"] * 10 <= dense.summary()["ticks"]

    def test_varying_power_jobs_coalesce_between_breakpoints(self, tiny_system):
        # Jobs with non-constant power traces no longer force dense ticking:
        # the engine coalesces up to each profile's next value change, so
        # the energy integral still matches dense mode exactly while the
        # 60 s-sampled traces need at most one step per 4 grid ticks.
        spec = WorkloadSpec(
            sizes=JobSizeDistribution(min_nodes=1, max_nodes=8),
            runtimes=RuntimeDistribution(median_s=1200.0, sigma=0.5, min_s=300.0, max_s=3600.0),
            arrivals=WaveArrivals(rate_per_hour=2.0),
            trace_interval_s=60.0,
            generate_power_trace=True,
        )
        jobs = SyntheticWorkloadGenerator(tiny_system, spec, seed=13).generate(4 * 3600.0)
        sparse = SimulationEngine(tiny_system, jobs, "fcfs").run()
        dense = DenseEngine(tiny_system, jobs, "fcfs").run()
        _summaries_equal(sparse.summary(), dense.summary())
        assert sparse.summary()["ticks"] < dense.summary()["ticks"]

    def test_coalescing_stops_exactly_at_profile_breakpoints(self, tiny_system):
        # One job whose CPU profile changes value only at t=1200 (the 600 s
        # sample repeats the initial value and is NOT a breakpoint): the
        # engine should record exactly three samples — start, breakpoint,
        # and the release tick — instead of 120 dense ones.
        profile = Profile([0.0, 600.0, 1200.0], [0.4, 0.4, 0.9])
        jobs = [
            make_job(nodes=2, submit=0.0, duration=1800.0, cpu_profile=profile)
        ]
        sparse = SimulationEngine(
            tiny_system, jobs, "fcfs"
        ).run()
        dense = DenseEngine(tiny_system, jobs, "fcfs").run()
        _summaries_equal(sparse.summary(), dense.summary(), rel=1e-9)
        assert [t.time_s for t in sparse.stats.ticks] == [0.0, 1200.0, 1800.0]
        assert [t.dt_s for t in sparse.stats.ticks] == [1200.0, 600.0, 15.0]

    @pytest.mark.parametrize("policy", ["fcfs", "backfill", "replay"])
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_piecewise_constant_workload_matches_dense(
        self, tiny_system, policy, seed
    ):
        # The tentpole property: workloads dominated by multi-phase
        # piecewise-constant profiles (the telemetry-replay shape) must
        # coalesce without any summary drift, across policies and seeds.
        spec = WorkloadSpec(
            sizes=JobSizeDistribution(min_nodes=1, max_nodes=8),
            runtimes=RuntimeDistribution(
                median_s=1800.0, sigma=0.6, min_s=600.0, max_s=7200.0
            ),
            arrivals=WaveArrivals(rate_per_hour=4.0),
            trace_interval_s=60.0,
            generate_power_trace=bool(seed % 2),
            phase_count_range=(2, 5),
            sample_noise=0.0,
        )
        jobs = SyntheticWorkloadGenerator(tiny_system, spec, seed=seed).generate(
            4 * 3600.0
        )
        # A couple of constant-profile jobs ride along; the non-constant
        # multi-phase ones must still be the majority for the test to mean
        # anything.
        jobs += [
            make_job(nodes=1, submit=600.0 * i, start=600.0 * i, duration=900.0)
            for i in range(3)
        ]
        non_constant = [
            j
            for j in jobs
            if any(not is_constant(p) for p in j.power_profiles())
        ]
        assert 2 * len(non_constant) >= len(jobs)
        sparse = SimulationEngine(
            tiny_system, jobs, policy, seed=seed
        ).run()
        dense = DenseEngine(tiny_system, jobs, policy, seed=seed).run()
        _summaries_equal(sparse.summary(), dense.summary(), rel=1e-9)
        assert sparse.summary()["ticks"] <= dense.summary()["ticks"]

    def test_busy_piecewise_trace_gets_large_step_reduction(self, tiny_system):
        # The point of breakpoint-bounded coalescing: a *busy* trace (high
        # utilization, piecewise-constant phases) must shed >= 5x the steps,
        # where the old constant-power veto gave exactly 1x. Uses the same
        # spec as the busy-trace gate in tests/test_contract.py so tuning
        # one cannot silently desynchronise the other.
        jobs = SyntheticWorkloadGenerator(
            tiny_system, busy_trace_spec(), seed=42
        ).generate(12 * 3600.0)
        sparse = SimulationEngine(
            tiny_system, jobs, "backfill", seed=42
        ).run()
        dense = DenseEngine(tiny_system, jobs, "backfill", seed=42).run()
        _summaries_equal(sparse.summary(), dense.summary(), rel=1e-9)
        assert sparse.summary()["mean_utilization"] > 0.5  # genuinely busy
        assert sparse.summary()["ticks"] * 5 <= dense.summary()["ticks"]

    def test_dense_ticks_records_every_grid_tick(self, tiny_system):
        jobs = [make_job(nodes=2, submit=0.0, duration=1200.0)]
        dense = DenseEngine(tiny_system, jobs, "fcfs").run()
        assert all(t.dt_s == tiny_system.timestep_s for t in dense.stats.ticks)
        sparse = SimulationEngine(tiny_system, jobs, "fcfs").run()
        assert len(sparse.stats.ticks) < len(dense.stats.ticks)
        # Aggregated samples still cover the same simulated span.
        assert sum(t.dt_s for t in sparse.stats.ticks) == pytest.approx(
            sum(t.dt_s for t in dense.stats.ticks)
        )


def _run_with_scanned_indexes(system, jobs, policy, seed):
    """Run with every event-index answer checked against a running-set scan.

    The resource manager's end-time heap and the power aggregator's
    breakpoint heap replace O(R) scans of the running set. At every
    coalescing decision the heaps must name exactly the earliest job end
    and profile change the scan finds, and every release must free exactly
    the scanned due set in job-id order. Returns the result and the number
    of checked steps.
    """
    engine = SimulationEngine(
        system, jobs, policy, seed=seed
    )
    rm = engine.resource_manager
    coalesced_dt = engine._coalesced_dt
    complete_finished_jobs = rm.complete_finished_jobs
    checked = 0

    def checked_coalesced_dt(now, timestep):
        nonlocal checked
        running = list(rm.running_by_id.values())
        ends = [run.sim_start_time + run.job.duration for run in running]
        assert rm.next_job_end() == min(ends, default=None)
        changes = [
            change
            for run in running
            if (change := next_power_change_after(run, now)) is not None
        ]
        assert engine.power_aggregator.next_breakpoint_after(now) == min(
            changes, default=None
        )
        checked += 1
        return coalesced_dt(now, timestep)

    def checked_complete_finished_jobs(now):
        due = sorted(
            run.job_id
            for run in rm.running_by_id.values()
            if run.sim_start_time + run.job.duration <= now
        )
        released = complete_finished_jobs(now)
        assert [run.job_id for run in released] == due
        return released

    engine._coalesced_dt = checked_coalesced_dt
    rm.complete_finished_jobs = checked_complete_finished_jobs
    result = engine.run()
    unchecked = SimulationEngine(
        system, jobs, policy, seed=seed
    ).run()
    assert result.summary() == unchecked.summary()
    return result, checked


class TestEventIndexEquivalence:
    """The O(log R) event indexes must change complexity, never semantics."""

    def test_scan_path_matches_heap_path_exactly(self, tiny_system):
        # The breakpoint-dense busy trace: the heaps must agree with the
        # scan at every step, not merely give a 1e-9-close summary.
        jobs = SyntheticWorkloadGenerator(
            tiny_system, busy_trace_spec(), seed=7
        ).generate(6 * 3600.0)
        _, checked = _run_with_scanned_indexes(tiny_system, jobs, "backfill", 7)
        assert checked > 0

    @pytest.mark.parametrize("policy", ["replay", "fcfs"])
    def test_scan_path_matches_for_other_policies(self, tiny_system, policy):
        generator = SyntheticWorkloadGenerator(
            tiny_system, default_workload_spec(tiny_system), seed=19
        )
        jobs = generator.generate(4 * 3600.0)
        _, checked = _run_with_scanned_indexes(tiny_system, jobs, policy, 19)
        assert checked > 0

    def test_frontier_scale_spec_heap_vs_scan(self):
        # A one-hour slice of the frontier-scale gate's workload (the gate
        # in tests/test_contract.py runs 12 h): >= 1000 concurrently
        # running jobs, and the heaps must agree with the scan at every
        # step. Both use frontier_scale_spec, so they cannot drift apart.
        from repro.workloads import frontier_scale_spec

        system = get_system_config("frontier")
        jobs = SyntheticWorkloadGenerator(
            system, frontier_scale_spec(), seed=3
        ).generate(3600.0)
        result, checked = _run_with_scanned_indexes(system, jobs, "backfill", 3)
        assert checked > 0
        assert max(t.running_jobs for t in result.stats.ticks) >= 1000

    def test_end_heap_drains_after_run(self, tiny_system, tiny_workload):
        # After a full backfill run (plenty of epoch churn) the end-time
        # index must be empty: every entry was either completed or went
        # stale and was discarded exactly once — nothing lingers to be
        # revisited by a later run of the same resource manager.
        engine = SimulationEngine(tiny_system, tiny_workload, "backfill")
        engine.run()
        rm = engine.resource_manager
        assert rm.running_by_id == {}
        assert rm._end_of == {}
        assert rm.next_job_end() is None  # drains any remaining stale entries
        assert rm._end_heap == []


class TestHorizonClamping:
    def test_truncation_is_clamped_to_off_grid_horizon(self, tiny_system):
        # 1795 s is not a multiple of the 15 s tick: the old code released
        # the job at the next tick boundary (1800 s), crediting 5 s of
        # runtime and node-hours past the horizon.
        jobs = [make_job(nodes=2, submit=0.0, duration=86400.0)]
        result = SimulationEngine(tiny_system, jobs, "fcfs", horizon_s=1795.0).run()
        job = result.jobs[0]
        assert job.state is JobState.COMPLETED
        assert job.truncated_by_horizon is True
        assert job.sim_end_time == pytest.approx(1795.0)
        summary = result.summary()
        assert summary["node_hours"] == pytest.approx(2 * 1795.0 / 3600.0)
        # The stats integration stops at the horizon too: the final sample
        # is clipped rather than covering its whole tick.
        assert summary["simulated_s"] == pytest.approx(1795.0)
        assert summary["it_energy_kwh"] == pytest.approx(
            sum(t.compute_power_kw * t.dt_s for t in result.stats.ticks) / 3600.0
        )

    def test_job_ending_inside_final_partial_tick_is_not_truncated(self, tiny_system):
        # The job's natural end (1793 s) falls between the last processed
        # tick (1785 s) and the off-grid horizon (1795 s): it must complete
        # at its own end time, not be stretched to the horizon and falsely
        # tagged as truncated.
        jobs = [make_job(nodes=2, submit=0.0, duration=1793.0)]
        result = SimulationEngine(tiny_system, jobs, "fcfs", horizon_s=1795.0).run()
        job = result.jobs[0]
        assert job.state is JobState.COMPLETED
        assert job.sim_end_time == pytest.approx(1793.0)
        assert job.truncated_by_horizon is False
        assert result.summary()["node_hours"] == pytest.approx(2 * 1793.0 / 3600.0)

    def test_workload_draining_before_horizon_matches_dense_mode(self, tiny_system):
        # The run ends when the workload drains, not at the horizon: the
        # final sample must not be stretched across the leftover idle time
        # up to a far-away horizon.
        jobs = [make_job(nodes=2, submit=0.0, duration=600.0)]
        sparse = SimulationEngine(
            tiny_system, jobs, "fcfs", horizon_s=86400.0
        ).run()
        dense = DenseEngine(tiny_system, jobs, "fcfs", horizon_s=86400.0).run()
        _summaries_equal(sparse.summary(), dense.summary())
        assert sparse.summary()["simulated_s"] == pytest.approx(615.0)

    def test_horizon_clamp_matches_dense_mode(self, tiny_system):
        jobs = [
            make_job(nodes=4, submit=0.0, duration=86400.0),
            make_job(nodes=1, submit=500.0, start=500.0, duration=100.0),
        ]
        sparse = SimulationEngine(
            tiny_system, jobs, "fcfs", horizon_s=2222.0
        ).run()
        dense = DenseEngine(tiny_system, jobs, "fcfs", horizon_s=2222.0).run()
        _summaries_equal(sparse.summary(), dense.summary())
        for result in (sparse, dense):
            truncated = next(j for j in result.jobs if j.job.nodes_required == 4)
            assert truncated.sim_end_time == pytest.approx(2222.0)

    @pytest.mark.parametrize("dense", [False, True], ids=["event", "dense"])
    def test_clock_ends_on_a_fractional_horizon(self, dense):
        # Here (start + h) - start < h in floats: a stop test on the elapsed
        # time would run one more full tick past the cut. The clock must end
        # exactly on the horizon, and no time after it be integrated.
        horizon_s = 2223.7327248373917
        result = (run_dense if dense else run_simulation)(
            "tiny", policy="backfill", duration="6h", seed=1, horizon=horizon_s
        )
        assert result.end_time_s == result.start_time_s + horizon_s
        assert result.summary()["simulated_s"] <= horizon_s * (1 + 1e-12)
        ends = [run.sim_end_time for run in result.jobs if run.sim_end_time is not None]
        assert max(ends) <= result.end_time_s


def _job_records(result) -> list[tuple]:
    """Every run record's outcome: state, times, nodes and tags."""
    return [
        (
            run.job_id,
            run.state,
            run.sim_start_time,
            run.sim_end_time,
            run.assigned_nodes,
            run.dismiss_reason,
            run.replay_delayed,
            run.replay_relocated,
            run.truncated_by_horizon,
        )
        for run in result.jobs
    ]


class _RetryEvery90s(FCFSScheduler):
    """FCFS whose blocked passes stand for 90 s only."""

    def schedule(self, queue, resource_manager, now):
        schedule_pass = super().schedule(queue, resource_manager, now)
        if schedule_pass.starts:
            return schedule_pass
        return SchedulePass(starts=[], valid_until=now + 90.0)


class TestPassMemo:
    """The engine reuses its last pass while the epoch, the queue version
    and ``now < valid_until`` stand, and never changes a result by it."""

    @staticmethod
    def _blocked(policy, *extra_jobs):
        # A 32-node hog until t=3000 blocks a 4-node job behind it; dense
        # ticks make every grid tick a step the memo could serve.
        jobs = [
            make_job(nodes=32, submit=0.0, duration=3000.0),
            make_job(nodes=4, submit=0.0, duration=600.0),
            *extra_jobs,
        ]
        engine = DenseEngine(get_system_config("tiny"), jobs, policy)
        return engine, schedule_calls(engine)

    def test_policy_called_once_while_the_pass_stands(self):
        engine, calls = self._blocked(_RetryEvery90s())
        engine.run()
        # t=0 starts the hog; each blocked pass stands for 90 s, so the
        # policy is asked every sixth tick, until the release at t=3000.
        retries = [15.0 + 90.0 * k for k in range(34)]
        assert [now for now, _ in calls] == [0.0, *retries, 3000.0]
        assert engine._pass_memo_hits == 3000 // 15 - len(calls) + 1

    def test_submission_or_release_asks_again(self):
        late = make_job(nodes=1, submit=600.0, start=600.0, duration=300.0)
        engine, calls = self._blocked("fcfs", late)
        result = engine.run()
        assert [now for now, _ in calls] == [0.0, 15.0, 600.0, 3000.0]
        assert [run.sim_start_time for run in result.jobs] == [0.0, 3000.0, 3000.0]

    @pytest.mark.parametrize("dense", [False, True], ids=["event", "dense"])
    def test_held_pass_is_reused_until_its_stands_until(self, tiny_system, dense):
        # A pass that held jobs is reused while it stands, yet its
        # valid_until=now still makes every step one tick.
        jobs = SyntheticWorkloadGenerator(tiny_system, busy_trace_spec(), seed=3).generate(
            6 * 3600.0
        )
        engine = (DenseEngine if dense else SimulationEngine)(
            tiny_system, jobs, "backfill", signals=OperatingSignals.constant(power_cap_kw=18.0)
        )
        calls = schedule_calls(engine)
        step = engine.step
        held_steps: list[tuple[float, float, bool, SchedulePass]] = []

        def recorded_step() -> None:
            now, before = engine.now, len(calls)
            step()
            if engine._queue and engine._pass.held:
                held_steps.append((now, engine.now - now, len(calls) > before, engine._pass))

        engine.step = recorded_step
        engine.run()
        reused = [(now, held) for now, _, asked, held in held_steps if not asked]
        assert len(held_steps) > 10 and len(reused) > 10
        assert all(dt == 15.0 for _, dt, _, _ in held_steps)
        assert all(held.stands_until is None or now < held.stands_until for now, held in reused)

    def test_replay_asked_again_at_its_next_recorded_start(self):
        # t=15 declines the job recorded at t=907; that pass stands until
        # the first tick at or past 907, which starts it, backdated.
        jobs = [
            make_job(nodes=4, submit=0.0, start=0.0, duration=3000.0),
            make_job(nodes=4, submit=0.0, start=907.0, duration=600.0),
        ]
        engine = DenseEngine(get_system_config("tiny"), jobs, "replay")
        calls = schedule_calls(engine)
        result = engine.run()
        assert [now for now, _ in calls] == [0.0, 15.0, 915.0]
        assert calls[1][1].valid_until == 907.0
        assert result.jobs[1].sim_start_time == 907.0

    @pytest.mark.parametrize("policy", ["replay", "fcfs", "backfill"])
    @pytest.mark.parametrize("system_name", ["tiny", "two_partition"])
    def test_memo_changes_no_result(self, system_name, policy):
        # With and without the memo: uncapped and at 70% of the dense
        # uncapped compute peak, dense and event-driven.
        if system_name == "tiny":
            system = get_system_config("tiny")
        else:
            system = two_partition_system()
        jobs = SyntheticWorkloadGenerator(system, seed=5).generate(6 * 3600.0)
        peak_kw = float(
            DenseEngine(system, jobs, policy)
            .run()
            .stats.column("compute_power_kw")
            .max()
        )
        # A stepped cap too: a held pass stands only until the cap steps.
        stepped = OperatingSignals(
            power_cap_kw=((0.0, 0.6 * peak_kw), (7507.5, 0.8 * peak_kw), (14400.0, 0.65 * peak_kw))
        )
        for signals in (None, OperatingSignals.constant(power_cap_kw=0.7 * peak_kw), stepped):
            for engine_class in (SimulationEngine, DenseEngine):
                memo = engine_class(system, jobs, policy, signals=signals).run()
                reference = without_pass_memo(
                    engine_class(system, jobs, policy, signals=signals)
                ).run()
                assert list(memo.summary().items()) == list(reference.summary().items())
                assert _job_records(memo) == _job_records(reference)


def _incr_kw(system, job) -> float:
    """The power cap's peak draw of ``job`` over its nodes' idle draw, kW."""
    scheduler = PowerCapScheduler(FCFSScheduler(), OperatingSignals.constant(power_cap_kw=1.0))
    scheduler.bind_power_model(SystemPowerModel(system), ResourceManager(system))
    return scheduler._incr_kw(job)


class TestStandingTime:
    """Each term of a held backfill pass's ``stands_until``. Under a cap that
    holds every new start, the engine reuses the held pass until the term
    runs out; each run equals the one that asks on every step (the memo
    changes nothing), and dense equals event-driven."""

    @staticmethod
    def _run(system, jobs, signals):
        """The event-driven memo run and the calls it made, checked against
        the dense and the no-memo runs."""
        runs = {}
        for dense in (False, True):
            for memo in (True, False):
                engine = (DenseEngine if dense else SimulationEngine)(
                    system, jobs, "backfill", signals=signals
                )
                if not memo:
                    without_pass_memo(engine)
                calls = schedule_calls(engine)
                runs[dense, memo] = engine.run(), calls
        for dense in (False, True):
            memo, reference = runs[dense, True][0], runs[dense, False][0]
            assert list(memo.summary().items()) == list(reference.summary().items())
            assert _job_records(memo) == _job_records(reference)
        event, dense = runs[False, True][0], runs[True, True][0]
        assert max(summary_drifts(dense.summary(), event.summary()).values()) <= 1e-9
        assert _job_records(dense) == _job_records(event)
        return runs[False, True]

    @staticmethod
    def _occupied(system):
        """F (8 nodes, expected end 3600) and B (16 nodes, 7200) run from
        t=0, leaving 8 of tiny's 32 nodes free, under a cap that admits them
        with 0.01 kW to spare: every later start is held."""
        occupants = [
            make_job(nodes=8, duration=3600.0, wall_limit=3600.0),
            make_job(nodes=16, duration=7200.0, wall_limit=7200.0),
        ]
        cap_kw = idle_floor_kw(system) + sum(_incr_kw(system, job) for job in occupants) + 0.01
        return occupants, OperatingSignals.constant(power_cap_kw=cap_kw)

    def test_short_backfill_start_stands_until_it_would_outlive_the_shadow(self, tiny_system):
        # Case 1. Head H (12 nodes) waits for F: shadow 3600, spare 4. S (6
        # nodes, 1800 s) ends before the shadow while now <= 1800, so the
        # pass proposes it and the cap holds it; that pass stands until
        # 1800. From 1815 S would outlive the shadow and needs more than
        # the spare: the pass proposes nothing.
        occupants, signals = self._occupied(tiny_system)
        head = make_job(nodes=12, submit=900.0, start=900.0, wall_limit=1800.0)
        short = make_job(nodes=6, submit=901.0, start=901.0, wall_limit=1800.0)
        _, calls = self._run(tiny_system, [*occupants, head, short], signals)
        assert [(now, p.held) for now, p in calls[:5]] == [
            (0.0, 0), (900.0, 0), (915.0, 1), (1800.0, 1), (1815.0, 0)
        ]

    def test_own_start_stands_until_it_ties_the_next_fixed_end(self, tiny_system):
        # Case 3 with a tie. A (4 nodes, 1800 s) starts in phase 1 and H (12
        # nodes) waits. At 915 A's expected end 2715 comes before F's 3600
        # in the walk: H fits at F with 4 spare, so L (4 nodes, 7200 s)
        # backfills, and the cap holds A and L. That pass stands until A
        # reaches F at 1800. There A ties F and still comes first (fewer
        # nodes), but the tie stands only until now: at 1815 F comes first,
        # H fits at F with no spare, and L waits.
        occupants, signals = self._occupied(tiny_system)
        own = make_job(nodes=4, submit=900.0, start=900.0, wall_limit=1800.0)
        head = make_job(nodes=12, submit=901.0, start=901.0, wall_limit=1800.0)
        long = make_job(nodes=4, submit=902.0, start=902.0, wall_limit=7200.0)
        _, calls = self._run(tiny_system, [*occupants, own, head, long], signals)
        assert [(now, p.held) for now, p in calls[:5]] == [
            (0.0, 0), (900.0, 1), (915.0, 2), (1800.0, 2), (1815.0, 1)
        ]

    def test_held_pass_stands_until_the_cap_steps(self, tiny_system):
        # The signal bound. J waits under a cap that admits only F until
        # the cap rises at t=1000.5: the held pass stands until then, and
        # J starts at the first tick after it.
        running = make_job(nodes=8, duration=3600.0, wall_limit=3600.0)
        job = make_job(nodes=8, submit=600.0, start=600.0, duration=600.0)
        cap_kw = idle_floor_kw(tiny_system) + _incr_kw(tiny_system, running) + 0.01
        signals = OperatingSignals(
            power_cap_kw=((0.0, cap_kw), (1000.5, cap_kw + _incr_kw(tiny_system, job)))
        )
        result, calls = self._run(tiny_system, [running, job], signals)
        assert [(now, p.held, p.stands_until) for now, p in calls] == [
            (0.0, 0, None), (600.0, 1, 1000.5), (1005.0, 0, None)
        ]
        assert result.jobs[1].sim_start_time == 1005.0


class _NamesAJobTwice(FCFSScheduler):
    """FCFS whose first pass names one job twice: it dismisses the first
    blocked job twice, or dismisses the job it starts."""

    name = "names-twice"

    def __init__(self, how: str) -> None:
        super().__init__()
        self.how = how

    def schedule(self, queue, resource_manager, now):
        schedule_pass = super().schedule(queue, resource_manager, now)
        if self.how == "dismissed_twice":
            blocked = queue[len(schedule_pass.starts)]
            dismissals = [(blocked, "named twice")] * 2
        else:
            dismissals = [(schedule_pass.starts[0].job, "named twice")]
        return SchedulePass(
            starts=schedule_pass.starts, dismissals=dismissals, valid_until=None
        )


class _DismissesFinishedJob(FCFSScheduler):
    """FCFS that dismisses every job it started once it has finished."""

    name = "dismisses-finished"

    def __init__(self) -> None:
        super().__init__()
        self.started: list = []

    def schedule(self, queue, resource_manager, now):
        schedule_pass = super().schedule(queue, resource_manager, now)
        gone = [job for job in self.started if job.job_id not in resource_manager.running_by_id]
        self.started += [decision.job for decision in schedule_pass.starts]
        return SchedulePass(
            starts=schedule_pass.starts,
            dismissals=[(job, "already gone") for job in gone],
            valid_until=None,
        )


class _StartsAt(FCFSScheduler):
    """FCFS that records each start at ``submit + offset``."""

    name = "starts-at"

    def __init__(self, offset: float) -> None:
        super().__init__()
        self.offset = offset

    def schedule(self, queue, resource_manager, now):
        starts = [
            dataclasses.replace(decision, start_time=decision.job.submit_time + self.offset)
            for decision in super().schedule(queue, resource_manager, now).starts
        ]
        return SchedulePass(starts=starts, valid_until=None)


class TestPassChecks:
    """Every job a pass names must be queued and named once in that pass,
    and start inside the current tick, not before its submission."""

    @pytest.mark.parametrize(
        "offset, blocked",
        [(-3600.0, False), (15.0, False), (0.0, True)],
        ids=["before_submit", "after_now", "before_the_tick"],
    )
    def test_start_outside_the_tick_is_rejected(self, tiny_system, offset, blocked):
        # A job submitted and started at t=0 may not start an hour earlier
        # or a tick later; one that waited behind a 32-node hog until t=600
        # may not start back at its submission.
        jobs = [make_job(nodes=32, submit=0.0, duration=600.0)] if blocked else []
        jobs.append(make_job(nodes=1, submit=0.0, duration=600.0))
        engine = SimulationEngine(tiny_system, jobs, _StartsAt(offset))
        with pytest.raises(SchedulingError, match=f"'starts-at' started job {jobs[-1].job_id} "):
            engine.run()

    @pytest.mark.parametrize("how", ["dismissed_twice", "started_and_dismissed"])
    def test_job_named_twice_is_rejected(self, tiny_system, how):
        # The 32-node job starts and the 4-node job waits behind it.
        jobs = [
            make_job(nodes=32, submit=0.0, duration=600.0),
            make_job(nodes=4, submit=0.0, duration=600.0),
        ]
        engine = SimulationEngine(tiny_system, jobs, _NamesAJobTwice(how))
        with pytest.raises(SchedulingError, match="'names-twice' dismissed job"):
            engine.run()

    def test_finished_job_cannot_be_dismissed(self, tiny_system):
        # The first job ends at t=300; the submission at t=600 asks the
        # policy again, which then dismisses the finished job.
        jobs = [
            make_job(nodes=1, submit=0.0, duration=300.0),
            make_job(nodes=1, submit=600.0, start=600.0, duration=300.0),
        ]
        engine = SimulationEngine(tiny_system, jobs, _DismissesFinishedJob())
        with pytest.raises(SchedulingError, match="'dismisses-finished' dismissed job"):
            engine.run()
        assert engine.runs[0].state is JobState.COMPLETED


class TestRunSimulation:
    def test_quickstart_example_runs(self, capsys):
        # Runs the quick-start block of the package docstring itself, so the
        # example cannot drift from the API.
        block = repro.__doc__.split("Quick start::", 1)[1]
        namespace: dict = {}
        exec(compile(textwrap.dedent(block), "<repro quick start>", "exec"), namespace)
        result = namespace["result"]
        assert result.policy == "backfill"
        assert result.summary()["jobs_completed"] > 0
        assert "jobs_completed" in capsys.readouterr().out

    def test_explicit_workload_bypasses_generator(self, tiny_system):
        jobs = [make_job(nodes=4, submit=0.0, duration=450.0)]
        result = run_simulation(system=tiny_system, policy="fcfs", workload=jobs)
        assert result.summary()["jobs_completed"] == 1.0

    @pytest.mark.parametrize(
        "seed", [-1, 1.5, "3", True], ids=["negative", "float", "string", "bool"]
    )
    def test_direct_path_shares_the_request_seed_check(self, tiny_system, seed):
        # A SystemConfig and a system name reject the seed with the same
        # error, and so does a request (check_seed is the one check).
        with pytest.raises(ConfigurationError) as direct:
            run_simulation(tiny_system, duration="1h", seed=seed)
        with pytest.raises(ConfigurationError) as via_request:
            run_simulation("tiny", duration="1h", seed=seed)
        assert str(direct.value) == str(via_request.value)

    @pytest.mark.parametrize("front_end", ["name", "config", "engine"])
    @pytest.mark.parametrize(
        "kwargs, error",
        [
            # The JSON form of a signal bundle is RunRequest's to parse.
            pytest.param(
                {"signals": {"power_cap_kw": [[0.0, 20.0]]}},
                ConfigurationError,
                id="signals-dict",
            ),
            pytest.param({"policy": 3}, SchedulingError, id="policy-int"),
        ],
    )
    def test_every_front_end_rejects_the_same_arguments(
        self, tiny_system, front_end, kwargs, error
    ):
        with pytest.raises(error):
            if front_end == "engine":
                kwargs = dict(kwargs)
                policy = kwargs.pop("policy", None)
                jobs = [make_job(nodes=2, submit=0.0, duration=600.0)]
                SimulationEngine(tiny_system, jobs, policy, **kwargs)
            else:
                system = "tiny" if front_end == "name" else tiny_system
                run_simulation(system, duration="1h", seed=1, **kwargs)

    def test_cooling_is_coupled_when_configured(self, tiny_system, tiny_workload):
        result = SimulationEngine(tiny_system, tiny_workload, "fcfs").run()
        assert result.summary()["cooling_energy_kwh"] > 0

    def test_system_without_cooling_model(self, tiny_workload):
        from repro.config import get_system_config

        marconi = get_system_config("marconi100")
        result = run_simulation(
            system=marconi,
            policy="fcfs",
            workload=[make_job(nodes=8, submit=0.0, duration=600.0)],
        )
        summary = result.summary()
        assert summary["cooling_energy_kwh"] == 0.0
        assert summary["mean_pue"] >= 1.0
