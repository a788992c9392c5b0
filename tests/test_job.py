"""Tests for the read-only Job record and the JobRun state machine."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.exceptions import DataLoaderError, SimulationError
from repro.telemetry import Job, JobRun, JobState, Profile, constant_profile

from helpers import make_job, recorded_power_at, utilization_at


class TestJobConstruction:
    def test_defaults(self):
        job = make_job()
        assert JobRun(job).state is JobState.PENDING
        assert job.duration == 600.0
        assert job.nodes_required == 1

    def test_unique_ids(self):
        assert make_job().job_id != make_job().job_id

    def test_rejects_non_positive_nodes(self):
        with pytest.raises(DataLoaderError):
            make_job(nodes=0)

    def test_rejects_end_before_start(self):
        with pytest.raises(DataLoaderError):
            Job(nodes_required=1, submit_time=0, start_time=100, end_time=50)

    def test_clamps_submit_after_start(self):
        job = Job(nodes_required=1, submit_time=150, start_time=100, end_time=500)
        assert job.submit_time == 100

    def test_rejects_submit_after_end(self):
        with pytest.raises(DataLoaderError):
            Job(nodes_required=1, submit_time=600, start_time=100, end_time=500)

    def test_rejects_recorded_nodes_mismatch(self):
        with pytest.raises(DataLoaderError):
            make_job(nodes=2, recorded_nodes=(1,))

    def test_rejects_non_positive_wall_limit(self):
        with pytest.raises(DataLoaderError):
            make_job(wall_limit=0.0)

    def test_job_is_frozen(self):
        job = make_job()
        with pytest.raises(dataclasses.FrozenInstanceError):
            job.nodes_required = 2  # type: ignore[misc]


class TestJobValidation:
    """Input that used to escape as a bare Python error, or as an error
    blamed on the scheduling policy, is rejected where the job is built."""

    @pytest.mark.parametrize("field", ["submit_time", "end_time"])
    def test_rejects_nan_time(self, field):
        times = {"submit_time": 0.0, "start_time": 0.0, "end_time": 600.0}
        times[field] = math.nan
        with pytest.raises(DataLoaderError, match=field):
            Job(nodes_required=1, **times)

    def test_rejects_nan_wall_limit(self):
        with pytest.raises(DataLoaderError, match="wall_time_limit"):
            make_job(wall_limit=math.nan)

    def test_rejects_infinite_end_time(self):
        with pytest.raises(DataLoaderError, match="end_time"):
            Job(nodes_required=1, submit_time=0.0, start_time=0.0, end_time=math.inf)

    def test_rejects_infinite_wall_limit(self):
        with pytest.raises(DataLoaderError, match="wall_time_limit"):
            make_job(wall_limit=math.inf)

    def test_rejects_fractional_nodes(self):
        with pytest.raises(DataLoaderError, match="nodes_required"):
            make_job(nodes=2.5)  # type: ignore[arg-type]

    def test_rejects_bool_nodes(self):
        with pytest.raises(DataLoaderError, match="nodes_required"):
            make_job(nodes=True)

    def test_accepts_numpy_integer_nodes(self):
        assert make_job(nodes=np.int64(3)).nodes_required == 3

    def test_rejects_nan_priority(self):
        with pytest.raises(DataLoaderError, match="priority"):
            make_job(priority=math.nan)


class TestDerivedProperties:
    def test_requested_runtime_prefers_wall_limit(self):
        assert make_job(duration=600, wall_limit=3600).requested_runtime == 3600
        assert make_job(duration=600).requested_runtime == 600

    def test_node_seconds(self):
        assert make_job(nodes=4, duration=100).node_s == 400

    def test_wait_and_turnaround_before_start(self):
        run = JobRun(make_job())
        assert run.wait_time is None
        assert run.turnaround_time is None
        assert run.sim_duration is None


class TestStateMachine:
    def test_full_lifecycle(self):
        run = JobRun(make_job(nodes=2, submit=0, duration=100))
        run.mark_queued(5.0)
        assert run.state is JobState.QUEUED
        run.mark_running(10.0, (3, 4))
        assert run.state is JobState.RUNNING
        assert run.is_active
        run.mark_completed(110.0)
        assert run.state is JobState.COMPLETED
        assert run.is_finished
        assert run.wait_time == pytest.approx(10.0 - 5.0)
        assert run.turnaround_time == pytest.approx(110.0 - 5.0)
        assert run.sim_duration == pytest.approx(100.0)

    def test_cannot_queue_twice(self):
        run = JobRun(make_job())
        run.mark_queued(0.0)
        with pytest.raises(SimulationError):
            run.mark_queued(1.0)

    def test_cannot_start_completed_job(self):
        run = JobRun(make_job())
        run.mark_queued(0.0)
        run.mark_running(0.0, (0,))
        run.mark_completed(10.0)
        with pytest.raises(SimulationError):
            run.mark_running(20.0, (0,))

    def test_allocation_size_must_match(self):
        run = JobRun(make_job(nodes=3))
        run.mark_queued(0.0)
        with pytest.raises(SimulationError):
            run.mark_running(0.0, (1, 2))

    def test_cannot_complete_unstarted(self):
        with pytest.raises(SimulationError):
            JobRun(make_job()).mark_completed(0.0)

    def test_dismiss(self):
        run = JobRun(make_job())
        run.mark_dismissed("request exceeds system capacity")
        assert run.state is JobState.DISMISSED
        assert run.is_finished
        assert run.dismiss_reason == "request exceeds system capacity"

    def test_cannot_dismiss_running(self):
        run = JobRun(make_job())
        run.mark_queued(0.0)
        run.mark_running(0.0, (0,))
        with pytest.raises(SimulationError):
            run.mark_dismissed()

    def test_runs_of_one_job_are_independent(self):
        job = make_job()
        first, second = JobRun(job), JobRun(job)
        first.mark_queued(0.0)
        first.mark_running(5.0, (0,))
        assert second.state is JobState.PENDING
        assert second.assigned_nodes == ()
        assert second.sim_start_time is None
        assert second.job is first.job


class TestTelemetryAccess:
    def test_utilization_relative_to_sim_start(self):
        run = JobRun(make_job(duration=100, cpu_profile=Profile([0, 50], [0.2, 0.9])))
        run.mark_queued(0.0)
        run.mark_running(1000.0, (0,))
        cpu, _, _ = utilization_at(run, 1010.0)
        assert cpu == pytest.approx(0.2)
        cpu, _, _ = utilization_at(run, 1060.0)
        assert cpu == pytest.approx(0.9)

    def test_recorded_power_none_without_trace(self):
        assert recorded_power_at(JobRun(make_job()), 0.0) is None

    def test_recorded_power_with_trace(self):
        run = JobRun(make_job(node_power=constant_profile(500.0, 600.0)))
        run.mark_queued(0.0)
        run.mark_running(10.0, (0,))
        assert recorded_power_at(run, 20.0) == pytest.approx(500.0)
