"""Tests for the node, loss and system power models."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ResourceManager
from repro.config import PowerLossConfig, available_systems, get_system_config
from repro.exceptions import ConfigurationError
from repro.power import (
    ConversionLossModel,
    NodePowerModel,
    RunningSetPowerAggregator,
    SystemPowerModel,
)
from repro.power.system_power import _SCALAR_MAX_POINTS, build_power_states
from repro.telemetry import JobRun, Profile, constant_profile

from helpers import (
    idle_floor_kw,
    job_energy_j,
    job_power_w,
    make_job,
    next_power_change_after,
    queued_run,
    scan_sample,
    stage_efficiency,
    two_partition_system,
    utilization_at,
)


class TestNodePowerModel:
    @pytest.fixture
    def model(self, tiny_system):
        return NodePowerModel(tiny_system.partitions[0].node_power)

    def test_idle_power(self, model):
        assert model.power(0.0, 0.0, 0.0) == pytest.approx(model.config.min_w)

    def test_max_power(self, model):
        assert model.power(1.0, 1.0, 1.0) == pytest.approx(model.config.max_w)

    def test_monotonic_in_cpu(self, model):
        assert model.power(0.8) > model.power(0.2)

    def test_monotonic_in_gpu(self, model):
        assert model.power(0.5, 0.9) > model.power(0.5, 0.1)

    def test_clipping(self, model):
        assert model.power(2.0, 2.0, 2.0) == pytest.approx(model.config.max_w)
        assert model.power(-1.0) == pytest.approx(model.power(0.0))

    @given(
        cpu=st.floats(min_value=0, max_value=1),
        gpu=st.floats(min_value=0, max_value=1),
        mem=st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=50, deadline=None)
    def test_power_bounded_property(self, cpu, gpu, mem):
        model = NodePowerModel(get_system_config("tiny").partitions[0].node_power)
        p = model.power(cpu, gpu, mem)
        assert model.config.min_w - 1e-9 <= p <= model.config.max_w + 1e-9

    @given(
        config=st.sampled_from(
            [
                partition.node_power
                for name in available_systems()
                for partition in get_system_config(name).partitions
            ]
        ),
        # Clipped on both sides; the bounds admit ±0.0 and subnormals.
        points=st.lists(
            st.tuples(*[st.floats(min_value=-2.0, max_value=3.0)] * 3),
            max_size=64,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_power_array_equals_power(self, config, points):
        """The vectorised model is the scalar one, bit for bit."""
        model = NodePowerModel(config)
        points = [
            (0.0, -0.0, 5e-324),
            (-0.0, -5e-324, 1e-310),
            (1.0, math.nextafter(1.0, 2.0), -1.0),
            (math.nextafter(0.0, -1.0), 3.0, math.nextafter(1.0, 0.0)),
            *points,
        ]
        cpu, gpu, mem = (np.array(column) for column in zip(*points))
        expected = [model.power(*point) for point in points]
        assert model.power_array(cpu, gpu, mem).tolist() == expected


class TestSystemIdlePower:
    def test_scales_with_node_count(self):
        frontier = idle_floor_kw(get_system_config("frontier"))
        tiny = idle_floor_kw(get_system_config("tiny"))
        assert frontier > 100 * tiny


def _efficiency(model: ConversionLossModel, compute_kw: float) -> float:
    """End-to-end electrical efficiency: compute over facility-side power."""
    return compute_kw / (compute_kw + model.total_loss_kw(compute_kw))


class TestConversionLossModel:
    @pytest.fixture
    def model(self):
        return ConversionLossModel(PowerLossConfig(), peak_compute_power_kw=1000.0)

    def test_losses_positive(self, model):
        assert model.total_loss_kw(500.0) > 0.0

    def test_zero_power(self, model):
        assert model.total_loss_kw(0.0) == pytest.approx(0.0)

    def test_efficiency_improves_with_load(self, model):
        assert _efficiency(model, 900.0) > _efficiency(model, 50.0)

    def test_efficiency_below_one(self, model):
        assert _efficiency(model, 800.0) < 1.0

    def test_loss_fraction_larger_at_low_load(self, model):
        assert model.total_loss_kw(50.0) / 50.0 > model.total_loss_kw(900.0) / 900.0

    def test_stage_efficiency_curve_monotonic(self, model):
        # Both stages gain efficiency with load, so the chain does too, and
        # it never beats both stages at their peaks.
        config = model.config
        efficiencies = [_efficiency(model, kw) for kw in np.linspace(10.0, 1000.0, 50)]
        assert np.all(np.diff(efficiencies) > 0)
        peak = config.sivoc_efficiency_peak * config.rectifier_efficiency_peak
        assert max(efficiencies) <= peak + 1e-9

    def test_negative_power_clamped(self, model):
        assert model.total_loss_kw(-10.0) == 0.0

    def test_invalid_peak_power(self):
        with pytest.raises(ConfigurationError):
            ConversionLossModel(PowerLossConfig(), peak_compute_power_kw=0.0)

    @given(power=st.floats(min_value=0.0, max_value=2000.0))
    @settings(max_examples=50, deadline=None)
    def test_facility_at_least_compute_property(self, power):
        model = ConversionLossModel(PowerLossConfig(), peak_compute_power_kw=1000.0)
        assert model.total_loss_kw(power) >= 0.0

    @pytest.mark.parametrize("load", [-0.25, 0.0, 0.5, 1.0, 1.5, 3.0])
    def test_scalar_total_matches_numpy_curves(self, model, load):
        # Reference: the loss arithmetic on the array-capable numpy
        # efficiency curves. Only the exponential differs (math.exp vs
        # np.exp).
        config = model.config
        compute_kw = load * model.peak_compute_power_kw
        clamped = max(0.0, compute_kw)
        ratio = clamped / model.peak_compute_power_kw
        sivoc_eff = stage_efficiency(
            ratio, config.sivoc_efficiency_idle, config.sivoc_efficiency_peak
        )
        rect_eff = stage_efficiency(
            ratio, config.rectifier_efficiency_idle, config.rectifier_efficiency_peak
        )
        sivoc_input = clamped / float(sivoc_eff)
        rect_input = sivoc_input / float(rect_eff)
        reference = (
            (sivoc_input - clamped)
            + (rect_input - sivoc_input)
            + rect_input * config.switchgear_loss_fraction
        )
        got = model.total_loss_kw(compute_kw)
        assert isinstance(got, float)
        assert abs(got - reference) <= math.ulp(reference)


def _aggregated_sample(model, jobs, now):
    """System power at ``now`` with ``jobs`` started at 0.0, through the
    engine's incremental aggregator."""
    rm = ResourceManager(model.system)
    for job in jobs:
        rm.allocate(queued_run(job), 0.0)
    return RunningSetPowerAggregator(model, rm).sample(now)


def _job_power_w(model, job, now):
    """Power of ``job`` started at 0.0, from its job power state at ``now``."""
    run = queued_run(job)
    run.mark_running(0.0, tuple(range(job.nodes_required)))
    (state,) = build_power_states([(run, model.node_model(job.partition))], now)
    return state.current_power_w


class TestSystemPowerModel:
    @pytest.fixture
    def model(self, tiny_system):
        return SystemPowerModel(tiny_system)

    def test_idle_system_sample(self, model, tiny_system):
        sample = _aggregated_sample(model, [], 0.0)
        assert sample.job_power_kw == 0.0
        assert sample.idle_power_kw == pytest.approx(idle_floor_kw(tiny_system))
        assert sample.facility_power_kw > sample.compute_power_kw

    def test_job_power_from_utilization(self, model):
        job = make_job(nodes=4, cpu=1.0, gpu=1.0, mem=1.0)
        node_max = model.system.partitions[0].node_power.max_w
        assert _job_power_w(model, job, 10.0) == pytest.approx(4 * node_max)

    def test_recorded_power_trace_wins(self, model):
        job = make_job(nodes=2, cpu=0.0, node_power=constant_profile(1234.0, 600))
        assert _job_power_w(model, job, 5.0) == pytest.approx(2 * 1234.0)

    def test_sample_with_running_jobs(self, model):
        jobs = [make_job(nodes=2, cpu=0.5, gpu=0.5) for _ in range(3)]
        sample = _aggregated_sample(model, jobs, 100.0)
        assert sample.allocated_nodes == 6
        assert sample.job_power_kw > 0
        assert 0 < sample.mean_cpu_util <= 1
        # Idle nodes: 32 - 6 = 26
        per_node_idle = model.system.partitions[0].node_power.min_w / 1000.0
        assert sample.idle_power_kw == pytest.approx(26 * per_node_idle)

    def test_more_load_more_power(self, model):
        def sample_for(util):
            return _aggregated_sample(model, [make_job(nodes=8, cpu=util, gpu=util)], 10.0)

        assert sample_for(0.9).facility_power_kw > sample_for(0.1).facility_power_kw

    def test_job_energy_constant_profile(self, model):
        job = make_job(nodes=2, duration=1000, node_power=constant_profile(500.0, 1000))
        assert model.job_energy_j(job) == pytest.approx(2 * 500.0 * 1000)

    def test_job_energy_from_utilization(self, model):
        job = make_job(nodes=1, duration=100, cpu=0.0, gpu=0.0, mem=0.0)
        node_min = model.system.partitions[0].node_power.min_w
        assert model.job_energy_j(job) == pytest.approx(node_min * 100)

    def test_job_energy_zero_duration(self, model, job_factory):
        job = job_factory(duration=0.0)
        assert model.job_energy_j(job) == 0.0

    def test_job_energy_piecewise_profile(self, model, tiny_system):
        node_cfg = tiny_system.partitions[0].node_power
        job = make_job(
            nodes=1, duration=200, gpu=0.0, mem=0.0,
            cpu_profile=Profile([0, 100], [0.0, 1.0]),
        )
        low = node_cfg.min_w
        high = low + node_cfg.cpus_per_node * (node_cfg.cpu_max_w - node_cfg.cpu_idle_w)
        assert model.job_energy_j(job) == pytest.approx(low * 100 + high * 100)

    @pytest.mark.parametrize("gpu_nodes, idle_kw", [(8, 4.0), (4, 5.2)])
    def test_idle_power_counts_each_partitions_free_nodes(self, gpu_nodes, idle_kw):
        # A gpu job leaves the 16 cpu nodes (250 W idle) free, and the
        # rest of the gpu nodes (300 W): 8 gpu nodes busy idle 4.0 kW, not
        # 8 cpu + 8 gpu nodes by configuration order (2.0 + 2.4 kW).
        system = two_partition_system()
        model = SystemPowerModel(system)
        rm = ResourceManager(system)
        rm.allocate(queued_run(make_job(nodes=gpu_nodes, partition="gpu")), 0.0)
        assert [p.node_power.min_w for p in system.partitions] == [250.0, 300.0]
        sample = RunningSetPowerAggregator(model, rm).sample(0.0)
        assert sample.idle_power_kw == pytest.approx(idle_kw, rel=1e-15)
        assert scan_sample(model, 0.0, rm).idle_power_kw == sample.idle_power_kw

    def test_down_nodes_reduce_idle_power(self, model, tiny_system):
        # Down nodes come from the system's down_node_fraction: the resource
        # manager marks them, and they draw no idle power.
        half_down = SystemPowerModel(tiny_system.with_overrides(down_node_fraction=0.5))
        with_down = _aggregated_sample(half_down, [], 0.0)
        without = _aggregated_sample(model, [], 0.0)
        assert with_down.idle_power_kw == pytest.approx(without.idle_power_kw / 2)


def _profile_from(draw_values, duration):
    times = np.linspace(0.0, max(duration, 1.0), num=len(draw_values))
    return Profile(times, draw_values)


def _grid_points(job):
    """Summed change-grid length of ``job``'s power profiles (the size cut's input)."""
    return sum(profile.change_grid()[0].size for profile in job.power_profiles())


def _sampled_profiles(rng, duration, *, traced):
    """Sampled telemetry: noisy values with clipped repeats, one grid length
    per profile, long enough for the vectorised builder."""

    def noisy(n, mean, scale=1.0):
        values = np.clip(np.round(rng.normal(mean, 0.3, n), 2), 0.0, 1.0) * scale
        return _profile_from(values, duration * rng.uniform(0.5, 1.5))

    profiles = {
        "cpu_profile": noisy(int(rng.integers(30, 90)), 0.7),
        "gpu_profile": noisy(int(rng.integers(30, 90)), 0.5),
        "mem_profile": noisy(int(rng.integers(30, 90)), 0.2),
    }
    if traced:
        profiles["node_power"] = noisy(int(rng.integers(30, 90)), 0.6, scale=900.0)
    return profiles


def _profiles_with_grid_points(rng, points, duration, *, traced):
    """Profiles whose three power-relevant change grids sum to ``points``."""
    first = int(rng.integers(1, points - 1))
    second = int(rng.integers(1, points - first))
    profiles = {}
    names = ["node_power", "cpu_profile", "gpu_profile"] if traced else [
        "cpu_profile", "gpu_profile", "mem_profile"
    ]
    for name, size, stretch in zip(
        names, (first, second, points - first - second), (1.0, 0.7, 1.3)
    ):
        # Alternating levels: every sample is a change point.
        values = 0.2 + 0.5 * (np.arange(size) % 2) + rng.random() * 0.2
        if name == "node_power":
            values = 400.0 + 500.0 * values
        profiles[name] = _profile_from(values, duration * stretch)
    return profiles


class TestJobPowerStates:
    """Every job power state equals the scanning evaluation exactly.

    :func:`build_power_states` is the one constructor of the aggregator's
    cached per-job contributions. Advanced to any time, a state must hold
    exactly (``==``) what the scan reference (``tests/helpers.py``:
    :func:`job_power_w`, :func:`utilization_at`,
    :func:`next_power_change_after`) computes from the job's profiles at
    that time. The inputs reach both
    ways of building a state: point by point with the scalar model (at or
    below ``_SCALAR_MAX_POINTS`` summed change points) and the vectorised
    pass above it.
    """

    def _build_runs(self, rng, n_jobs, *, with_traces, partitions, now):
        runs = []
        for _ in range(n_jobs):
            kind = rng.integers(0, 6)
            duration = float(rng.choice([0.0, 120.0, 600.0, 3600.0]))
            nodes = int(rng.integers(1, 6))
            kwargs = {}
            if kind >= 1 and duration > 0:
                # Piecewise-constant profiles with repeated samples (the
                # repeats must not become breakpoints) and distinct grids
                # per component.
                n = int(rng.integers(2, 6))
                kwargs["cpu_profile"] = _profile_from(
                    np.round(rng.random(n), 2), duration
                )
            if kind >= 2 and duration > 0:
                n = int(rng.integers(2, 7))
                kwargs["gpu_profile"] = _profile_from(
                    np.repeat(np.round(rng.random(max(1, n // 2)), 2), 2)[:n],
                    duration * 0.7,
                )
            if with_traces and kind == 3 and duration > 0:
                n = int(rng.integers(2, 5))
                kwargs["node_power"] = _profile_from(
                    500.0 + 300.0 * np.round(rng.random(n), 2), duration
                )
            traced = with_traces and bool(rng.random() < 0.5)
            if kind == 4:
                kwargs = _sampled_profiles(rng, duration, traced=traced)
            if kind == 5:
                # On either side of the builders' size cut.
                points = _SCALAR_MAX_POINTS + int(rng.integers(0, 2))
                kwargs = _profiles_with_grid_points(rng, points, duration, traced=traced)
            job = make_job(
                nodes=nodes,
                submit=0.0,
                duration=duration,
                cpu=float(rng.random()),
                gpu=float(rng.random()),
                mem=float(rng.random()),
                partition=str(rng.choice(partitions)),
                **kwargs,
            )
            if kind == 5:
                assert _grid_points(job) == points
            run = JobRun(job)
            # Half start now, half at an off-grid backdated (or, for small
            # ``now``, later) time: elapsed-time indexing must agree.
            start = float(rng.random() * 100.0) if rng.random() < 0.5 else now
            run.mark_running(start, tuple(range(nodes)))
            runs.append(run)
        return runs

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n_jobs=st.integers(min_value=1, max_value=12),
        with_traces=st.booleans(),
        two_partitions=st.booleans(),
        now=st.sampled_from([0.0, 7.5, 90.0, 1234.5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_states_match_scan(self, seed, n_jobs, with_traces, two_partitions, now):
        system = two_partition_system() if two_partitions else get_system_config("tiny")
        model = SystemPowerModel(system)
        rng = np.random.default_rng(seed)
        runs = self._build_runs(
            rng,
            n_jobs,
            with_traces=with_traces,
            partitions=[partition.name for partition in system.partitions],
            now=now,
        )
        states = build_power_states(
            [(run, model.node_model(run.job.partition)) for run in runs], now
        )
        assert [state.run for state in states] == runs

        def check(state, t):
            run = state.run
            nodes = run.job.nodes_required
            cpu, gpu, _ = utilization_at(run, t)
            change = next_power_change_after(run, t)
            assert state.current_power_w == job_power_w(model, run, t)
            assert state.current_cpu_weighted == cpu * nodes
            assert state.current_gpu_weighted == gpu * nodes
            assert state.next_change == (math.inf if change is None else change)

        for state in states:
            check(state, now)
            t = state.next_change
            while math.isfinite(t):  # every change time, in order
                state.advance_to(t)
                check(state, t)
                # A rounded ``start + change`` can land before the crossing
                # (the aggregator re-arms the same way): step one ulp on.
                t = max(state.next_change, math.nextafter(t, math.inf))
            for t in rng.uniform(0.0, 5000.0, size=5).tolist():
                state.advance_to(t)
                check(state, t)


    @given(seed=st.integers(min_value=0, max_value=2**16), with_traces=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_energy_matches_scan(self, seed, with_traces):
        # job_energy_j integrates the same union grid the states hold; the
        # scan sums the held power over every change point before the job
        # ends. Profiles may run past the job's end (their later change
        # points must not count) or stop short of it (the last value holds).
        model = SystemPowerModel(get_system_config("tiny"))
        rng = np.random.default_rng(seed)
        runs = self._build_runs(
            rng, 8, with_traces=with_traces, partitions=["batch"], now=0.0
        )
        for run in runs:
            assert model.job_energy_j(run.job) == pytest.approx(
                job_energy_j(model, run.job), rel=1e-12, abs=0.0
            )


class TestRunningSetPowerAggregator:
    """The incremental aggregator must reproduce the scanning evaluation."""

    @pytest.fixture
    def system(self, tiny_system):
        return tiny_system

    @pytest.fixture
    def rig(self, system):
        model = SystemPowerModel(system)
        rm = ResourceManager(system)
        return model, rm, RunningSetPowerAggregator(model, rm)

    @staticmethod
    def _assert_matches(aggregated, reference):
        assert aggregated.allocated_nodes == reference.allocated_nodes
        for field in (
            "job_power_kw",
            "idle_power_kw",
            "loss_kw",
            "mean_cpu_util",
            "mean_gpu_util",
        ):
            assert getattr(aggregated, field) == pytest.approx(
                getattr(reference, field), rel=1e-12, abs=1e-15
            ), field

    def test_matches_scan_across_breakpoints_and_membership(self, rig):
        model, rm, agg = rig
        phased = Profile([0.0, 120.0, 240.0], [0.2, 0.8, 0.5])
        runs = [
            queued_run(make_job(nodes=4, submit=0.0, duration=600.0, cpu_profile=phased)),
            queued_run(make_job(nodes=2, submit=0.0, duration=600.0, cpu=0.6, gpu=0.3)),
        ]
        for run in runs:
            rm.allocate(run, 0.0)
        for now in np.arange(0.0, 360.0, 15.0):
            self._assert_matches(
                agg.sample(now), scan_sample(model, now, rm)
            )
        rm.release(runs[1], 360.0)
        for now in np.arange(360.0, 615.0, 15.0):
            self._assert_matches(
                agg.sample(now), scan_sample(model, now, rm)
            )

    def test_recorded_power_trace_wins_over_model(self, rig):
        model, rm, agg = rig
        trace = Profile([0.0, 60.0, 60.5, 180.0], [500.0, 500.0, 750.0, 750.0])
        job = make_job(nodes=3, submit=0.0, duration=300.0, node_power=trace)
        job = queued_run(job)
        rm.allocate(job, 0.0)
        for now in (0.0, 45.0, 60.0, 61.0, 200.0):
            sample = agg.sample(now)
            self._assert_matches(sample, scan_sample(model, now, rm))
        # Past the trace end the last value is held (gap-filling rule).
        assert agg.sample(290.0).job_power_kw == pytest.approx(3 * 750.0 / 1000.0)

    def test_off_grid_backdated_start_shifts_breakpoints(self, rig):
        # Replay may backdate a start off the tick grid; elapsed-time
        # indexing must follow the shifted change points exactly.
        model, rm, agg = rig
        phased = Profile([0.0, 100.0], [0.1, 0.9])
        job = make_job(nodes=2, submit=0.0, duration=400.0, cpu_profile=phased)
        job = queued_run(job)
        rm.allocate(job, 7.5)
        for now in (15.0, 105.0, 107.5, 120.0):
            self._assert_matches(agg.sample(now), scan_sample(model, now, rm))

    def test_idle_system_reports_exact_zero_job_power(self, rig):
        model, rm, agg = rig
        job = make_job(nodes=4, submit=0.0, duration=300.0, cpu=0.7)
        job = queued_run(job)
        rm.allocate(job, 0.0)
        assert agg.sample(0.0).job_power_kw > 0.0
        rm.release(job, 300.0)
        sample = agg.sample(300.0)
        assert sample.job_power_kw == 0.0
        assert sample.mean_cpu_util == 0.0
        assert sample.mean_gpu_util == 0.0
        assert sample.allocated_nodes == 0
        self._assert_matches(sample, scan_sample(model, 300.0, rm))

    def test_next_breakpoint_after_matches_per_job_bound(self, rig):
        # The engine's event bound: the aggregator's heap minimum must be
        # float-identical to the min of the scanned next_power_change_after over
        # the running set, at every query time.
        model, rm, agg = rig
        jobs = [
            make_job(
                nodes=2, submit=0.0, duration=600.0,
                cpu_profile=Profile([0.0, 120.0, 240.0], [0.2, 0.8, 0.5]),
            ),
            make_job(
                nodes=1, submit=0.0, duration=600.0,
                gpu_profile=Profile([0.0, 90.0, 180.0, 200.0], [0.1, 0.1, 0.9, 0.4]),
            ),
            make_job(nodes=1, submit=0.0, duration=600.0, cpu=0.5),  # constant
        ]
        for job in jobs:
            rm.allocate(queued_run(job), 0.0)
        for now in (0.0, 15.0, 90.0, 120.0, 185.0, 240.0, 500.0):
            agg.sample(now)
            expected = min(
                (
                    change
                    for run in rm.running_by_id.values()
                    if (change := next_power_change_after(run, now)) is not None
                ),
                default=None,
            )
            assert agg.next_breakpoint_after(now) == expected

    def test_next_breakpoint_none_for_constant_jobs(self, rig):
        _, rm, agg = rig
        job = make_job(nodes=2, submit=0.0, duration=600.0, cpu=0.7)
        job = queued_run(job)
        rm.allocate(job, 0.0)
        assert agg.next_breakpoint_after(0.0) is None

    def test_next_breakpoint_discards_stale_entries_of_ended_jobs(self, rig):
        _, rm, agg = rig
        phased = Profile([0.0, 300.0], [0.2, 0.9])
        job = make_job(nodes=2, submit=0.0, duration=600.0, cpu_profile=phased)
        job = queued_run(job)
        rm.allocate(job, 0.0)
        assert agg.next_breakpoint_after(0.0) == pytest.approx(300.0)
        rm.release(job, 100.0)
        # The heap entry of the ended job is stale; the query discards it
        # (permanently) instead of reporting a breakpoint for a job that no
        # longer runs.
        assert agg.next_breakpoint_after(100.0) is None
        assert agg._changes == []

    def test_next_breakpoint_is_strictly_after_now(self, rig):
        _, rm, agg = rig
        phased = Profile([0.0, 120.0, 240.0], [0.2, 0.8, 0.5])
        job = make_job(nodes=2, submit=0.0, duration=600.0, cpu_profile=phased)
        job = queued_run(job)
        rm.allocate(job, 0.0)
        # Querying exactly on a breakpoint applies the crossing and reports
        # the following one.
        assert agg.next_breakpoint_after(120.0) == pytest.approx(240.0)
        assert agg.next_breakpoint_after(240.0) is None

    def test_unsampled_membership_churn_is_caught_up(self, rig):
        # Several allocations/releases between two samples (one epoch jump
        # spanning many changes) must still land on the scan result.
        model, rm, agg = rig
        runs = [
            queued_run(make_job(nodes=2, submit=0.0, duration=1000.0, cpu=0.1 * (i + 1)))
            for i in range(4)
        ]
        for run in runs:
            rm.allocate(run, 0.0)
        self._assert_matches(agg.sample(0.0), scan_sample(model, 0.0, rm))
        rm.release(runs[0], 100.0)
        rm.release(runs[2], 100.0)
        late = make_job(nodes=8, submit=0.0, duration=500.0, gpu=0.9)
        late = queued_run(late)
        rm.allocate(late, 100.0)
        self._assert_matches(agg.sample(100.0), scan_sample(model, 100.0, rm))

    def test_breakpoint_on_rounding_boundary_does_not_spin(self, rig):
        # start + t can compare <= now while now - start < t in float64;
        # the due-change loop must re-arm such a crossing strictly in the
        # future instead of popping the identical heap entry forever.
        model, rm, agg = rig
        start = 1029209.9090649254
        change = 262.40098236712504
        boundary = start + change
        assert boundary - start < change  # the pathological rounding holds
        profile = Profile([0.0, change], [0.2, 0.9])
        job = make_job(nodes=2, submit=start, start=start, duration=600.0,
                       cpu_profile=profile)
        job = queued_run(job)
        rm.allocate(job, start)
        # Sampling exactly on the rounded boundary must terminate and match
        # the scan (which still sees the pre-change value, elapsed < change).
        self._assert_matches(
            agg.sample(boundary), scan_sample(model, boundary, rm)
        )
        # One ulp later the elapsed time crosses and the new value applies.
        later = np.nextafter(boundary + 15.0, np.inf)
        self._assert_matches(
            agg.sample(later), scan_sample(model, later, rm)
        )
