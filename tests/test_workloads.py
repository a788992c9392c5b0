"""Tests for synthetic workload distributions and the generator."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import get_system_config
from repro.exceptions import ConfigurationError
from repro.workloads import (
    JobSizeDistribution,
    PoissonArrivals,
    RuntimeDistribution,
    SyntheticWorkloadGenerator,
    UserPopulation,
    WaveArrivals,
    WorkloadSpec,
    default_workload_spec,
)

from helpers import change_points, is_constant


class TestJobSizeDistribution:
    def test_within_bounds(self, rng):
        dist = JobSizeDistribution(min_nodes=2, max_nodes=100)
        sizes = dist.sample(rng, 500)
        assert sizes.min() >= 2
        assert sizes.max() <= 100

    def test_full_system_fraction(self, rng):
        dist = JobSizeDistribution(min_nodes=1, max_nodes=64, full_system_fraction=1.0)
        assert np.all(dist.sample(rng, 50) == 64)

    def test_skew_towards_small_jobs(self, rng):
        dist = JobSizeDistribution(min_nodes=1, max_nodes=1024, small_job_skew=2.0)
        sizes = dist.sample(rng, 2000)
        assert np.median(sizes) < 64

    def test_invalid_range(self):
        with pytest.raises(ConfigurationError):
            JobSizeDistribution(min_nodes=10, max_nodes=5)

    def test_invalid_bias(self):
        with pytest.raises(ConfigurationError):
            JobSizeDistribution(power_of_two_bias=1.5)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_always_positive_integers(self, seed):
        rng = np.random.default_rng(seed)
        sizes = JobSizeDistribution(min_nodes=1, max_nodes=256).sample(rng, 100)
        assert sizes.dtype.kind == "i"
        assert (sizes >= 1).all()


class TestRuntimeDistribution:
    def test_within_bounds(self, rng):
        dist = RuntimeDistribution(median_s=3600, min_s=60, max_s=7200)
        runtimes = dist.sample(rng, 1000)
        assert runtimes.min() >= 60
        assert runtimes.max() <= 7200

    def test_wall_limits_at_least_runtime(self, rng):
        dist = RuntimeDistribution()
        runtimes = dist.sample(rng, 200)
        limits = dist.sample_wall_limits(rng, runtimes)
        assert np.all(limits >= runtimes)

    def test_wall_limits_granularity(self, rng):
        dist = RuntimeDistribution(limit_granularity_s=1800)
        runtimes = dist.sample(rng, 100)
        limits = dist.sample_wall_limits(rng, runtimes)
        np.testing.assert_allclose(np.mod(limits, 1800), 0, atol=1e-9)

    def test_invalid_overestimate(self):
        with pytest.raises(ConfigurationError):
            RuntimeDistribution(overestimate_max=0.5)


class TestArrivals:
    def test_poisson_in_window(self, rng):
        arrivals = PoissonArrivals(rate_per_hour=60).sample(rng, 3600.0, start_s=100.0)
        assert np.all(arrivals >= 100.0)
        assert np.all(arrivals < 3700.0)
        assert np.all(np.diff(arrivals) >= 0)

    def test_poisson_rate_scaling(self, rng):
        low = PoissonArrivals(rate_per_hour=5).sample(rng, 48 * 3600.0).size
        high = PoissonArrivals(rate_per_hour=50).sample(rng, 48 * 3600.0).size
        assert high > low * 3

    def test_wave_intensity_oscillates(self):
        arrivals = WaveArrivals(rate_per_hour=10, amplitude=0.9)
        t = np.linspace(0, 86400, 200)
        intensity = arrivals.intensity(t)
        assert intensity.max() > 1.5 * intensity.min()
        assert intensity.min() > 0

    def test_wave_sample_sorted_in_window(self, rng):
        times = WaveArrivals(rate_per_hour=30).sample(rng, 86400.0)
        assert np.all(np.diff(times) >= 0)
        assert times.min() >= 0.0
        assert times.max() < 86400.0

    def test_invalid_amplitude(self):
        with pytest.raises(ConfigurationError):
            WaveArrivals(amplitude=1.0)


class TestUserPopulation:
    def test_user_names_within_pool(self, rng):
        pop = UserPopulation(n_users=5, n_accounts=2)
        users, _ = pop.sample_users(rng, 100)
        assert set(users) <= {f"user{i:03d}" for i in range(5)}

    def test_account_mapping_stable(self, rng):
        # User i always bills account i % n_accounts, whatever the draw.
        pop = UserPopulation(n_users=1200, n_accounts=7, zipf_exponent=0.5)
        users, accounts = pop.sample_users(rng, 3000)
        assert len(accounts) == len(users) == 3000
        assert any(len(user) == len("user1000") for user in users)  # four digits too
        account_of = dict(zip(users, accounts))
        for user, account in zip(users, accounts):
            assert account == account_of[user] == f"acct{int(user[4:]) % 7:03d}"

    def test_zipf_concentration(self, rng):
        pop = UserPopulation(n_users=50, zipf_exponent=1.5)
        users, _ = pop.sample_users(rng, 2000)
        counts = {}
        for user in users:
            counts[user] = counts.get(user, 0) + 1
        top = max(counts.values())
        assert top > 2000 / 50  # far more than uniform share


class TestSyntheticWorkloadGenerator:
    def test_deterministic_given_seed(self, tiny_system):
        spec = WorkloadSpec(sizes=JobSizeDistribution(max_nodes=16))
        a = SyntheticWorkloadGenerator(tiny_system, spec, seed=3).generate(4 * 3600)
        b = SyntheticWorkloadGenerator(tiny_system, spec, seed=3).generate(4 * 3600)
        assert len(a) == len(b)
        assert [j.nodes_required for j in a] == [j.nodes_required for j in b]
        assert [j.submit_time for j in a] == [j.submit_time for j in b]

    def test_different_seeds_differ(self, tiny_system):
        spec = WorkloadSpec(sizes=JobSizeDistribution(max_nodes=16))
        a = SyntheticWorkloadGenerator(tiny_system, spec, seed=1).generate(4 * 3600)
        b = SyntheticWorkloadGenerator(tiny_system, spec, seed=2).generate(4 * 3600)
        assert [j.submit_time for j in a] != [j.submit_time for j in b]

    def test_jobs_fit_system(self, tiny_workload, tiny_system):
        assert all(1 <= j.nodes_required <= tiny_system.total_nodes for j in tiny_workload)

    def test_jobs_sorted_by_submit(self, tiny_workload):
        submits = [j.submit_time for j in tiny_workload]
        assert submits == sorted(submits)

    def test_time_ordering_invariants(self, tiny_workload):
        for job in tiny_workload:
            assert job.submit_time <= job.start_time < job.end_time
            assert job.wall_time_limit is None or job.wall_time_limit > 0

    def test_prehistory_jobs_present(self, tiny_workload):
        assert any(j.submit_time < 0 for j in tiny_workload)

    def test_no_prehistory_when_disabled(self, tiny_system):
        gen = SyntheticWorkloadGenerator(
            tiny_system, WorkloadSpec(sizes=JobSizeDistribution(max_nodes=8)), seed=5
        )
        jobs = gen.generate(3600.0, include_prehistory=False)
        assert all(j.submit_time >= 0 for j in jobs)

    def test_power_trace_generated(self, tiny_workload):
        assert all(j.node_power is not None for j in tiny_workload)

    def test_power_trace_consistent_with_node_model(self, tiny_workload, tiny_system):
        node = tiny_system.partitions[0].node_power
        for job in tiny_workload[:10]:
            assert job.node_power.minimum() >= node.min_w - 1e-6
            assert job.node_power.maximum() <= node.max_w + 1e-6

    def test_scalar_telemetry_mode(self, tiny_system):
        spec = WorkloadSpec(
            sizes=JobSizeDistribution(max_nodes=8), trace_interval_s=None
        )
        jobs = SyntheticWorkloadGenerator(tiny_system, spec, seed=2).generate(3600.0)
        assert all(is_constant(j.cpu_util) for j in jobs)

    def test_no_spec_means_the_system_default_spec(self, tiny_system):
        def jobs_without_ids(generator):
            # Job ids come from a process-wide counter; everything else matches.
            return [
                dataclasses.replace(job, job_id=0) for job in generator.generate(3 * 3600.0)
            ]

        spec = default_workload_spec(tiny_system)
        generator = SyntheticWorkloadGenerator(tiny_system, seed=4)
        assert generator.spec == spec
        expected = jobs_without_ids(SyntheticWorkloadGenerator(tiny_system, spec, seed=4))
        assert expected and jobs_without_ids(generator) == expected

    @pytest.mark.parametrize(
        "seed", [-1, 1.5, "3", True], ids=["negative", "float", "string", "bool"]
    )
    def test_seed_is_checked_like_the_engines(self, tiny_system, seed):
        with pytest.raises(ConfigurationError, match="seed must be an integer"):
            SyntheticWorkloadGenerator(tiny_system, seed=seed)

    @pytest.mark.parametrize(
        "window", [-1.0, math.nan, math.inf, "1h"], ids=["negative", "nan", "inf", "string"]
    )
    def test_window_must_be_finite_and_non_negative(self, tiny_system, window):
        generator = SyntheticWorkloadGenerator(tiny_system, seed=1)
        with pytest.raises(ConfigurationError, match="window"):
            generator.generate(window)

    def test_oversized_workload_rejected(self, tiny_system):
        spec = WorkloadSpec(sizes=JobSizeDistribution(max_nodes=10_000))
        with pytest.raises(ConfigurationError):
            SyntheticWorkloadGenerator(tiny_system, spec)

    def test_utilization_profiles_in_unit_range(self, tiny_workload):
        for job in tiny_workload[:20]:
            for profile in (job.cpu_util, job.gpu_util, job.mem_util):
                assert profile.minimum() >= 0.0
                assert profile.maximum() <= 1.0

    def test_accounts_assigned(self, tiny_workload):
        assert all(j.account.startswith("acct") for j in tiny_workload)
        assert all(j.user.startswith("user") for j in tiny_workload)

    def test_full_scale_system_generation(self):
        """Generating a Frontier-sized workload works and scales to 9,216-node jobs."""
        frontier = get_system_config("frontier")
        spec = WorkloadSpec(
            sizes=JobSizeDistribution(min_nodes=1, max_nodes=9216, full_system_fraction=0.01),
            arrivals=WaveArrivals(rate_per_hour=20),
            trace_interval_s=None,
        )
        jobs = SyntheticWorkloadGenerator(frontier, spec, seed=9).generate(
            6 * 3600, include_prehistory=False
        )
        assert len(jobs) > 50
        assert max(j.nodes_required for j in jobs) <= 9216


class TestSampleNoise:
    def _spec(self, sample_noise):
        return WorkloadSpec(
            sizes=JobSizeDistribution(max_nodes=8),
            arrivals=WaveArrivals(rate_per_hour=10),
            trace_interval_s=60.0,
            phase_count_range=(2, 4),
            sample_noise=sample_noise,
        )

    def test_zero_noise_yields_piecewise_constant_profiles(self, tiny_system):
        jobs = SyntheticWorkloadGenerator(tiny_system, self._spec(0.0), seed=3).generate(
            4 * 3600.0
        )
        assert jobs
        for job in jobs:
            for profile in (job.cpu_util, job.gpu_util, job.mem_util):
                # At most phases-1 = 3 value changes, regardless of how many
                # 60 s samples spell the phases out.
                assert change_points(profile).size <= 3

    def test_noise_scale_does_not_perturb_other_draws(self, tiny_system):
        noisy = SyntheticWorkloadGenerator(tiny_system, self._spec(1.0), seed=3).generate(
            4 * 3600.0
        )
        flat = SyntheticWorkloadGenerator(tiny_system, self._spec(0.0), seed=3).generate(
            4 * 3600.0
        )
        assert [j.submit_time for j in noisy] == [j.submit_time for j in flat]
        assert [j.nodes_required for j in noisy] == [j.nodes_required for j in flat]
        assert [j.duration for j in noisy] == [j.duration for j in flat]

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigurationError):
            self._spec(-0.1)


class TestBurstArrivals:
    """The deterministic same-instant burst process behind burst_arrival_spec."""

    def test_bursts_repeat_within_window(self, rng):
        from repro.workloads.distributions import BurstArrivals

        times = BurstArrivals(jobs_per_burst=5, burst_interval_s=3600.0).sample(
            rng, 2.5 * 3600.0
        )
        assert times.tolist() == [0.0] * 5 + [3600.0] * 5 + [7200.0] * 5

    def test_draws_nothing_from_rng(self, rng):
        import numpy as np

        from repro.workloads.distributions import BurstArrivals

        before = rng.bit_generator.state
        BurstArrivals(jobs_per_burst=3).sample(rng, 7200.0)
        assert rng.bit_generator.state == before  # seed only shapes job bodies

    def test_float_boundary_burst_is_kept(self, rng):
        # (start_s - first)/interval can round just above an integer; the
        # bare ceil used to clip the burst sitting exactly on the window
        # start. Chunked windows must partition the bursts exactly.
        import numpy as np

        from repro.workloads.distributions import BurstArrivals

        arrivals = BurstArrivals(jobs_per_burst=1, burst_interval_s=0.1)
        got = arrivals.sample(rng, 0.25, start_s=3 * 0.1)
        assert len(got) == 3 and got[0] == 3 * 0.1
        chunked = np.concatenate([
            arrivals.sample(rng, 0.3, start_s=0.0),
            arrivals.sample(rng, 0.3, start_s=0.3),
        ])
        assert np.array_equal(arrivals.sample(rng, 0.6), chunked)

    def test_validation(self):
        from repro.exceptions import ConfigurationError
        from repro.workloads.distributions import BurstArrivals

        with pytest.raises(ConfigurationError):
            BurstArrivals(jobs_per_burst=0)
        with pytest.raises(ConfigurationError):
            BurstArrivals(burst_interval_s=0.0)
