"""Property-based dense-vs-event equivalence: the engine's 1e-9 contract.

PR 3 pinned dense-vs-event summary equality on a fixed 3x3 seed/policy
matrix; this module promotes that matrix into a real property test. A
strategy draws :class:`~repro.workloads.WorkloadSpec` parameters (mixed
per-sample noise, phase counts, arrival rates, scalar vs sampled telemetry,
recorded power traces) plus adversarial hand-built jobs — zero-duration
jobs, simultaneous ends, replay-backdated starts — and an optional horizon
that running jobs straddle, then asserts that the event-driven engine's
summary is equal to dense ticking at 1e-9 relative under *all three*
scheduling policies. Every one of those runs also goes through
:func:`helpers.run_checked`, which checks node conservation on the owner
table after each step, each event-driven step's power against a scan of the
running set, energy balance over the run, that every job leaves the system
exactly once, and that the one job list both engines share is left
unchanged.

When ``hypothesis`` is unavailable the same property runs over a
seeded-random parameter sweep (``random.Random(2025)``), so the contract is
exercised either way; the deterministic edge-case tests at the bottom run
unconditionally.
"""

from __future__ import annotations

import random

import pytest

from repro.engine import SimulationEngine
from repro.telemetry import JobState
from repro.workloads import SyntheticWorkloadGenerator, WorkloadSpec
from repro.workloads.distributions import (
    JobSizeDistribution,
    RuntimeDistribution,
    WaveArrivals,
)

from helpers import idle_floor_kw, make_job, run_checked

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False

POLICIES = ("replay", "fcfs", "backfill")

#: The engine contract: event-driven summaries match dense ticking to 1e-9
#: relative (the tolerance of the gates in tests/test_contract.py).
EQUIVALENCE_RTOL = 1e-9

#: Horizon choices: none, grid-aligned, and off-grid (tiny's tick is 15 s)
#: so truncation exercises the exact-horizon clamping path too.
HORIZONS = (None, 5400.0, 5401.7)


def _workload(tiny_system, *, seed, noise, phases, rate, scalar, power_trace):
    """A generated workload plus hand-built adversarial edge-case jobs."""
    spec = WorkloadSpec(
        sizes=JobSizeDistribution(min_nodes=1, max_nodes=8),
        runtimes=RuntimeDistribution(
            median_s=1500.0, sigma=0.7, min_s=60.0, max_s=2 * 3600.0
        ),
        arrivals=WaveArrivals(rate_per_hour=rate, amplitude=0.3),
        trace_interval_s=None if scalar else 60.0,
        generate_power_trace=power_trace and not scalar,
        phase_count_range=(1, phases),
        sample_noise=noise,
    )
    jobs = SyntheticWorkloadGenerator(tiny_system, spec, seed=seed).generate(
        2.5 * 3600.0
    )
    jobs += [
        # Zero-duration job: allocated and completed with no runtime.
        make_job(nodes=1, submit=300.0, start=420.0, duration=0.0),
        # Simultaneous ends: same start, same duration, different sizes.
        make_job(nodes=2, submit=0.0, start=120.0, duration=1000.0),
        make_job(nodes=3, submit=0.0, start=120.0, duration=1000.0),
        # Replay-backdated start far from any tick boundary.
        make_job(nodes=1, submit=0.0, start=1234.5, duration=777.25),
        # A long job that straddles every HORIZONS cut (truncated there).
        make_job(nodes=2, submit=60.0, start=90.0, duration=4 * 3600.0),
    ]
    return jobs


def _assert_dense_event_equivalent(tiny_system, jobs, policy, horizon_s, signals=None):
    sparse = run_checked(
        tiny_system, jobs, policy, horizon_s=horizon_s, signals=signals
    )
    dense = run_checked(
        tiny_system,
        jobs,
        policy,
        horizon_s=horizon_s,
        dense_ticks=True,
        signals=signals,
    )
    sparse_summary, dense_summary = sparse.summary(), dense.summary()
    assert set(sparse_summary) == set(dense_summary)
    for key, dense_value in dense_summary.items():
        if key == "ticks":
            continue
        assert sparse_summary[key] == pytest.approx(
            dense_value, rel=EQUIVALENCE_RTOL, abs=1e-12
        ), f"{policy}/{key} drifted beyond 1e-9"
    # Coalescing may only ever merge samples, and per-job outcomes
    # (completed vs dismissed) must agree job for job.
    assert sparse_summary["ticks"] <= dense_summary["ticks"]
    sparse_states = {j.job_id: j.state for j in sparse.jobs}
    dense_states = {j.job_id: j.state for j in dense.jobs}
    assert sparse_states == dense_states


def _check_property(tiny_system, seed, noise, phases, rate, scalar, power_trace, horizon):
    jobs = _workload(
        tiny_system,
        seed=seed,
        noise=noise,
        phases=phases,
        rate=rate,
        scalar=scalar,
        power_trace=power_trace,
    )
    for policy in POLICIES:
        _assert_dense_event_equivalent(tiny_system, jobs, policy, horizon)


def _random_signals(tiny_system, rng, *, capped):
    """A random multi-series :class:`OperatingSignals` bundle.

    Segment boundaries deliberately mix three placements: on the 15 s tick
    grid, off-grid (x.7 fractions that never meet a tick), and coincident
    with the hand-built adversarial jobs in :func:`_workload` (starts at
    120.0, 420.0 and 1234.5 s). Cap levels are scaled from the tiny
    system's 8 kW idle floor so a good fraction of draws actually bind.
    """
    from repro.power import OperatingSignals

    floor_kw = idle_floor_kw(tiny_system)
    boundary_pool = [
        15.0 * rng.randint(1, 360),  # on the tick grid
        15.0 * rng.randint(1, 360),
        float(rng.randint(60, 5400)) + 0.7,  # never on a tick
        rng.choice([120.0, 420.0, 1234.5]),  # coincident with job events
    ]
    times = [0.0] + sorted(set(rng.sample(boundary_pool, rng.randint(1, 3))))

    def cap_value():
        if rng.random() < 0.25:
            return None  # an uncapped (demand-response style) window
        return floor_kw * rng.uniform(1.0, 3.0)

    return OperatingSignals(
        power_cap_kw=tuple((t, cap_value()) for t in times) if capped else None,
        price_per_kwh=tuple((t, rng.uniform(0.05, 0.5)) for t in times),
        carbon_kg_per_kwh=tuple((t, rng.uniform(0.1, 0.6)) for t in times),
    )


def _check_signals_property(tiny_system, seed, signals_seed, capped, horizon):
    signals = _random_signals(tiny_system, random.Random(signals_seed), capped=capped)
    jobs = _workload(
        tiny_system,
        seed=seed,
        noise=0.35,
        phases=3,
        rate=6.0,
        scalar=False,
        power_trace=True,
    )
    for policy in POLICIES:
        _assert_dense_event_equivalent(
            tiny_system, jobs, policy, horizon, signals=signals
        )


if HAVE_HYPOTHESIS:

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        noise=st.sampled_from([0.0, 0.35, 1.0]),
        phases=st.integers(min_value=1, max_value=5),
        rate=st.floats(min_value=2.0, max_value=10.0, allow_nan=False),
        scalar=st.booleans(),
        power_trace=st.booleans(),
        horizon=st.sampled_from(HORIZONS),
    )
    def test_dense_event_equivalence_property(
        seed, noise, phases, rate, scalar, power_trace, horizon
    ):
        from repro.config import get_system_config

        _check_property(
            get_system_config("tiny"),
            seed, noise, phases, rate, scalar, power_trace, horizon,
        )

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        signals_seed=st.integers(min_value=0, max_value=2**20),
        capped=st.booleans(),
        horizon=st.sampled_from(HORIZONS),
    )
    def test_dense_event_equivalence_under_signals(
        seed, signals_seed, capped, horizon
    ):
        """The 1e-9 contract extends to cap/price/carbon signals: every
        signal step bounds a coalesced interval, capped and uncapped."""
        from repro.config import get_system_config

        _check_signals_property(
            get_system_config("tiny"), seed, signals_seed, capped, horizon
        )

else:  # pragma: no cover - seeded-random fallback without hypothesis

    def _fallback_cases(count=8):
        rng = random.Random(2025)
        return [
            (
                rng.randrange(2**20),
                rng.choice([0.0, 0.35, 1.0]),
                rng.randint(1, 5),
                rng.uniform(2.0, 10.0),
                rng.random() < 0.5,
                rng.random() < 0.5,
                rng.choice(HORIZONS),
            )
            for _ in range(count)
        ]

    @pytest.mark.parametrize("case", _fallback_cases())
    def test_dense_event_equivalence_property(tiny_system, case):
        _check_property(tiny_system, *case)

    def _fallback_signal_cases(count=6):
        rng = random.Random(2026)
        return [
            (
                rng.randrange(2**20),
                rng.randrange(2**20),
                rng.random() < 0.7,
                rng.choice(HORIZONS),
            )
            for _ in range(count)
        ]

    @pytest.mark.parametrize("case", _fallback_signal_cases())
    def test_dense_event_equivalence_under_signals(tiny_system, case):
        _check_signals_property(tiny_system, *case)


class TestEdgeCaseEquivalence:
    """Deterministic slices of the property, kept unconditional so a
    failure reproduces without hypothesis installed."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_zero_duration_jobs_complete_without_drift(self, tiny_system, policy):
        jobs = [
            make_job(nodes=1, submit=0.0, start=0.0, duration=0.0),
            make_job(nodes=4, submit=0.0, start=15.0, duration=0.0),
            make_job(nodes=2, submit=0.0, start=30.0, duration=600.0),
        ]
        _assert_dense_event_equivalent(tiny_system, jobs, policy, None)
        result = SimulationEngine(tiny_system, jobs, policy).run()
        assert all(run.state is JobState.COMPLETED for run in result.jobs)
        zero = [run for run in result.jobs if run.job.duration == 0.0]
        assert all(run.sim_duration == 0.0 for run in zero)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_simultaneous_ends_release_together(self, tiny_system, policy):
        jobs = [
            make_job(nodes=n, submit=0.0, start=60.0, duration=900.0)
            for n in (1, 2, 3, 4)
        ]
        _assert_dense_event_equivalent(tiny_system, jobs, policy, None)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("horizon", [h for h in HORIZONS if h is not None])
    def test_horizon_straddling_release(self, tiny_system, policy, horizon):
        # One job ends inside the window, one is cut by the horizon, one is
        # never started — dense and event mode must agree on all three.
        jobs = [
            make_job(nodes=2, submit=0.0, start=0.0, duration=1800.0),
            make_job(nodes=4, submit=0.0, start=300.0, duration=4 * 3600.0),
            make_job(nodes=1, submit=3 * 3600.0, start=3 * 3600.0, duration=60.0),
        ]
        _assert_dense_event_equivalent(tiny_system, jobs, policy, horizon)


class TestBurstArrivalEquivalence:
    """Thousands-of-same-tick-releases shape, scaled to the tiny system.

    Mirrors the ``engine_burst_arrival`` benchmark: every burst submits a
    pile of jobs in one tick, so one refresh builds many job power states.
    Dense-vs-event must hold to the 1e-9 contract, including when a
    horizon cuts a burst.
    """

    def _burst_jobs(self, tiny_system, *, seed=11, piecewise=True):
        from repro.workloads import burst_arrival_spec
        from repro.workloads.distributions import (
            BurstArrivals,
            JobSizeDistribution,
            RuntimeDistribution,
        )
        from dataclasses import replace

        spec = replace(
            burst_arrival_spec(),
            sizes=JobSizeDistribution(min_nodes=1, max_nodes=2),
            runtimes=RuntimeDistribution(
                median_s=900.0, sigma=0.4, min_s=300.0, max_s=1800.0
            ),
            arrivals=BurstArrivals(jobs_per_burst=30, burst_interval_s=3600.0),
            trace_interval_s=300.0 if piecewise else None,
        )
        return SyntheticWorkloadGenerator(tiny_system, spec, seed=seed).generate(
            2.5 * 3600.0
        )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_dense_event_equivalence_on_bursts(self, tiny_system, policy):
        jobs = self._burst_jobs(tiny_system)
        _assert_dense_event_equivalent(tiny_system, jobs, policy, None)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_burst_cut_by_horizon(self, tiny_system, policy):
        # The horizon falls inside the second burst's drain: truncation,
        # dismissal and the final partial sample must agree between dense
        # and event-driven runs.
        jobs = self._burst_jobs(tiny_system, piecewise=False)
        _assert_dense_event_equivalent(tiny_system, jobs, policy, 5401.7)
