"""Statistical building blocks for synthetic HPC workloads.

The distributions follow the shapes consistently reported for production HPC
workloads (and visible in the paper's datasets): job node counts are heavy
tailed and cluster at powers of two, runtimes are roughly log-normal and are
truncated by wall-time limits, and arrivals follow a non-homogeneous Poisson
process with diurnal (and optionally weekly) intensity waves.

All classes take an explicit :class:`numpy.random.Generator` at sampling time
so the same specification can drive reproducible, independently seeded
workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError


@dataclass(frozen=True)
class JobSizeDistribution:
    """Heavy-tailed, power-of-two-favouring node-count distribution.

    A log-uniform base sample over ``[min_nodes, max_nodes]`` is snapped to
    the nearest power of two with probability ``power_of_two_bias``, and a
    small probability mass ``full_system_fraction`` produces full-system jobs
    (``max_nodes``), which is how the three 9,216-node Frontier runs of
    Fig. 6 arise.
    """

    min_nodes: int = 1
    max_nodes: int = 512
    power_of_two_bias: float = 0.6
    full_system_fraction: float = 0.0
    #: Exponent of the log-uniform base draw; >1 skews towards small jobs.
    small_job_skew: float = 1.6

    def __post_init__(self) -> None:
        if self.min_nodes < 1 or self.max_nodes < self.min_nodes:
            raise ConfigurationError("invalid node-count range")
        if not 0.0 <= self.power_of_two_bias <= 1.0:
            raise ConfigurationError("power_of_two_bias must be in [0, 1]")
        if not 0.0 <= self.full_system_fraction <= 1.0:
            raise ConfigurationError("full_system_fraction must be in [0, 1]")
        if self.small_job_skew <= 0:
            raise ConfigurationError("small_job_skew must be positive")

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` node counts."""
        u = rng.random(size) ** self.small_job_skew
        log_min = np.log(self.min_nodes)
        log_max = np.log(self.max_nodes)
        nodes = np.exp(log_min + u * (log_max - log_min))
        nodes = np.maximum(self.min_nodes, np.round(nodes)).astype(int)

        snap = rng.random(size) < self.power_of_two_bias
        powers = 2 ** np.round(np.log2(np.maximum(nodes, 1))).astype(int)
        nodes = np.where(snap, powers, nodes)
        nodes = np.clip(nodes, self.min_nodes, self.max_nodes)

        full = rng.random(size) < self.full_system_fraction
        nodes = np.where(full, self.max_nodes, nodes)
        return nodes


@dataclass(frozen=True)
class RuntimeDistribution:
    """Log-normal runtime distribution with wall-time truncation.

    ``median_s`` and ``sigma`` parameterise the log-normal; samples are
    clipped to ``[min_s, max_s]``. Requested wall-time limits are derived by
    multiplying the true runtime with an over-estimation factor drawn from
    ``[1, overestimate_max]`` and rounding up to the next
    ``limit_granularity_s`` — mimicking users who request padded round
    numbers.
    """

    median_s: float = 3600.0
    sigma: float = 1.2
    min_s: float = 60.0
    max_s: float = 86400.0
    overestimate_max: float = 3.0
    limit_granularity_s: float = 1800.0

    def __post_init__(self) -> None:
        if self.median_s <= 0 or self.sigma <= 0:
            raise ConfigurationError("median_s and sigma must be positive")
        if self.min_s <= 0 or self.max_s < self.min_s:
            raise ConfigurationError("invalid runtime range")
        if self.overestimate_max < 1.0:
            raise ConfigurationError("overestimate_max must be >= 1")

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` true runtimes in seconds."""
        runtimes = rng.lognormal(mean=np.log(self.median_s), sigma=self.sigma, size=size)
        return np.clip(runtimes, self.min_s, self.max_s)

    def sample_wall_limits(
        self, rng: np.random.Generator, runtimes: np.ndarray
    ) -> np.ndarray:
        """Draw requested wall-time limits consistent with ``runtimes``."""
        factors = rng.uniform(1.0, self.overestimate_max, size=runtimes.shape)
        limits = runtimes * factors
        gran = self.limit_granularity_s
        return np.ceil(limits / gran) * gran


@dataclass(frozen=True)
class PoissonArrivals:
    """Homogeneous Poisson arrival process."""

    rate_per_hour: float = 20.0

    def __post_init__(self) -> None:
        if self.rate_per_hour <= 0:
            raise ConfigurationError("rate_per_hour must be positive")

    def sample(
        self, rng: np.random.Generator, duration_s: float, start_s: float = 0.0
    ) -> np.ndarray:
        """Arrival times (seconds) in ``[start_s, start_s + duration_s)``."""
        expected = self.rate_per_hour * duration_s / 3600.0
        count = rng.poisson(expected)
        times = start_s + rng.random(count) * duration_s
        return np.sort(times)


@dataclass(frozen=True)
class BurstArrivals:
    """Submissions arriving in instantaneous same-instant bursts.

    Models the queue-drain restart after a maintenance window (or a
    deadline rush): thousands of jobs are released to the scheduler in the
    same tick, then nothing until the next burst. This is the adversarial
    shape for any per-event cost in the engine — every burst makes one tick
    carry thousands of submissions, placements and power-state
    constructions — and is what the burst-arrival gate
    (``tests/test_contract.py``) drives the job-start path with.

    Bursts fire at ``first_burst_s + k * burst_interval_s`` (absolute
    times); :meth:`sample` returns the ones falling inside the requested
    window. The process is deterministic — it draws nothing from the
    generator — so the seed only varies the job bodies, never the arrival
    pattern.
    """

    jobs_per_burst: int = 1000
    burst_interval_s: float = 4 * 3600.0
    first_burst_s: float = 0.0

    def __post_init__(self) -> None:
        if self.jobs_per_burst < 1:
            raise ConfigurationError("jobs_per_burst must be positive")
        if self.burst_interval_s <= 0:
            raise ConfigurationError("burst_interval_s must be positive")

    @property
    def rate_per_hour(self) -> float:
        """Long-run average arrival rate (jobs/hour), for window sizing."""
        return self.jobs_per_burst * 3600.0 / self.burst_interval_s

    def sample(
        self, rng: np.random.Generator, duration_s: float, start_s: float = 0.0
    ) -> np.ndarray:
        """Arrival times (seconds) in ``[start_s, start_s + duration_s)``."""
        end_s = start_s + duration_s
        # One index of slack on both sides, then mask: the index bounds are
        # computed in float, and a ceil that rounds up would otherwise clip
        # a burst landing exactly on the window edge.
        first_index = max(
            0, int(np.ceil((start_s - self.first_burst_s) / self.burst_interval_s)) - 1
        )
        last_index = (
            int(np.ceil((end_s - self.first_burst_s) / self.burst_interval_s)) + 1
        )
        indices = np.arange(first_index, max(first_index, last_index), dtype=float)
        bursts = self.first_burst_s + indices * self.burst_interval_s
        bursts = bursts[(bursts >= start_s) & (bursts < end_s)]
        return np.repeat(bursts, self.jobs_per_burst)


@dataclass(frozen=True)
class WaveArrivals:
    """Non-homogeneous Poisson arrivals with a diurnal intensity wave.

    Intensity is ``base * (1 + amplitude * sin(2*pi*(t - phase)/period))``,
    sampled by thinning a dominating homogeneous process. A weekly modulation
    can be layered on with ``weekly_amplitude`` (weekdays busier than
    weekends), matching the day-scale power swings visible in Figs. 5 and 7.
    """

    rate_per_hour: float = 20.0
    amplitude: float = 0.5
    period_s: float = 86400.0
    phase_s: float = 0.0
    weekly_amplitude: float = 0.0

    def __post_init__(self) -> None:
        if self.rate_per_hour <= 0:
            raise ConfigurationError("rate_per_hour must be positive")
        if not 0.0 <= self.amplitude < 1.0:
            raise ConfigurationError("amplitude must be in [0, 1)")
        if not 0.0 <= self.weekly_amplitude < 1.0:
            raise ConfigurationError("weekly_amplitude must be in [0, 1)")
        if self.period_s <= 0:
            raise ConfigurationError("period_s must be positive")

    def intensity(self, t: np.ndarray | float) -> np.ndarray:
        """Instantaneous arrival intensity (jobs/hour) at time(s) ``t``."""
        t_arr = np.asarray(t, dtype=float)
        diurnal = 1.0 + self.amplitude * np.sin(
            2.0 * np.pi * (t_arr - self.phase_s) / self.period_s
        )
        weekly = 1.0 + self.weekly_amplitude * np.sin(
            2.0 * np.pi * t_arr / (7.0 * 86400.0)
        )
        return self.rate_per_hour * diurnal * weekly

    def sample(
        self, rng: np.random.Generator, duration_s: float, start_s: float = 0.0
    ) -> np.ndarray:
        """Arrival times (seconds) in ``[start_s, start_s + duration_s)``."""
        max_rate = self.rate_per_hour * (1.0 + self.amplitude) * (1.0 + self.weekly_amplitude)
        expected = max_rate * duration_s / 3600.0
        count = rng.poisson(expected)
        candidates = start_s + rng.random(count) * duration_s
        accept = rng.random(count) * max_rate < self.intensity(candidates)
        return np.sort(candidates[accept])


@dataclass(frozen=True)
class UserPopulation:
    """A pool of users/accounts with Zipf-like activity.

    ``n_accounts`` projects share ``n_users`` users; user activity follows a
    Zipf law so a few accounts dominate the workload, which is what makes the
    incentive-structure study (Fig. 8) interesting: reprioritising accounts
    moves a visible share of the load.
    """

    n_users: int = 64
    n_accounts: int = 16
    zipf_exponent: float = 1.1

    def __post_init__(self) -> None:
        if self.n_users < 1 or self.n_accounts < 1:
            raise ConfigurationError("population sizes must be positive")
        if self.zipf_exponent <= 0:
            raise ConfigurationError("zipf_exponent must be positive")

    def _weights(self, n: int) -> np.ndarray:
        ranks = np.arange(1, n + 1, dtype=float)
        weights = ranks ** (-self.zipf_exponent)
        return weights / weights.sum()

    def sample_users(self, rng: np.random.Generator, size: int) -> list[str]:
        """Draw ``size`` user names."""
        idx = rng.choice(self.n_users, size=size, p=self._weights(self.n_users))
        return [f"user{int(i):03d}" for i in idx]

    def account_of(self, user: str) -> str:
        """Deterministic user → account mapping (users stay in one project)."""
        digits = int("".join(ch for ch in user if ch.isdigit()) or 0)
        return f"acct{digits % self.n_accounts:03d}"
