"""Synthetic workload generator.

Turns the distributions of :mod:`repro.workloads.distributions` into fully
formed :class:`~repro.telemetry.job.Job` objects, including per-job CPU/GPU/
memory utilization profiles (piecewise-constant phases, the dominant shape in
real traces) and — for systems whose datasets carry power traces — recorded
node-power profiles derived from the system's power model so that replay and
reschedule runs see consistent telemetry.

The generator is deterministic given a seed, so a fixed seed regenerates
the same workload: the golden-summary and dense-vs-event tests
(``tests/test_contract.py``) and perfbench's reference check rely on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..config import SystemConfig
from ..exceptions import ConfigurationError
from ..power.node_power import NodePowerModel
from ..telemetry.job import Job
from ..telemetry.trace import _ZERO_GRID, Profile, _frozen_view, _grid_profile
from ..units import check_number, check_seed
from .distributions import (
    BurstArrivals,
    JobSizeDistribution,
    RuntimeDistribution,
    UserPopulation,
    WaveArrivals,
)


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything needed to synthesise a workload for one system.

    Attributes
    ----------
    sizes / runtimes / arrivals / users:
        Component distributions.
    trace_interval_s:
        Sampling interval of generated utilization/power profiles. ``None``
        produces scalar (average-only) telemetry, matching the summary-only
        datasets (Fugaku, Lassen, Adastra).
    generate_power_trace:
        Whether to attach a recorded node-power profile (Frontier and
        Marconi100 datasets carry power traces).
    cpu_util_range / gpu_util_range / mem_util_range:
        Ranges for per-job mean utilization draws.
    phase_count_range:
        Number of piecewise-constant phases per profile.
    sample_noise:
        Scale factor on the per-sample noise added within a phase. The
        default 1.0 keeps the historical behaviour (every sample jittered,
        so every sample is a profile breakpoint); 0.0 produces genuinely
        piecewise-constant profiles whose only breakpoints are the phase
        edges — the shape telemetry replays dominate on and the one
        :func:`busy_trace_spec` uses to exercise breakpoint-bounded
        coalescing. Any value draws the same random numbers, so changing it
        never perturbs the other workload draws of a fixed seed.
    priority_range:
        Uniform range for dataset-provided priorities.
    """

    sizes: JobSizeDistribution = field(default_factory=JobSizeDistribution)
    runtimes: RuntimeDistribution = field(default_factory=RuntimeDistribution)
    arrivals: WaveArrivals = field(default_factory=WaveArrivals)
    users: UserPopulation = field(default_factory=UserPopulation)
    trace_interval_s: float | None = 60.0
    generate_power_trace: bool = False
    cpu_util_range: tuple[float, float] = (0.2, 0.95)
    gpu_util_range: tuple[float, float] = (0.0, 0.95)
    mem_util_range: tuple[float, float] = (0.1, 0.8)
    phase_count_range: tuple[int, int] = (1, 5)
    sample_noise: float = 1.0
    priority_range: tuple[float, float] = (0.0, 100.0)

    def __post_init__(self) -> None:
        if self.sample_noise < 0.0:
            raise ConfigurationError("sample_noise must be non-negative")
        for name in ("cpu_util_range", "gpu_util_range", "mem_util_range"):
            low, high = getattr(self, name)
            if not 0.0 <= low <= high <= 1.0:
                raise ConfigurationError(f"{name} must satisfy 0 <= low <= high <= 1")
        lo, hi = self.phase_count_range
        if lo < 1 or hi < lo:
            raise ConfigurationError("phase_count_range must be >= 1 and ordered")
        if self.trace_interval_s is not None and self.trace_interval_s <= 0:
            raise ConfigurationError("trace_interval_s must be positive")


def default_workload_spec(system: SystemConfig) -> WorkloadSpec:
    """A workload specification scaled to one system.

    The stock :class:`WorkloadSpec` defaults describe a mid-size machine;
    this helper caps job sizes at the system's node count and scales the
    arrival rate with system size so the engine's default runs land at a
    realistic (non-trivial, non-saturated) utilization on anything from the
    32-node ``tiny`` test system to Fugaku.
    """
    max_nodes = max(1, min(512, system.total_nodes // 2 or 1))
    return WorkloadSpec(
        sizes=JobSizeDistribution(min_nodes=1, max_nodes=max_nodes),
        runtimes=RuntimeDistribution(
            median_s=1800.0, sigma=0.9, min_s=120.0, max_s=4 * 3600.0
        ),
        arrivals=WaveArrivals(rate_per_hour=max(6.0, system.total_nodes / 16.0)),
        trace_interval_s=float(system.trace_quantum_s),
        generate_power_trace=False,
    )


def busy_trace_spec() -> WorkloadSpec:
    """A continuously busy workload of multi-phase piecewise-constant profiles.

    ``sample_noise=0.0`` makes the profiles genuinely piecewise-constant
    (breakpoints only at the 2-6 phase edges per job) — the shape real
    telemetry replays are dominated by, and the case the engine's
    breakpoint-bounded coalescing is built for. Sized for the 32-node
    ``tiny`` system: at 4 jobs/hour of 2-16-node, ~2 h jobs the machine sits
    around 90% utilization for the whole window. Shared by the busy-trace
    and power-cap gates (``tests/test_contract.py``) and the
    step-reduction regression test so they can never drift apart.
    """
    return WorkloadSpec(
        sizes=JobSizeDistribution(min_nodes=2, max_nodes=16),
        runtimes=RuntimeDistribution(
            median_s=7200.0, sigma=0.5, min_s=1800.0, max_s=4 * 3600.0
        ),
        arrivals=WaveArrivals(rate_per_hour=4.0, amplitude=0.3),
        trace_interval_s=60.0,
        generate_power_trace=False,
        phase_count_range=(2, 6),
        sample_noise=0.0,
    )


def idle_heavy_spec() -> WorkloadSpec:
    """A sparse workload: short constant-power jobs separated by idle hours.

    Scalar telemetry gives each job constant power, so event-driven runs
    coalesce the idle stretches between jobs. Shared by the idle-heavy
    gate (``tests/test_contract.py``) and the sweep's ``idle_heavy``
    workload variant.
    """
    return WorkloadSpec(
        sizes=JobSizeDistribution(min_nodes=1, max_nodes=8),
        runtimes=RuntimeDistribution(
            median_s=1200.0, sigma=0.6, min_s=300.0, max_s=3600.0
        ),
        arrivals=WaveArrivals(rate_per_hour=0.3, amplitude=0.3),
        trace_interval_s=None,
        generate_power_trace=False,
    )


def frontier_scale_spec() -> WorkloadSpec:
    """A frontier-scale workload: thousands of concurrently running jobs.

    Sized for the 9,600-node ``frontier`` system: ~600 small (1-16 node)
    jobs per hour with a ~3 h median runtime hold roughly 2,000 jobs on the
    machine at once — the running-set size of the paper's telemetry replays,
    and the regime the engine's O(log R) event indexes (end-time heap,
    breakpoint heap) exist for. Scalar telemetry (``trace_interval_s=None``)
    matches the summary-only datasets (Fugaku, Lassen, Adastra) and makes
    every step's cost be release checks and event bounds — exactly the
    paths the heap-vs-scan regression test compares. Shared by the
    frontier-scale gate (``tests/test_contract.py``) and that regression
    test so the two can never drift apart.
    """
    return WorkloadSpec(
        sizes=JobSizeDistribution(min_nodes=1, max_nodes=16),
        runtimes=RuntimeDistribution(
            median_s=3 * 3600.0, sigma=0.5, min_s=1800.0, max_s=8 * 3600.0
        ),
        arrivals=WaveArrivals(rate_per_hour=600.0, amplitude=0.2),
        trace_interval_s=None,
        generate_power_trace=False,
    )


def burst_arrival_spec() -> WorkloadSpec:
    """Thousands of same-tick releases: the post-maintenance drain restart.

    Every four hours the scheduler is handed 3,000 small jobs in a single
    tick — the queue-drain restart after a maintenance window. Sized for
    the 9,600-node ``frontier`` system (3,000 jobs of 1-4 nodes fit in one
    wave), with short multi-phase piecewise-constant profiles
    (``sample_noise=0.0``), so the dominant per-event cost is constructing
    thousands of job power states at once. Shared by the burst-arrival
    gate (``tests/test_contract.py``) and the burst-arrival equivalence
    tests so they can never drift apart.
    """
    return WorkloadSpec(
        sizes=JobSizeDistribution(min_nodes=1, max_nodes=4),
        runtimes=RuntimeDistribution(
            median_s=3600.0, sigma=0.4, min_s=1800.0, max_s=2 * 3600.0
        ),
        arrivals=BurstArrivals(jobs_per_burst=3000, burst_interval_s=4 * 3600.0),
        trace_interval_s=900.0,
        generate_power_trace=False,
        phase_count_range=(2, 4),
        sample_noise=0.0,
    )


class SyntheticWorkloadGenerator:
    """Generate a reproducible synthetic workload for a system.

    Parameters
    ----------
    system:
        The system configuration (node counts cap job sizes; node power
        characteristics drive synthesized power traces).
    spec:
        The workload specification; ``None`` means
        :func:`default_workload_spec` of ``system``.
    seed:
        Seed for the internal :class:`numpy.random.Generator`; an integer
        >= 0 (:func:`repro.units.check_seed`).

    Random draws come from one stream in a fixed order: the per-job scalars
    (submit times, sizes, runtimes, wall limits, queue waits, users,
    priorities) as whole arrays, then the utilization profiles. Scalar
    telemetry (``trace_interval_s=None``) needs one mean per profile, drawn
    as one array; sampled telemetry draws job by job (three means, the phase
    count and edges, then per profile the phase levels and sample noise),
    and the rng-free arithmetic after the draws — clipping, zero-order-hold
    expansion, noise scaling, power traces, compression to change grids —
    runs in a few vectorised passes over every job. A seed therefore always
    yields the same jobs, bit for bit.
    """

    def __init__(
        self,
        system: SystemConfig,
        spec: WorkloadSpec | None = None,
        *,
        seed: int = 0,
    ) -> None:
        self.system = system
        self.spec = spec if spec is not None else default_workload_spec(system)
        self.seed = check_seed(seed)
        if self.spec.sizes.max_nodes > system.total_nodes:
            raise ConfigurationError(
                f"workload max job size {self.spec.sizes.max_nodes} exceeds "
                f"system size {system.total_nodes}"
            )

    # -- public API -----------------------------------------------------------

    def generate(
        self,
        duration_s: float,
        *,
        start_s: float = 0.0,
        include_prehistory: bool = True,
    ) -> list[Job]:
        """Generate jobs whose submit times fall in ``[start, start+duration)``.

        When ``include_prehistory`` is true, an extra slice of jobs submitted
        *before* ``start_s`` (one mean runtime long) is generated as well so
        that the system is busy at window start — the prepopulation behaviour
        the paper calls out as often neglected by scheduling simulators.
        ``duration_s`` must be a finite number >= 0; an empty window yields
        no jobs.
        """
        window_s = check_number(duration_s, "workload window")
        if not 0 <= window_s < math.inf:
            raise ConfigurationError(
                f"workload window must be a finite number of seconds >= 0, got {window_s!r}"
            )
        rng = np.random.default_rng(self.seed)
        spec = self.spec

        prehistory = 0.0
        if include_prehistory:
            prehistory = min(duration_s, 4.0 * spec.runtimes.median_s)
        submit_times = spec.arrivals.sample(
            rng, duration_s + prehistory, start_s=start_s - prehistory
        )
        n = submit_times.size
        if n == 0:
            return []

        nodes = spec.sizes.sample(rng, n)
        runtimes = spec.runtimes.sample(rng, n)
        wall_limits = spec.runtimes.sample_wall_limits(rng, runtimes)
        queue_waits = rng.exponential(scale=spec.runtimes.median_s * 0.25, size=n)
        users, accounts = spec.users.sample_users(rng, n)
        priorities = rng.uniform(*spec.priority_range, size=n)

        # Utilization profiles, job-major in cpu/gpu/mem order (3*i + k),
        # and each job's recorded power trace when the spec asks for one.
        if spec.trace_interval_s is None:
            profiles, power_profiles = self._constant_profiles(rng, runtimes)
        else:
            profiles, power_profiles = self._phased_profiles(
                rng, runtimes, spec.trace_interval_s
            )

        jobs: list[Job] = []
        for i in range(n):
            start_time = float(submit_times[i] + queue_waits[i])
            end_time = float(start_time + runtimes[i])
            cpu_profile, gpu_profile, mem_profile = profiles[3 * i : 3 * i + 3]
            jobs.append(
                Job(
                    nodes_required=int(nodes[i]),
                    submit_time=float(submit_times[i]),
                    start_time=start_time,
                    end_time=end_time,
                    wall_time_limit=float(wall_limits[i]),
                    name=f"synth-{self.system.name}-{i:06d}",
                    user=users[i],
                    account=accounts[i],
                    partition=self.system.partitions[0].name,
                    priority=float(priorities[i]),
                    cpu_util=cpu_profile,
                    gpu_util=gpu_profile,
                    mem_util=mem_profile,
                    node_power=power_profiles[i],
                )
            )
        jobs.sort(key=lambda j: j.submit_time)
        return jobs

    # -- profile synthesis -----------------------------------------------------

    def _constant_profiles(
        self, rng: np.random.Generator, runtimes: np.ndarray
    ) -> tuple[list[Profile], Sequence[Profile | None]]:
        """Scalar telemetry: constant CPU/GPU/memory profiles, job-major,
        and each job's power profile (``None`` without power traces).

        One uniform draw over all 3n means: the same doubles, in the same
        order, as 3n scalar draws. Every profile holds its value as a
        one-element slice of one read-only array, on the ``[0.0]`` grid
        times all constant profiles share.
        """
        spec = self.spec
        n = runtimes.size
        ranges = (spec.cpu_util_range, spec.gpu_util_range, spec.mem_util_range)
        lows, highs = np.tile(np.array(ranges).T, n)
        means = _frozen_view(rng.uniform(lows, highs))
        profiles = [
            _grid_profile(_ZERO_GRID, means[k : k + 1], duration)
            for k, duration in enumerate(np.repeat(runtimes, 3).tolist())
        ]
        if not spec.generate_power_trace:
            return profiles, [None] * n
        watts = _frozen_view(self._power_samples(means[0::3], means[1::3], means[2::3]))
        return profiles, [
            _grid_profile(_ZERO_GRID, watts[i : i + 1], duration)
            for i, duration in enumerate(runtimes.tolist())
        ]

    def _phased_profiles(
        self, rng: np.random.Generator, runtimes: np.ndarray, interval: float
    ) -> tuple[list[Profile], Sequence[Profile | None]]:
        """Piecewise-constant CPU/GPU/memory profiles of every job, job-major,
        and each job's power profile (``None`` without power traces).

        Each profile is sampled every ``interval`` seconds over its job's
        runtime and holds one clipped level per phase; with ``sample_noise``
        on, every sample is jittered and clipped again. Each component's
        samples sit in one row of a ``(3, samples)`` array, job after job,
        aligned with the jobs' concatenated sample times; every row, and the
        power trace evaluated on the raw rows, is compressed to change grids
        in one pass (:func:`_change_grids`).
        """
        spec = self.spec
        n = runtimes.size
        lo, hi = spec.phase_count_range
        n_samples = np.maximum(2, np.ceil(runtimes / interval).astype(np.intp) + 1)
        # ``grid[:k]`` is elementwise ``np.arange(k) * interval``.
        grid = np.arange(int(n_samples.max())) * interval
        noisy = spec.sample_noise != 0.0  # repro-lint: disable=float-compare

        # Raw per-job draws, in stream order.
        means = np.empty(3 * n)
        times_list: list[np.ndarray] = []
        phase_idx_list: list[np.ndarray] = []
        level_raw: list[np.ndarray] = []
        noise_raw: tuple[list[np.ndarray], ...] = ([], [], [])
        phase_counts = np.empty(3 * n, dtype=np.intp)
        for i in range(n):
            runtime_s = float(runtimes[i])
            means[3 * i] = rng.uniform(*spec.cpu_util_range)
            means[3 * i + 1] = rng.uniform(*spec.gpu_util_range)
            means[3 * i + 2] = rng.uniform(*spec.mem_util_range)
            # np.unique drops the duplicate trailing time when the runtime
            # is a multiple of the interval.
            times = np.unique(np.minimum(grid[: n_samples[i]], runtime_s))
            n_phases = int(rng.integers(lo, hi + 1))
            phase_edges = (
                np.sort(rng.random(n_phases - 1)) * runtime_s
                if n_phases > 1
                else np.array([])
            )
            times_list.append(times)
            phase_idx_list.append(np.searchsorted(phase_edges, times, side="right"))
            for component, jitter in enumerate((0.15, 0.2, 0.1)):
                level_raw.append(rng.normal(0.0, jitter, size=n_phases))
                # The noise is drawn even when ``sample_noise`` is 0.0, so
                # the stream (and every later draw of a fixed seed) does not
                # depend on it; it is kept only when it is used.
                noise = rng.normal(0.0, jitter * 0.2, size=times.size)
                if noisy:
                    noise_raw[component].append(noise)
            phase_counts[3 * i : 3 * i + 3] = n_phases

        # One clip over every phase level (mean + per-phase jitter), then
        # zero-order-hold expansion of every profile into its row, then —
        # only when sample noise is on — one clip over every jittered
        # sample. With sample_noise == 0.0 every sample repeats its phase
        # level exactly, so the change grids hold only phase edges.
        levels = np.clip(
            np.repeat(means, phase_counts) + np.concatenate(level_raw), 0.0, 1.0
        )
        level_offsets = np.zeros(3 * n + 1, dtype=np.intp)
        np.cumsum(phase_counts, out=level_offsets[1:])
        job_counts = np.array([times.size for times in times_list], dtype=np.intp)
        samples = levels[
            np.repeat(level_offsets[:-1].reshape(n, 3).T, job_counts, axis=1)
            + np.concatenate(phase_idx_list)
        ]
        if noisy:
            noise = np.concatenate([row for rows in noise_raw for row in rows])
            samples = np.clip(samples + noise.reshape(3, -1) * spec.sample_noise, 0.0, 1.0)
        job_times = np.concatenate(times_list)
        job_offsets = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(job_counts, out=job_offsets[1:])
        # A profile lasts until its job's last sample time (its runtime).
        durations = job_times[job_offsets[1:] - 1].tolist()
        cpu, gpu, mem = (
            _change_grids(job_times, row, job_offsets, durations) for row in samples
        )
        profiles = [profile for triple in zip(cpu, gpu, mem) for profile in triple]
        if not spec.generate_power_trace:
            return profiles, [None] * n
        watts = self._power_samples(*samples)
        return profiles, _change_grids(job_times, watts, job_offsets, durations)

    def _power_samples(
        self, cpu: np.ndarray, gpu: np.ndarray, mem: np.ndarray
    ) -> np.ndarray:
        """Recorded per-node power samples (watts) of utilization samples.

        Evaluates the system's node power model
        (:meth:`~repro.power.NodePowerModel.power_array`), so that
        replaying the recorded power and recomputing it from utilization
        agree — this is what lets the Adastra experiment (Fig. 5) match the
        observed swings exactly.
        """
        return NodePowerModel(self.system.partitions[0].node_power).power_array(
            cpu, gpu, mem
        )


def _change_grids(
    times: np.ndarray,
    values: np.ndarray,
    offsets: np.ndarray,
    durations: list[float],
) -> list[Profile]:
    """The profiles of samples stored back to back in flat arrays.

    Profile ``k`` owns samples ``offsets[k]`` to ``offsets[k + 1]``, its
    first sample at time 0.0, and lasts ``durations[k]``. One ``!=`` over
    the flat values keeps every sample that differs from the one before it,
    plus each profile's first; each profile's change grid is then a
    read-only slice of the kept arrays.
    """
    keep = np.empty(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    keep[offsets[:-1]] = True
    grid_times = _frozen_view(times[keep])
    grid_values = _frozen_view(values[keep])
    bounds = [0, *np.cumsum(np.add.reduceat(keep, offsets[:-1], dtype=np.intp)).tolist()]
    return [
        _grid_profile(grid_times[start:stop], grid_values[start:stop], duration)
        for start, stop, duration in zip(bounds, bounds[1:], durations)
    ]
