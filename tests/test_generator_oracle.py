"""The workload generator against its per-job reference implementation.

``serial_generate`` below is the generator's original body: every job's
profiles are drawn and built one job at a time through the validating
``Profile`` constructor, and each power trace is evaluated sample by sample
with the scalar :meth:`NodePowerModel.power`. ``SyntheticWorkloadGenerator
.generate`` takes the same random draws in the same order but draws
scalar-telemetry means as one array, vectorises the arithmetic after the
draws, evaluates power traces with ``power_array`` and compresses every
profile to its change grid in one pass without re-validating it; it formats
each account from the drawn user index, where the reference parses it back
out of the user name (:func:`account_of`). It must produce the same jobs
bit for bit: every scalar field, every profile's change grid and duration,
and the job order.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import get_system_config
from repro.power import NodePowerModel
from repro.telemetry import Job, Profile
from repro.workloads import (
    SyntheticWorkloadGenerator,
    burst_arrival_spec,
    busy_trace_spec,
    default_workload_spec,
    frontier_scale_spec,
)

PROFILE_FIELDS = ("cpu_util", "gpu_util", "mem_util", "node_power")
#: The job id comes from a process-wide counter, so two generations of the
#: same seed never share ids.
SCALAR_FIELDS = tuple(
    f.name
    for f in dataclasses.fields(Job)
    if f.name not in PROFILE_FIELDS and f.name != "job_id"
)


def account_of(user: str, n_accounts: int) -> str:
    """The reference user -> account rule: the digits of the user's name,
    modulo the account count (the generator formats both from the drawn
    user index instead)."""
    digits = int("".join(ch for ch in user if ch.isdigit()) or 0)
    return f"acct{digits % n_accounts:03d}"


def _serial_samples(generator, rng, runtime_s):
    """One job's raw sample times and CPU/GPU/memory samples, drawn one at
    a time."""
    spec = generator.spec
    cpu_mean = rng.uniform(*spec.cpu_util_range)
    gpu_mean = rng.uniform(*spec.gpu_util_range)
    mem_mean = rng.uniform(*spec.mem_util_range)

    if spec.trace_interval_s is None:
        times = [0.0, float(runtime_s)] if runtime_s > 0 else [0.0]
        return times, *([mean] * len(times) for mean in (cpu_mean, gpu_mean, mem_mean))

    interval = spec.trace_interval_s
    n_samples = max(2, int(np.ceil(runtime_s / interval)) + 1)
    times = np.unique(np.minimum(np.arange(n_samples) * interval, runtime_s))

    n_phases = int(rng.integers(spec.phase_count_range[0], spec.phase_count_range[1] + 1))
    phase_edges = (
        np.sort(rng.random(n_phases - 1)) * runtime_s if n_phases > 1 else np.array([])
    )
    phase_idx = np.searchsorted(phase_edges, times, side="right")

    def phased(mean, jitter):
        phase_levels = np.clip(mean + rng.normal(0.0, jitter, size=n_phases), 0.0, 1.0)
        noise = rng.normal(0.0, jitter * 0.2, size=times.size) * spec.sample_noise
        return np.clip(phase_levels[phase_idx] + noise, 0.0, 1.0).tolist()

    return times, phased(cpu_mean, 0.15), phased(gpu_mean, 0.2), phased(mem_mean, 0.1)


def serial_generate(generator, duration_s, *, start_s=0.0, include_prehistory=True):
    """The reference generator: ``generate()`` built one job at a time."""
    rng = np.random.default_rng(generator.seed)
    spec = generator.spec
    system = generator.system

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
    users, _ = spec.users.sample_users(rng, n)
    priorities = rng.uniform(*spec.priority_range, size=n)

    node_model = NodePowerModel(system.partitions[0].node_power)
    jobs = []
    for i in range(n):
        start_time = float(submit_times[i] + queue_waits[i])
        end_time = float(start_time + runtimes[i])
        user = users[i]
        times, cpu, gpu, mem = _serial_samples(generator, rng, float(runtimes[i]))
        cpu_profile, gpu_profile, mem_profile = (
            Profile(times, samples) for samples in (cpu, gpu, mem)
        )
        power_profile = None
        if spec.generate_power_trace:
            power_profile = Profile(
                times, [node_model.power(*sample) for sample in zip(cpu, gpu, mem)]
            )
        jobs.append(
            Job(
                nodes_required=int(nodes[i]),
                submit_time=float(submit_times[i]),
                start_time=start_time,
                end_time=end_time,
                wall_time_limit=float(wall_limits[i]),
                name=f"synth-{system.name}-{i:06d}",
                user=user,
                account=account_of(user, spec.users.n_accounts),
                partition=system.partitions[0].name,
                priority=float(priorities[i]),
                cpu_util=cpu_profile,
                gpu_util=gpu_profile,
                mem_util=mem_profile,
                node_power=power_profile,
            )
        )
    jobs.sort(key=lambda j: j.submit_time)
    return jobs


def _assert_same_array(got, want, label):
    assert got.dtype == want.dtype, label
    assert got.shape == want.shape, label
    assert got.tobytes() == want.tobytes(), label


def _assert_same_profile(got, want, label):
    if want is None:
        assert got is None, label
        return
    assert repr(got.duration) == repr(want.duration), f"{label}.duration"
    for name, got_grid, want_grid in zip(
        ("grid_times", "grid_values"), got.change_grid(), want.change_grid()
    ):
        _assert_same_array(got_grid, want_grid, f"{label}.{name}")


def _assert_same_jobs(got, want):
    assert len(got) == len(want)
    for index, (got_job, want_job) in enumerate(zip(got, want)):
        label = f"job {index} ({want_job.name})"
        for name in SCALAR_FIELDS:
            got_value, want_value = getattr(got_job, name), getattr(want_job, name)
            # repr tells -0.0 from 0.0 and round-trips every float exactly.
            assert type(got_value) is type(want_value), f"{label}.{name}"
            assert repr(got_value) == repr(want_value), f"{label}.{name}"
        for name in PROFILE_FIELDS:
            _assert_same_profile(
                getattr(got_job, name), getattr(want_job, name), f"{label}.{name}"
            )


def _small_burst_spec(system):
    """The burst-arrival spec with one 400-job burst in the window, not 3,000."""
    spec = burst_arrival_spec()
    return dataclasses.replace(
        spec, arrivals=dataclasses.replace(spec.arrivals, jobs_per_burst=400)
    )


#: (system, spec factory, generated window in seconds) per spec; the
#: frontier-sized windows hold about 400 jobs each.
SPECS = {
    "default": ("tiny", default_workload_spec, 6 * 3600.0),
    "busy_trace": ("tiny", lambda system: busy_trace_spec(), 6 * 3600.0),
    "frontier_scale": ("frontier", lambda system: frontier_scale_spec(), 1200.0),
    "burst_arrival": ("frontier", _small_burst_spec, 1200.0),
}


@pytest.mark.parametrize("seed", [0, 7, 42])
@pytest.mark.parametrize("sample_noise", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("spec_name", sorted(SPECS))
def test_generate_matches_serial_reference(spec_name, sample_noise, seed):
    system_name, make_spec, duration_s = SPECS[spec_name]
    system = get_system_config(system_name)
    spec = dataclasses.replace(make_spec(system), sample_noise=sample_noise)
    for power_trace in (False, True):
        generator = SyntheticWorkloadGenerator(
            system,
            dataclasses.replace(spec, generate_power_trace=power_trace),
            seed=seed,
        )
        got = generator.generate(duration_s)
        assert got, "the window must hold jobs for the comparison to mean anything"
        _assert_same_jobs(got, serial_generate(generator, duration_s))


def test_generate_without_prehistory_matches_serial_reference(tiny_system):
    generator = SyntheticWorkloadGenerator(
        tiny_system, default_workload_spec(tiny_system), seed=3
    )
    _assert_same_jobs(
        generator.generate(3 * 3600.0, start_s=900.0, include_prehistory=False),
        serial_generate(generator, 3 * 3600.0, start_s=900.0, include_prehistory=False),
    )


def test_empty_window_matches_serial_reference(tiny_system):
    generator = SyntheticWorkloadGenerator(tiny_system, busy_trace_spec(), seed=1)
    assert generator.generate(0.0) == serial_generate(generator, 0.0) == []
