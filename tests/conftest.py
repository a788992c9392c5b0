"""Shared pytest fixtures for the S-RAPS reproduction test-suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import get_system_config
from repro.workloads import SyntheticWorkloadGenerator, WorkloadSpec
from repro.workloads.distributions import JobSizeDistribution, RuntimeDistribution, WaveArrivals

from helpers import make_job


def pytest_addoption(parser):
    parser.addoption(
        "--write-golden",
        action="store_true",
        help="rewrite tests/golden/engine_summary_tiny_seed42.json from the "
        "current engine instead of comparing against it (only for an "
        "intentional semantic change)",
    )


@pytest.fixture
def tiny_system():
    """The 32-node test system."""
    return get_system_config("tiny")


@pytest.fixture
def two_partition_system(tiny_system):
    """A 16-node cpu + 8-node gpu system for partition-aware tests."""
    from repro.config import PartitionConfig, SystemConfig

    node = tiny_system.partitions[0].node_power
    return SystemConfig(
        name="twopart",
        description="two-partition test system",
        partitions=(
            PartitionConfig("cpu", 16, node),
            PartitionConfig("gpu", 8, node),
        ),
        timestep_s=15,
        trace_quantum_s=15,
        default_policy="fcfs",
    )


@pytest.fixture
def rng():
    """A deterministic random generator."""
    return np.random.default_rng(42)


@pytest.fixture
def job_factory():
    """Factory fixture building jobs with sensible defaults."""
    return make_job


@pytest.fixture
def tiny_workload(tiny_system):
    """A small deterministic synthetic workload for the tiny system."""
    spec = WorkloadSpec(
        sizes=JobSizeDistribution(min_nodes=1, max_nodes=16, full_system_fraction=0.02),
        runtimes=RuntimeDistribution(median_s=1800.0, sigma=0.8, min_s=120.0, max_s=14400.0),
        arrivals=WaveArrivals(rate_per_hour=12.0, amplitude=0.4),
        trace_interval_s=60.0,
        generate_power_trace=True,
    )
    generator = SyntheticWorkloadGenerator(tiny_system, spec, seed=7)
    return generator.generate(6 * 3600.0)
