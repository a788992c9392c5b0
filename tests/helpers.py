"""Shared test helpers, importable absolutely from any test module.

Kept separate from ``conftest.py`` (which pytest reserves for fixtures and
hooks) so test modules can do ``from helpers import make_job`` without
relying on package-relative imports.
"""

from __future__ import annotations

from repro.power import RunningSetPowerAggregator
from repro.power.system_power import _JobPowerState
from repro.telemetry import Job, Profile, constant_profile

__all__ = ["PerJobStatesAggregator", "make_job"]


def make_job(
    *,
    nodes: int = 1,
    submit: float = 0.0,
    start: float = 0.0,
    duration: float = 600.0,
    cpu: float = 0.5,
    gpu: float = 0.0,
    mem: float = 0.2,
    user: str = "user001",
    account: str = "acct001",
    priority: float = 0.0,
    partition: str = "batch",
    wall_limit: float | None = None,
    recorded_nodes: tuple[int, ...] = (),
    node_power: Profile | None = None,
    cpu_profile: Profile | None = None,
    gpu_profile: Profile | None = None,
    mem_profile: Profile | None = None,
) -> Job:
    """Construct a simple job for tests.

    Utilization defaults to constant profiles at the ``cpu``/``gpu``/``mem``
    levels; pass an explicit ``*_profile`` to exercise time-varying
    telemetry.
    """
    return Job(
        nodes_required=nodes,
        submit_time=submit,
        start_time=start,
        end_time=start + duration,
        wall_time_limit=wall_limit,
        user=user,
        account=account,
        priority=priority,
        partition=partition,
        recorded_nodes=recorded_nodes,
        cpu_util=cpu_profile if cpu_profile is not None else constant_profile(cpu, duration),
        gpu_util=gpu_profile if gpu_profile is not None else constant_profile(gpu, duration),
        mem_util=mem_profile if mem_profile is not None else constant_profile(mem, duration),
        node_power=node_power,
    )


class PerJobStatesAggregator(RunningSetPowerAggregator):
    """Reference aggregator: every started job's state built by ``for_job``.

    The engine's aggregator builds the states of jobs starting together in
    one vectorised :func:`~repro.power.system_power.build_power_states`
    pass. Swap this one into an engine before ``run()`` to get the per-job
    construction it must agree with.
    """

    def _build_states(
        self, started_jobs: list[Job], now: float
    ) -> list[_JobPowerState]:
        return [
            _JobPowerState.for_job(job, self._model.node_model(job.partition), now)
            for job in started_jobs
        ]
