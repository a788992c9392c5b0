"""Batch-of-simulations Monte Carlo kernel: N replicas in one process.

A Monte Carlo study runs the *same* system under N seed (or variant)
replicas of a workload. Run serially, every replica re-derives state that
is identical across the batch — the :class:`~repro.config.SystemConfig`,
the :class:`~repro.power.SystemPowerModel` (node models + loss model) and
the job power-state grids.

:class:`BatchSimulationEngine` executes N replicas in one process:

- **one shared instance pool** — one ``SystemConfig`` and one
  ``SystemPowerModel`` serve every replica (the model is stateless over a
  run; see the ``power_model`` kwarg of
  :class:`~repro.engine.engine.SimulationEngine`);
- **one rank-space power-state pass** — the piecewise-constant power grids
  of *every replica's* jobs are prebuilt in a single
  :func:`~repro.power.system_power.build_power_states` call (one union
  grid, one node-power-model evaluation for the whole batch);
  :class:`PrebuiltPowerStateAggregator` then serves each replica's job
  starts from that pool;
- **a shared event loop** — replicas advance through one min-heap over
  their next event times; a replica with no event at ``now`` costs a heap
  pop/push, nothing else.

Every replica is an ordinary :class:`~repro.engine.SimulationEngine` with
its own scheduler, resource manager, queue, stats and cooling state, and
advances through the serial run loop's own iteration — the same
:meth:`~repro.engine.SimulationEngine.step` and the same horizon stop. The
prebuilt power states are bit-identical to ones built at job start, so a
batched replica reproduces its serial twin exactly; the CI bench gate and
the hypothesis property suite check the summaries at 1e-9.

:func:`run_batch` is the :func:`~repro.sweep.run_request`-shaped entry
point the sweep driver's ``batch_size`` fast path and the benchmark
harness use: one :class:`~repro.sweep.RunRequest` plus a seed list, one
:class:`~repro.engine.SimulationResult` per seed.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..cluster import ResourceManager
from ..config import SystemConfig, get_system_config
from ..exceptions import SimulationError
from ..obs.progress import ProgressReporter
from ..power import RunningSetPowerAggregator, SystemPowerModel
from ..power.signals import OperatingSignals
from ..power.system_power import _JobPowerState, build_power_states
from ..telemetry.job import Job
from ..workloads import default_workload_spec
from ..workloads.synthetic import SyntheticWorkloadGenerator
from .engine import SimulationEngine, SimulationResult, resolve_policy_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sweep.request import RunRequest

__all__ = [
    "BatchSimulationEngine",
    "PrebuiltPowerStateAggregator",
    "run_batch",
]

#: Grid arrays of one prebuilt job power state:
#: (times, power_w, cpu_weighted, gpu_weighted).
_GridPool = dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]


class PrebuiltPowerStateAggregator(RunningSetPowerAggregator):
    """A running-set power aggregator fed from a prebuilt grid pool.

    The batch engine evaluates every replica's job power grids in one
    rank-space :func:`~repro.power.system_power.build_power_states` pass up
    front (grids depend only on the job's profiles and node count, not on
    when it starts). This subclass overrides the
    :meth:`~repro.power.RunningSetPowerAggregator._build_states` seam to
    serve job starts from that pool: constructing a
    :class:`~repro.power.system_power._JobPowerState` from pooled arrays
    runs ``__init__`` — which derives ``start`` from the job's (now known)
    ``sim_start_time`` and positions the cursor via ``advance_to`` — so the
    resulting state is bit-identical to one built at start time. Jobs
    absent from the pool (never for batch-generated workloads; a safety
    valve for exotic callers) fall back to the superclass builder for the
    whole group, preserving the accumulation order of the totals.
    """

    def __init__(
        self,
        model: SystemPowerModel,
        resource_manager: ResourceManager,
        pool: _GridPool,
    ) -> None:
        super().__init__(model, resource_manager, batch_states=True)
        self._pool = pool
        #: Job starts served from the prebuilt pool (plain int, folded into
        #: the metrics registry at run finalisation like the other counters).
        self.prebuilt_hits = 0

    def _build_states(
        self, started_jobs: list[Job], now: float
    ) -> list[_JobPowerState]:
        pool = self._pool
        states: list[_JobPowerState] = []
        for job in started_jobs:
            grids = pool.get(job.job_id)
            if grids is None:
                # All-or-nothing fallback keeps the totals' accumulation
                # order identical to a serial run (states in start order).
                return super()._build_states(started_jobs, now)
            states.append(
                _JobPowerState(job, grids[0], grids[1], grids[2], grids[3], now)
            )
        self.prebuilt_hits += len(states)
        return states

    def observability_counters(self) -> dict[str, int]:
        counters = super().observability_counters()
        return {
            **counters,
            "prebuilt_state_hits": self.prebuilt_hits,
        }


class BatchSimulationEngine:
    """Run N replicas of one system in a single process on a shared loop.

    Parameters
    ----------
    system:
        The shared system configuration (one instance for every replica).
    workloads:
        One job list per replica — typically one
        :meth:`~repro.workloads.SyntheticWorkloadGenerator.generate` call
        per seed. Each engine copies its jobs, so lists may be reused.
    scheduler:
        Policy *name* (or ``None`` for the system default). Instances are
        rejected: schedulers are stateful, so each replica constructs its
        own from the registry — sharing one object across replicas would
        break per-replica isolation.
    seeds:
        Per-replica seeds (resource-manager down-node draw and the
        ``seed`` field of each result); defaults to ``range(N)``.
    horizon_s / dense_ticks / event_index / vectorized / signals:
        Forwarded to every replica's engine unchanged. ``signals`` is
        stateless over a run and safely shared.
    power_model:
        Optional pre-built shared model; defaults to one
        :class:`~repro.power.SystemPowerModel` for the whole batch.

    Replica isolation is semantic, not just structural: the batched run of
    replica *i* must produce the result of a serial
    :class:`~repro.engine.SimulationEngine` run with the same inputs (the
    gates compare summaries at 1e-9).
    """

    def __init__(
        self,
        system: SystemConfig,
        workloads: Sequence[list[Job]],
        scheduler: str | None = None,
        *,
        seeds: Sequence[int] | None = None,
        horizon_s: float | None = None,
        dense_ticks: bool = False,
        event_index: bool = True,
        vectorized: bool = True,
        signals: OperatingSignals | None = None,
        power_model: SystemPowerModel | None = None,
    ) -> None:
        if scheduler is not None and not isinstance(scheduler, str):
            raise SimulationError(
                "BatchSimulationEngine requires a policy name (schedulers are "
                "stateful; each replica builds its own instance)"
            )
        if seeds is None:
            seeds = range(len(workloads))
        seeds = [int(seed) for seed in seeds]
        if len(seeds) != len(workloads):
            raise SimulationError(
                f"got {len(workloads)} workloads but {len(seeds)} seeds"
            )
        self.system = system
        self.power_model = (
            power_model if power_model is not None else SystemPowerModel(system)
        )
        self.engines = [
            SimulationEngine(
                system,
                workload,
                scheduler,
                seed=seed,
                horizon_s=horizon_s,
                dense_ticks=dense_ticks,
                event_index=event_index,
                vectorized=vectorized,
                signals=signals,
                power_model=self.power_model,
            )
            for workload, seed in zip(workloads, seeds)
        ]

        # One rank-space pass builds the power-state grids of *all*
        # replicas' jobs (grids depend only on profiles and node counts,
        # not start times; the shared model means one model group, hence
        # one vectorised node-power evaluation for the whole batch).
        jobs_models = [
            (job, self.power_model.node_model(job.partition))
            for engine in self.engines
            for job in engine.jobs
        ]
        pool: _GridPool = {
            state.job.job_id: (
                state.times,
                state.power_w,
                state.cpu_weighted,
                state.gpu_weighted,
            )
            for state in build_power_states(jobs_models, 0.0)
        }
        self.shared_state_builds = 1 if jobs_models else 0
        for engine in self.engines:
            engine.power_aggregator = PrebuiltPowerStateAggregator(
                self.power_model, engine.resource_manager, pool
            )

        self.replicas_total = len(self.engines)
        self.replicas_done = 0

    def observability_counters(self) -> dict[str, int]:
        """Batch-level counters (documented in the README metrics glossary)."""
        return {
            "engine_batch_replicas_total": self.replicas_total,
            "engine_batch_prebuilt_state_hits_total": sum(
                engine.power_aggregator.prebuilt_hits  # type: ignore[attr-defined]
                for engine in self.engines
            ),
            "engine_batch_shared_builds_total": self.shared_state_builds,
        }

    def run(
        self, *, progress: Sequence[ProgressReporter | None] | None = None
    ) -> list[SimulationResult]:
        """Run every replica to completion; results in replica order.

        ``progress`` optionally supplies one
        :class:`~repro.obs.ProgressReporter` per replica; each emits its
        replica's heartbeats (tagged with the batch's done/total counts),
        so a batched sweep task still produces per-run beats.

        The shared loop is a min-heap over per-replica clocks: each
        iteration pops the earliest replica, advances it one (possibly
        coalesced) step and pushes it back — a replica with no event at the
        popped time costs one heap round-trip. Heap order never affects
        results (replicas share no mutable state), it only interleaves
        their progress fairly.
        """
        if progress is not None and len(progress) != len(self.engines):
            raise SimulationError(
                f"got {len(self.engines)} replicas but {len(progress)} "
                "progress reporters"
            )
        engines = self.engines
        results: list[SimulationResult | None] = [None] * len(engines)
        ticks = [0] * len(engines)
        if progress is not None:
            for reporter in progress:
                if reporter is not None:
                    reporter.start()
        heap = [(engine.now, index) for index, engine in enumerate(engines)]
        heapq.heapify(heap)
        while heap:
            _, index = heapq.heappop(heap)
            engine = engines[index]
            # The serial run loop's own iteration: finish or stop at the
            # horizon, else one SimulationEngine.step.
            if not engine._advance(ticks[index]):
                results[index] = self._finalize(engine, index, progress)
                continue
            ticks[index] += 1
            if progress is not None:
                reporter = progress[index]
                if reporter is not None and reporter.due():
                    reporter.report(
                        engine,
                        replica_index=index,
                        replicas_done=self.replicas_done,
                        replicas_total=self.replicas_total,
                    )
            heapq.heappush(heap, (engine.now, index))
        return [result for result in results if result is not None]

    def _finalize(
        self,
        engine: SimulationEngine,
        index: int,
        progress: Sequence[ProgressReporter | None] | None,
    ) -> SimulationResult:
        self.replicas_done += 1
        if progress is not None:
            reporter = progress[index]
            if reporter is not None:
                reporter.report(
                    engine,
                    final=True,
                    replica_index=index,
                    replicas_done=self.replicas_done,
                    replicas_total=self.replicas_total,
                )
        return engine._result()


def run_batch(
    request: "RunRequest",
    seeds: Sequence[int],
    *,
    progress: Sequence[ProgressReporter | None] | None = None,
) -> list[SimulationResult]:
    """Execute one :class:`~repro.sweep.RunRequest` under N seeds, batched.

    The in-process fast path for Monte Carlo replicas: resolves the system,
    policy and workload spec exactly like :func:`~repro.sweep.run_request`,
    generates each seed's workload with the same ``generate`` call and runs
    all replicas on a :class:`BatchSimulationEngine`. ``request.seed`` is
    ignored — each entry of ``seeds`` plays that role for its replica — so
    ``run_batch(request, [a, b])[0]`` must match (within 1e-9 per summary
    metric) ``run_request(replace(request, seed=a))``.
    """
    config = get_system_config(request.system)
    policy = resolve_policy_name(
        request.policy if request.policy is not None else config.default_policy,
        request.backfill,
    )
    if not isinstance(policy, str):  # pragma: no cover - names resolve to names
        raise SimulationError("run_batch requires a policy name")
    spec = request.spec if request.spec is not None else default_workload_spec(config)
    seeds = [int(seed) for seed in seeds]
    workloads = [
        SyntheticWorkloadGenerator(config, spec, seed=seed).generate(
            request.duration_s
        )
        for seed in seeds
    ]
    engine = BatchSimulationEngine(
        config,
        workloads,
        policy,
        seeds=seeds,
        horizon_s=request.horizon_s,
        dense_ticks=request.dense_ticks,
        event_index=request.event_index,
        vectorized=request.vectorized,
        signals=request.signals,
    )
    return engine.run(progress=progress)
