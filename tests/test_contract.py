"""The engine's result gates: the golden summary and dense-vs-event drift.

Two gates guard what the twin computes, and they are not interchangeable:

* **The golden record** (``golden/engine_summary_tiny_seed42.json``) pins
  the summary of one fixed-seed run — ``tiny``, EASY backfill, the default
  24 h workload, seed 42 — at 1e-6 relative, bare and under every
  instrument. It moves only when the simulation's meaning changes; run
  ``pytest --write-golden`` to accept such a change.
* **Dense vs event** runs five workloads both ways — the engine, and the
  tests' one-tick :class:`helpers.DenseEngine` — and holds every summary
  metric of the event-driven run within 1e-9 of dense ticking, and the
  dense series to be the event series expanded, with ``==``
  (:func:`helpers.assert_dense_expands_event`). This is the engine's
  contract and is never refreshed: if it fires, the optimisation is wrong,
  not the reference. The power-cap case also checks that a
  constant cap is never exceeded and does bind, and the frontier-scale
  case that the workload keeps its >= 1,000 concurrently running jobs.
  The two-partition gate holds the same contract on a 16 cpu + 8 gpu
  system, with jobs of each partition and of an unregistered one (which
  run in cpu), under all three policies, uncapped and capped, every run
  through :func:`helpers.run_checked`; every started job's nodes lie in
  the partition whose node model prices it.

Drift is :func:`helpers.summary_drifts`: symmetric over the metric keys,
non-finite values in one bucket, ``ticks`` excluded.
"""

from __future__ import annotations

import io
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro import run_simulation
from repro.config import get_system_config
from repro.engine import SimulationEngine, parse_duration
from repro.engine.stats import json_safe
from repro.obs import MetricsRegistry, Observability, ProgressReporter, SpanTracer
from repro.power import OperatingSignals, SystemPowerModel
from repro.workloads import (
    SyntheticWorkloadGenerator,
    WorkloadSpec,
    burst_arrival_spec,
    busy_trace_spec,
    frontier_scale_spec,
    idle_heavy_spec,
)
from repro.workloads.distributions import (
    JobSizeDistribution,
    PoissonArrivals,
    RuntimeDistribution,
)

from helpers import (
    DenseEngine,
    assert_dense_expands_event,
    run_checked,
    stream_event_log,
    summary_drifts,
    two_partition_system,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "engine_summary_tiny_seed42.json"

#: Relative tolerance written into a refreshed golden record.
GOLDEN_RTOL = 1e-6

#: The dense-vs-event contract.
EQUIVALENCE_RTOL = 1e-9

SEED = 42

#: The golden run, in the record's own header fields.
GOLDEN_RUN = {
    "benchmark": "engine_24h_window",
    "system": "tiny",
    "policy": "backfill",
    "duration": "24h",
    "seed": SEED,
}

#: case -> (system, workload spec, policy, duration). ``power_cap`` is the
#: busy trace under a binding cap plus price and carbon steps. FCFS keeps
#: each burst starting in one tick (nothing blocks), so the burst case
#: isolates the per-start cost of job power states.
DENSE_VS_EVENT = {
    "idle_heavy": ("tiny", idle_heavy_spec, "backfill", "3d"),
    "busy_trace": ("tiny", busy_trace_spec, "backfill", "24h"),
    "power_cap": ("tiny", busy_trace_spec, "backfill", "24h"),
    "frontier_scale": ("frontier", frontier_scale_spec, "backfill", "12h"),
    "burst_arrival": ("frontier", burst_arrival_spec, "fcfs", "12h"),
}


def _over(drifts: dict[str, float], rtol: float) -> dict[str, float]:
    return {key: drift for key, drift in drifts.items() if not drift <= rtol}


@pytest.mark.parametrize("instrumented", [False, True], ids=["bare", "instrumented"])
def test_golden_summary(instrumented: bool, request: pytest.FixtureRequest) -> None:
    obs = None
    if instrumented:
        obs = Observability(
            tracer=SpanTracer(),
            metrics=MetricsRegistry(),
            events=stream_event_log(io.StringIO()),
            progress=ProgressReporter(interval_s=0.0, callback=lambda snapshot: None),
        )
    try:
        summary = run_simulation(
            GOLDEN_RUN["system"],
            policy=GOLDEN_RUN["policy"],
            duration=GOLDEN_RUN["duration"],
            seed=SEED,
            obs=obs,
        ).summary()
    finally:
        if obs is not None and obs.events is not None:
            obs.events.close()
    if request.config.getoption("--write-golden") and not instrumented:
        payload = {**GOLDEN_RUN, "rtol": GOLDEN_RTOL, "summary": summary}
        GOLDEN_PATH.write_text(
            json.dumps(json_safe(payload), indent=2, allow_nan=False) + "\n"
        )
        return
    golden = json.loads(GOLDEN_PATH.read_text())
    assert {key: golden[key] for key in GOLDEN_RUN} == GOLDEN_RUN
    drifted = _over(summary_drifts(summary, golden["summary"]), golden["rtol"])
    assert not drifted, (
        "golden summary drift "
        + ", ".join(
            f"{key}: golden {golden['summary'].get(key)!r} vs run {summary.get(key)!r}"
            for key in drifted
        )
        + "; refresh with `pytest --write-golden` only for an intentional "
        "semantic change"
    )


def _cap_signals(system, jobs, policy: str, duration_s: float) -> OperatingSignals:
    """A cap at 70% of the uncapped run's compute peak, price x3 mid-window.

    70% binds hard without starving the queue, and self-scales if the
    workload or the system ever changes.
    """
    uncapped = SimulationEngine(system, jobs, policy, seed=SEED).run()
    cap_kw = 0.7 * float(uncapped.stats.column("compute_power_kw").max())
    third_s = duration_s / 3.0
    return OperatingSignals(
        power_cap_kw=((0.0, cap_kw),),
        price_per_kwh=((0.0, 0.08), (third_s, 0.24), (2.0 * third_s, 0.08)),
        carbon_kg_per_kwh=((0.0, 0.35),),
    )


@pytest.mark.parametrize("case", list(DENSE_VS_EVENT))
def test_dense_matches_event(case: str) -> None:
    system_name, spec, policy, duration = DENSE_VS_EVENT[case]
    system = get_system_config(system_name)
    duration_s = parse_duration(duration)
    jobs = SyntheticWorkloadGenerator(system, spec(), seed=SEED).generate(duration_s)
    signals = _cap_signals(system, jobs, policy, duration_s) if case == "power_cap" else None
    dense = DenseEngine(system, jobs, policy, seed=SEED, signals=signals).run()
    event = SimulationEngine(system, jobs, policy, seed=SEED, signals=signals).run()
    summary = event.summary()
    assert not _over(summary_drifts(summary, dense.summary()), EQUIVALENCE_RTOL)
    assert_dense_expands_event(dense, event)
    if case == "power_cap":
        # The admission check is exact, so a constant cap is never
        # exceeded; and the cap must bind, or this is an uncapped rerun.
        assert summary["cap_violation_kwh"] == 0.0
        assert summary["capped_hold_s"] > 0.0
    if case == "frontier_scale":
        assert event.stats.column("running_jobs").max() >= 1000


#: Seed of the two-partition gate's workload.
TWO_PARTITION_SEED = 2

#: Largest request per partition of the two-partition gate; ``debug`` is
#: not registered there, so its jobs run in ``cpu``, the first partition.
TWO_PARTITION_NODES = {"cpu": 16, "gpu": 8, "debug": 16}


def _two_partition_jobs(system) -> list:
    """60 jobs with 5-minute phases, cycling through cpu, gpu and debug."""
    spec = WorkloadSpec(
        sizes=JobSizeDistribution(min_nodes=1, max_nodes=16, full_system_fraction=0.0),
        runtimes=RuntimeDistribution(median_s=1800.0, sigma=0.8, min_s=120.0, max_s=7200.0),
        arrivals=PoissonArrivals(rate_per_hour=30.0),
        trace_interval_s=300.0,
    )
    generator = SyntheticWorkloadGenerator(system, spec, seed=TWO_PARTITION_SEED)
    jobs = generator.generate(3 * 3600.0)[:60]
    assert len(jobs) == 60
    partitions = list(TWO_PARTITION_NODES)
    return [
        replace(
            job,
            partition=partitions[i % 3],
            nodes_required=min(job.nodes_required, TWO_PARTITION_NODES[partitions[i % 3]]),
        )
        for i, job in enumerate(jobs)
    ]


@pytest.mark.parametrize("capped", [False, True], ids=["uncapped", "capped"])
@pytest.mark.parametrize("policy", ["replay", "fcfs", "backfill"])
def test_two_partition_dense_matches_event(policy: str, capped: bool) -> None:
    system = two_partition_system()
    jobs = _two_partition_jobs(system)
    signals = None
    if capped:
        # A constant cap at 80% of the uncapped compute peak binds.
        uncapped = SimulationEngine(system, jobs, policy).run()
        cap_kw = 0.8 * float(uncapped.stats.column("compute_power_kw").max())
        signals = OperatingSignals(power_cap_kw=((0.0, cap_kw),))
    dense = run_checked(system, jobs, policy, dense=True, signals=signals)
    event = run_checked(system, jobs, policy, signals=signals)
    summary = event.summary()
    assert not _over(summary_drifts(summary, dense.summary()), EQUIVALENCE_RTOL)
    assert_dense_expands_event(dense, event)
    if capped:
        assert summary["cap_violation_kwh"] == 0.0
        assert summary["capped_hold_s"] > 0.0


@pytest.mark.parametrize("policy", ["replay", "fcfs", "backfill"])
def test_two_partition_runs_lie_in_their_priced_partition(policy: str) -> None:
    # The power model prices a job with one partition's node model; the
    # job's nodes must all belong to that partition.
    system = two_partition_system()
    result = SimulationEngine(system, _two_partition_jobs(system), policy).run()
    model = SystemPowerModel(system)
    partition_of_node = {
        nid: partition.name
        for partition in system.partitions
        for nid in system.partition_node_range(partition.name)
    }
    started = [run for run in result.jobs if run.assigned_nodes]
    assert len(started) == len(result.jobs)
    misplaced = [
        run.job_id
        for run in started
        if any(
            model.node_model(partition_of_node[nid])
            is not model.node_model(run.job.partition)
            for nid in run.assigned_nodes
        )
    ]
    assert misplaced == []
