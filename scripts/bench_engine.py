#!/usr/bin/env python
"""Benchmark the simulation engine and guard its summary metrics.

Two fixed-seed benchmarks are timed (workload synthesis excluded) and the
numbers written to ``BENCH_engine.json`` in the repository root:

``engine_24h_window``
    The historical end-to-end benchmark: a busy 24 h synthetic window under
    EASY backfill, run through the default (event-driven) engine.

``engine_idle_heavy_3d``
    A sparse 3-day window (rare, short, constant-power jobs) run twice —
    dense ticks vs event-driven — demonstrating the step reduction the
    event-driven engine gets from coalescing idle time.

``engine_busy_trace_24h``
    A continuously busy 24 h window of multi-phase piecewise-constant
    profiles under EASY backfill, run dense vs event-driven — demonstrating
    the step reduction breakpoint-bounded coalescing gets on exactly the
    telemetry-replay-shaped workloads where the old constant-power veto
    forced dense ticking.

``engine_frontier_scale``
    A 12 h window on the 9,600-node ``frontier`` system holding ~2,000
    concurrently running jobs, run dense vs event-driven. The event-driven
    step takes its release and breakpoint bounds from heaps, so its cost
    does not scale with the running-set size.

``engine_burst_arrival``
    Thousands of same-tick releases on ``frontier`` (the post-maintenance
    queue-drain restart: 3,000 jobs per burst) under FCFS, run dense vs
    event-driven. One refresh builds thousands of job power states, so the
    per-start cost of a power state dominates.

``engine_power_cap``
    The busy-trace window re-run under operating signals: a binding IT
    power cap (sized at 70% of the uncapped run's compute-power peak, so
    it self-scales with the workload), a stepped electricity price and a
    constant carbon intensity. Run dense vs event-driven, gated at 1e-9
    like every other equivalence pair, plus two semantic gates of its own:
    the constant cap must never be violated (``cap_violation_kwh == 0`` —
    the scheduler's admission check is exact, not best-effort) and the cap
    must actually bind (``capped_hold_s > 0``), so the benchmark can never
    silently degrade into an uncapped rerun.

``engine_sweep_throughput``
    A 64-run scenario-sweep grid on the tiny system (2 policies x 2
    workload variants x 16 seeds), executed through ``repro.sweep`` twice:
    single-worker in-process, then fanned over a process pool. Records
    runs/s for both legs plus speedup and parallel efficiency (speedup /
    workers; ``cpu_count`` is recorded so single-core runners are
    self-explaining), and gates — at the same 1e-9 — that the pooled
    store matches the single-process store metric for metric and that the
    public ``run_simulation`` shim reproduces stored rows.

The script doubles as the CI metrics gate: ``--golden PATH`` compares the
24 h run's summary against a committed golden record and exits non-zero on
drift beyond 1e-6 relative tolerance; ``--write-golden PATH`` refreshes the
record after an intentional semantic change. Independently of the golden
record, the dense-vs-event summary drift of the idle-heavy, busy-trace,
frontier-scale, burst-arrival and power-cap benchmarks is gated at 1e-9
relative — the equivalence guarantee is part of the engine's contract, so
CI fails if coalescing ever changes a metric. The frontier-scale benchmark
additionally requires >= 1000 concurrently running jobs, so the workload
can never silently shrink below the scale the benchmark exists to cover.
The tests check the event indexes against running-set scans
(``tests/test_engine.py``) and every job power state against the scanning
power model (``tests/test_power.py``).

Two tooling extras ride along:

``--profile [PATH]``
    Re-run each benchmark's event-driven engine under cProfile after the
    timed runs and write, per benchmark, a per-phase wall-time table (from
    a span-traced run) followed by the top functions (by cumulative time)
    to PATH (default ``BENCH_profile.txt`` next to the record) — uploaded
    as a CI artifact next to ``BENCH_engine.json``.

Per-phase breakdown
    Every benchmark record carries a ``phase_breakdown`` section — wall
    seconds, call count, mean microseconds and share per engine phase
    (``schedule`` / ``coalesce`` / ``power`` / ``cooling`` / ``stats``) —
    measured on a separate span-traced run after the timed ones, so the
    recorded wall numbers stay uninstrumented.

The wall times in the record are single-shot and host-dependent; they are
not compared against earlier records. ``perfbench/run.py`` is the timer
for performance comparisons.

Usage::

    PYTHONPATH=src python scripts/bench_engine.py [--system tiny] \
        [--golden tests/golden/engine_summary_tiny_seed42.json]
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from pathlib import Path

from repro.config import get_system_config
from repro.engine import SimulationEngine, parse_duration
from repro.engine.stats import json_safe
from repro.power import OperatingSignals
from repro.obs import Observability, SpanTracer
from repro.workloads import (
    SyntheticWorkloadGenerator,
    burst_arrival_spec,
    busy_trace_spec,
    default_workload_spec,
    frontier_scale_spec,
    idle_heavy_spec,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Relative tolerance for the golden-summary drift check.
GOLDEN_RTOL = 1e-6

#: Relative tolerance for the dense-vs-event-driven equivalence gate.
EQUIVALENCE_RTOL = 1e-9

#: (label, thunk) pairs collected by the bench functions for ``--profile``.
#: Only populated when profiling was requested — the thunks close over whole
#: workloads, which would otherwise be pinned in memory for the full run.
#: Each thunk returns the run's :class:`SpanTracer`, so the profile report
#: can print a per-phase wall-time table next to the cProfile top functions.
PROFILE_TARGETS: list = []


def _timed_run(system, workload, policy, seed, *, dense_ticks=False, signals=None):
    engine = SimulationEngine(
        system, workload, policy, seed=seed, dense_ticks=dense_ticks,
        signals=signals,
    )
    started = time.perf_counter()
    result = engine.run()
    elapsed = time.perf_counter() - started
    summary = result.summary()
    steps = summary["ticks"]
    return summary, {
        "wall_s": elapsed,
        "steps": steps,
        "steps_per_s": steps / elapsed if elapsed > 0 else 0.0,
        "wall_us_per_step": 1e6 * elapsed / steps if steps else 0.0,
        "max_running_jobs": (
            int(result.stats.column("running_jobs").max())
            if len(result.stats.ticks)
            else 0
        ),
        "simulated_s": summary["simulated_s"],
        "speedup_vs_realtime": summary["simulated_s"] / elapsed if elapsed > 0 else 0.0,
    }


def _traced_run(system, workload, policy, seed, **engine_kwargs):
    """One span-traced engine run; returns the tracer (aggregates only).

    Always a separate run *after* the timed measurements: the timed runs
    stay uninstrumented (``obs=None``), so tracer overhead — small, but two
    clock reads per phase — never pollutes the recorded wall numbers.
    """
    tracer = SpanTracer(keep_events=False)
    engine = SimulationEngine(
        system, workload, policy, seed=seed,
        obs=Observability(tracer=tracer), **engine_kwargs,
    )
    engine.run()
    return tracer


def _phase_breakdown(system, workload, policy, seed, **engine_kwargs) -> dict:
    """Per-phase wall-time report of one traced event-driven run."""
    tracer = _traced_run(system, workload, policy, seed, **engine_kwargs)
    return tracer.phase_report()


def _phase_table(report: dict) -> str:
    """The phase report as an aligned text table (profile output)."""
    lines = [f"{'phase':<10} {'wall_s':>10} {'calls':>10} {'mean_us':>10} {'share':>7}"]
    for name, row in report.items():
        share = f"{row['share']:.1%}" if "share" in row else "-"
        lines.append(
            f"{name:<10} {row['wall_s']:>10.4f} {row['calls']:>10.0f} "
            f"{row['mean_us']:>10.1f} {share:>7}"
        )
    return "\n".join(lines)


def bench_24h_window(args, system):
    duration_s = parse_duration(args.duration)
    generator = SyntheticWorkloadGenerator(
        system, default_workload_spec(system), seed=args.seed
    )
    workload = generator.generate(duration_s)

    summary = None
    runs = []
    for _ in range(args.repeats):
        summary, run = _timed_run(system, workload, args.policy, args.seed)
        runs.append(run)
    best = min(runs, key=lambda r: r["wall_s"])
    record = {
        "benchmark": "engine_24h_window",
        "system": system.name,
        "policy": args.policy,
        "mode": "event-driven",
        "duration": args.duration,
        "seed": args.seed,
        "jobs": len(workload),
        "repeats": args.repeats,
        "best": best,
        "runs": runs,
        "phase_breakdown": _phase_breakdown(system, workload, args.policy, args.seed),
    }
    if args.profile:
        PROFILE_TARGETS.append((
            "engine_24h_window (event-driven)",
            lambda: _traced_run(system, workload, args.policy, args.seed),
        ))
    print(
        f"{system.name}/{args.policy}: {len(workload)} jobs, "
        f"{best['steps']:.0f} steps in {best['wall_s']:.3f}s "
        f"({best['speedup_vs_realtime']:.0f}x realtime)"
    )
    return record, summary


def _bench_dense_vs_event(
    benchmark, label, args, system, spec, duration, policy=None
):
    """Time one workload dense vs event-driven and record the comparison."""
    policy = policy or args.policy
    duration_s = parse_duration(duration)
    generator = SyntheticWorkloadGenerator(system, spec, seed=args.seed)
    workload = generator.generate(duration_s)

    dense_summary, dense = _timed_run(
        system, workload, policy, args.seed, dense_ticks=True
    )
    event_summary, event = _timed_run(system, workload, policy, args.seed)

    drift = _summary_drift(event_summary, dense_summary)
    step_reduction = dense["steps"] / event["steps"] if event["steps"] else math.inf
    if args.profile:
        PROFILE_TARGETS.append((
            f"{benchmark} (event-driven)",
            lambda: _traced_run(system, workload, policy, args.seed),
        ))
    record = {
        "benchmark": benchmark,
        "system": system.name,
        "policy": policy,
        "duration": duration,
        "seed": args.seed,
        "jobs": len(workload),
        "max_running_jobs": event["max_running_jobs"],
        "mean_utilization": event_summary["mean_utilization"],
        "dense": dense,
        "event_driven": event,
        "phase_breakdown": _phase_breakdown(system, workload, policy, args.seed),
        "step_reduction": step_reduction,
        "wall_speedup": dense["wall_s"] / event["wall_s"] if event["wall_s"] else math.inf,
        "max_summary_drift_rel": drift,
    }
    print(
        f"{label}: {len(workload)} jobs over {duration}, "
        f"{event['max_running_jobs']} max concurrent, "
        f"{dense['steps']:.0f} dense steps -> {event['steps']:.0f} event steps "
        f"({step_reduction:.0f}x fewer, {record['wall_speedup']:.1f}x faster wall, "
        f"{event['wall_us_per_step']:.0f}us/step, summary drift {drift:.2e})"
    )
    return record


def bench_idle_heavy(args, system):
    return _bench_dense_vs_event(
        "engine_idle_heavy_3d", "idle-heavy", args, system,
        idle_heavy_spec(), args.idle_duration,
    )


def bench_busy_trace(args, system):
    return _bench_dense_vs_event(
        "engine_busy_trace_24h", "busy-trace", args, system,
        busy_trace_spec(), args.busy_duration,
    )


def bench_power_cap(args, system):
    """The busy-trace window under a binding cap plus price/carbon steps."""
    duration_s = parse_duration(args.busy_duration)
    generator = SyntheticWorkloadGenerator(system, busy_trace_spec(), seed=args.seed)
    workload = generator.generate(duration_s)

    # Size the cap from an uncapped reference run: 70% of the observed
    # compute-power peak binds hard without starving the whole queue, and
    # self-scales if the workload or system ever changes.
    reference = SimulationEngine(system, workload, args.policy, seed=args.seed).run()
    cap_kw = 0.7 * float(reference.stats.column("compute_power_kw").max())
    third_s = duration_s / 3.0
    signals = OperatingSignals(
        power_cap_kw=((0.0, cap_kw),),
        price_per_kwh=((0.0, 0.08), (third_s, 0.24), (2.0 * third_s, 0.08)),
        carbon_kg_per_kwh=((0.0, 0.35),),
    )

    dense_summary, dense = _timed_run(
        system, workload, args.policy, args.seed, dense_ticks=True, signals=signals
    )
    event_summary, event = _timed_run(
        system, workload, args.policy, args.seed, signals=signals
    )
    drift = _summary_drift(event_summary, dense_summary)
    if args.profile:
        PROFILE_TARGETS.append((
            "engine_power_cap (event-driven)",
            lambda: _traced_run(
                system, workload, args.policy, args.seed, signals=signals
            ),
        ))
    record = {
        "benchmark": "engine_power_cap",
        "system": system.name,
        "policy": f"power_cap({args.policy})",
        "duration": args.busy_duration,
        "seed": args.seed,
        "jobs": len(workload),
        "power_cap_kw": cap_kw,
        "uncapped_peak_compute_kw": cap_kw / 0.7,
        "mean_utilization": event_summary["mean_utilization"],
        "energy_cost": event_summary["energy_cost"],
        "carbon_kg": event_summary["carbon_kg"],
        "cap_violation_kwh": event_summary["cap_violation_kwh"],
        "capped_hold_s": event_summary["capped_hold_s"],
        "jobs_completed": event_summary["jobs_completed"],
        "dense": dense,
        "event_driven": event,
        "step_reduction": dense["steps"] / event["steps"] if event["steps"] else math.inf,
        "wall_speedup": dense["wall_s"] / event["wall_s"] if event["wall_s"] else math.inf,
        "max_summary_drift_rel": drift,
    }
    print(
        f"power-cap: {len(workload)} jobs capped at {cap_kw:.1f} kW, "
        f"{event_summary['capped_hold_s']:.0f} job-s held, "
        f"{event_summary['cap_violation_kwh']:.3f} kWh over cap, "
        f"cost {event_summary['energy_cost']:.2f} / {event_summary['carbon_kg']:.0f} kg CO2, "
        f"summary drift {drift:.2e}"
    )
    return record


def bench_frontier_scale(args):
    return _bench_dense_vs_event(
        "engine_frontier_scale", "frontier-scale", args,
        get_system_config(args.frontier_system), frontier_scale_spec(),
        args.frontier_duration,
    )


def bench_burst_arrival(args):
    # FCFS keeps the whole burst starting in one tick (nothing blocks), so
    # the benchmark isolates the per-event start cost of job power states.
    return _bench_dense_vs_event(
        "engine_burst_arrival", "burst-arrival", args,
        get_system_config(args.frontier_system), burst_arrival_spec(),
        args.burst_duration, policy="fcfs",
    )


def bench_sweep_throughput(args):
    """A >=64-run tiny-system grid, 1 worker vs a process pool.

    Measures sweep fan-out, not the engine: the same
    :class:`~repro.sweep.SweepSpec` (policies x workload variants x seeds)
    is executed twice into throwaway stores — in-process single-worker,
    then pooled — and the record carries runs/s for both plus the speedup
    and parallel efficiency (speedup / workers, against ``cpu_count`` for
    context: efficiency targets are only meaningful when the host actually
    has the cores).

    Two semantic gates ride along (wall clock stays advisory, as
    everywhere in this script): every run of both sweeps must complete,
    and the pooled store must match the single-process store at 1e-9 per
    metric — the single-process sweep executes ``run_request`` in the
    parent, so this is exactly "every stored summary matches a direct run
    of the same request". A spot check re-runs a few requests through the
    public ``run_simulation`` shim as well.
    """
    import os
    import tempfile

    from repro import run_simulation
    from repro.sweep import ResultsStore, RunRequest, SweepSpec, run_sweep

    spec = SweepSpec(
        name="bench_sweep",
        duration_s=parse_duration(args.sweep_duration),
        systems=("tiny",),
        policies=("fcfs", "backfill"),
        workloads=("default", "busy_trace"),
        n_seeds=args.sweep_seeds,
        root_seed=args.seed,
    )
    workers = args.sweep_workers
    with tempfile.TemporaryDirectory() as tmp:
        single_path = Path(tmp) / "single.sqlite"
        pooled_path = Path(tmp) / "pooled.sqlite"
        single = run_sweep(
            spec, single_path, workers=1, heartbeat_interval_s=None
        )
        pooled = run_sweep(
            spec,
            pooled_path,
            workers=workers,
            chunk_size=args.sweep_chunk_size,
            heartbeat_interval_s=None,
        )
        with ResultsStore(single_path) as a, ResultsStore(pooled_path) as b:
            single_rows = {r.run_id: r for r in a.runs(status="completed")}
            pooled_rows = {r.run_id: r for r in b.runs(status="completed")}

    store_drift = 0.0
    for run_id, row in single_rows.items():
        other = pooled_rows.get(run_id)
        if other is None or other.summary is None or row.summary is None:
            store_drift = math.inf
            break
        store_drift = max(store_drift, _summary_drift(other.summary, row.summary))

    # Spot check through the public shim: a handful of stored requests are
    # re-executed in this process via run_simulation, which routes through
    # the same RunRequest path — exact agreement expected, 1e-9 the gate.
    shim_drift = 0.0
    for row in list(single_rows.values())[:: max(1, len(single_rows) // 4)][:4]:
        request = RunRequest.from_json(row.request_json)
        fresh = run_simulation(
            system=request.system,
            policy=request.policy,
            duration=request.duration_s,
            seed=request.seed,
            spec=request.spec,
            dense_ticks=request.dense_ticks,
        ).summary()
        assert row.summary is not None
        shim_drift = max(shim_drift, _summary_drift(fresh, row.summary))

    speedup = (
        pooled.runs_per_s / single.runs_per_s if single.runs_per_s > 0 else 0.0
    )
    record = {
        "benchmark": "engine_sweep_throughput",
        "system": "tiny",
        "duration": args.sweep_duration,
        "seed": args.seed,
        "total_runs": spec.total_runs,
        "workers": workers,
        "chunk_size": args.sweep_chunk_size,
        "cpu_count": os.cpu_count(),
        "single": {
            "wall_s": single.wall_s,
            "runs_per_s": single.runs_per_s,
            "completed": single.completed,
            "failed": single.failed,
        },
        "parallel": {
            "wall_s": pooled.wall_s,
            "runs_per_s": pooled.runs_per_s,
            "completed": pooled.completed,
            "failed": pooled.failed,
        },
        "speedup": speedup,
        "parallel_efficiency": speedup / workers if workers else 0.0,
        "store_vs_single_drift_rel": store_drift,
        "shim_vs_store_drift_rel": shim_drift,
    }
    print(
        f"sweep-throughput: {spec.total_runs} runs on tiny, "
        f"{single.runs_per_s:.2f} runs/s single vs {pooled.runs_per_s:.2f} "
        f"runs/s with {workers} workers ({speedup:.2f}x, efficiency "
        f"{record['parallel_efficiency']:.0%} on {record['cpu_count']} cores), "
        f"store drift {store_drift:.2e}, shim drift {shim_drift:.2e}"
    )
    return record


def _is_finite_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _summary_drifts(candidate: dict, reference: dict) -> dict[str, float]:
    """Per-metric relative deviation between two summaries (``ticks`` excluded).

    Non-finite values — inf/nan in-process, ``null`` once a record has been
    round-tripped through strict JSON, or a missing metric — compare as one
    sentinel bucket: no drift against each other, full drift (``inf``)
    against any finite value. The naive ratio would be nan for those cases
    and slip silently past any threshold.
    """
    drifts = {}
    for key, ref in reference.items():
        if key == "ticks":
            continue
        got = candidate.get(key)
        if _is_finite_number(ref) and _is_finite_number(got):
            if ref == got:
                drifts[key] = 0.0
            else:
                drifts[key] = abs(got - ref) / max(abs(ref), abs(got), 1e-12)
        elif _is_finite_number(ref) or _is_finite_number(got):
            drifts[key] = math.inf
        else:
            drifts[key] = 0.0
    # Symmetric check: a metric newly added to the candidate is a semantic
    # change too and must force a golden refresh, not pass silently.
    for key in candidate:
        if key != "ticks" and key not in reference:
            drifts[key] = math.inf
    return drifts


def _summary_drift(candidate: dict, reference: dict) -> float:
    """Largest relative deviation between two summaries (``ticks`` excluded)."""
    return max(_summary_drifts(candidate, reference).values(), default=0.0)


def _write_profiles(path: Path, top: int = 30) -> None:
    """Re-run each benchmark's event-driven engine under cProfile.

    Runs after the timed measurements so profiler overhead never pollutes
    the recorded numbers; the per-benchmark top functions (by cumulative
    time) land in one text file uploaded as a CI artifact next to
    ``BENCH_engine.json``.
    """
    import cProfile
    import pstats

    with open(path, "w") as fh:
        for label, thunk in PROFILE_TARGETS:
            profiler = cProfile.Profile()
            profiler.enable()
            tracer = thunk()
            profiler.disable()
            fh.write(f"==== {label} ====\n")
            if isinstance(tracer, SpanTracer):
                fh.write("-- per-phase wall time --\n")
                fh.write(_phase_table(tracer.phase_report()) + "\n\n")
            pstats.Stats(profiler, stream=fh).sort_stats("cumulative").print_stats(top)
    print(f"profile -> {path}")


def check_golden(summary: dict, golden_path: Path) -> int:
    """Compare the benchmark summary against the committed golden record."""
    golden = json.loads(golden_path.read_text())
    reference = golden["summary"]
    failures = [
        f"{key}: golden {reference.get(key)!r} vs run {summary.get(key)!r}"
        for key, drift in _summary_drifts(summary, reference).items()
        if drift > GOLDEN_RTOL
    ]
    if failures:
        print("golden summary drift detected:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        print(
            f"(golden record: {golden_path}; regenerate with --write-golden "
            "only for intentional semantic changes)",
            file=sys.stderr,
        )
        return 1
    print(f"golden summary check passed ({golden_path})")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--system", default="tiny")
    parser.add_argument("--policy", default="backfill")
    parser.add_argument("--duration", default="24h")
    parser.add_argument("--idle-duration", default="3d")
    parser.add_argument("--busy-duration", default="24h")
    parser.add_argument("--frontier-system", default="frontier")
    parser.add_argument("--frontier-duration", default="12h")
    parser.add_argument("--burst-duration", default="12h")
    parser.add_argument("--sweep-duration", default="12h")
    parser.add_argument(
        "--sweep-seeds", type=int, default=16,
        help="seeds per grid point in the sweep benchmark (4 grid points, "
             "so 16 seeds = 64 runs)",
    )
    parser.add_argument(
        "--sweep-workers", type=int, default=4,
        help="pool size for the parallel leg of the sweep benchmark",
    )
    parser.add_argument(
        "--sweep-chunk-size", type=int, default=4,
        help="runs per pool task in the sweep benchmark",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_engine.json"),
        help="where to write the benchmark record",
    )
    parser.add_argument(
        "--profile", metavar="PATH", nargs="?",
        const=str(REPO_ROOT / "BENCH_profile.txt"), default=None,
        help="re-run each benchmark under cProfile and write the top "
             "functions per benchmark to PATH (default BENCH_profile.txt)",
    )
    parser.add_argument(
        "--profile-top", type=int, default=30,
        help="how many functions to keep per benchmark in --profile output",
    )
    parser.add_argument(
        "--golden", metavar="PATH", default=None,
        help="fail if the 24h run's summary drifts from this golden record",
    )
    parser.add_argument(
        "--write-golden", metavar="PATH", default=None,
        help="write the 24h run's summary as the new golden record",
    )
    args = parser.parse_args()

    system = get_system_config(args.system)
    output_path = Path(args.output)

    window_record, window_summary = bench_24h_window(args, system)
    idle_record = bench_idle_heavy(args, system)
    busy_record = bench_busy_trace(args, system)
    power_cap_record = bench_power_cap(args, system)
    frontier_record = bench_frontier_scale(args)
    burst_record = bench_burst_arrival(args)
    sweep_record = bench_sweep_throughput(args)

    record = dict(window_record)
    record["idle_heavy"] = idle_record
    record["busy_trace"] = busy_record
    record["power_cap"] = power_cap_record
    record["frontier_scale"] = frontier_record
    record["burst_arrival"] = burst_record
    record["sweep_throughput"] = sweep_record
    record["python"] = platform.python_version()
    record["machine"] = platform.machine()

    # Same strict-JSON convention as StatsCollector.to_json: non-finite
    # values (inf step_reduction on an empty event run, inf mean_pue on an
    # all-idle window) export as null, never as a bare Infinity token.
    output_path.write_text(
        json.dumps(json_safe(record), indent=2, allow_nan=False) + "\n"
    )
    print(f"-> {args.output}")

    if args.profile:
        _write_profiles(Path(args.profile), top=args.profile_top)

    if args.write_golden:
        payload = {
            "benchmark": window_record["benchmark"],
            "system": system.name,
            "policy": args.policy,
            "duration": args.duration,
            "seed": args.seed,
            "rtol": GOLDEN_RTOL,
            "summary": window_summary,
        }
        Path(args.write_golden).write_text(
            json.dumps(json_safe(payload), indent=2, allow_nan=False) + "\n"
        )
        print(f"golden record written -> {args.write_golden}")

    # Dense-vs-event equivalence gate: the coalescing engine's summaries
    # must be indistinguishable from dense ticking on every benchmark
    # workload. Unlike the golden record, this invariant is never
    # legitimately refreshed.
    equivalence_failures = [
        f"{rec['benchmark']}: dense-vs-event summary drift "
        f"{rec['max_summary_drift_rel']:.3e} > {EQUIVALENCE_RTOL:.0e}"
        for rec in (
            idle_record, busy_record, power_cap_record, frontier_record,
            burst_record,
        )
        if not rec["max_summary_drift_rel"] <= EQUIVALENCE_RTOL
    ]
    # Power-cap semantics: a constant cap is a hard guarantee (the
    # admission check projects exact incremental peaks, so any violation is
    # a scheduler bug), and the cap must actually bind or the benchmark
    # stops measuring anything.
    if power_cap_record["cap_violation_kwh"] != 0.0:
        equivalence_failures.append(
            f"{power_cap_record['benchmark']}: constant cap violated by "
            f"{power_cap_record['cap_violation_kwh']:.6f} kWh (must be 0)"
        )
    if not power_cap_record["capped_hold_s"] > 0.0:
        equivalence_failures.append(
            f"{power_cap_record['benchmark']}: cap never bound "
            "(capped_hold_s == 0); the workload no longer exercises capping"
        )
    # The sweep is an orchestration layer over the same engine, so it gets
    # the same contract: every run completes, and the pooled store must
    # reproduce the single-process store (itself direct run_request output)
    # and the public run_simulation shim to the equivalence tolerance.
    for leg in ("single", "parallel"):
        sweep_leg = sweep_record[leg]
        if (
            sweep_leg["failed"] > 0
            or sweep_leg["completed"] != sweep_record["total_runs"]
        ):
            equivalence_failures.append(
                f"{sweep_record['benchmark']}: {leg} leg completed "
                f"{sweep_leg['completed']}/{sweep_record['total_runs']} runs "
                f"with {sweep_leg['failed']} failures"
            )
    for drift_key, label in (
        ("store_vs_single_drift_rel", "pooled-vs-single store"),
        ("shim_vs_store_drift_rel", "run_simulation-vs-store"),
    ):
        if not sweep_record[drift_key] <= EQUIVALENCE_RTOL:
            equivalence_failures.append(
                f"{sweep_record['benchmark']}: {label} summary drift "
                f"{sweep_record[drift_key]:.3e} > {EQUIVALENCE_RTOL:.0e}"
            )
    # The frontier-scale benchmark only means something at frontier scale.
    if frontier_record["max_running_jobs"] < 1000:
        equivalence_failures.append(
            f"{frontier_record['benchmark']}: only "
            f"{frontier_record['max_running_jobs']} concurrent jobs "
            "(>= 1000 required)"
        )
    if equivalence_failures:
        for failure in equivalence_failures:
            print(failure, file=sys.stderr)
        return 1

    if args.golden:
        return check_golden(window_summary, Path(args.golden))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
