"""The benchmark's three workloads: inputs from a seed, the measured call, the checks.

Each scenario is built from one *input seed* (``run.py`` derives several from
the ``--seed`` it is given). Building it is set-up; :meth:`measure` is the
measured call, made through the public API exactly as a user would make it;
:meth:`check` then verifies the outputs run by run, outside the timed region.

``scale`` multiplies every simulated window. The benchmark runs at 1.0; its
own tests run smaller.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import repro
from repro import OperatingSignals, ResultsStore, RunRequest, SweepSpec
from repro.config import get_system_config
from repro.workloads import (
    SyntheticWorkloadGenerator,
    busy_trace_spec,
    default_workload_spec,
    frontier_scale_spec,
)

HOUR_S = 3600.0

#: capped_busy_tiny: constant IT cap, kW. The uncapped peak is about 29 kW.
CAP_KW = 20.0
#: capped_busy_tiny: the generator starts submissions this far before the
#: window (four 2 h median runtimes), so the system is busy from the start.
BUSY_TRACE_PREHISTORY_S = 8 * HOUR_S
#: frontier_scale: jobs that must be running at once at the peak.
MIN_PEAK_RUNNING = 1000
#: policy_sweep_tiny: rows the top-N query asks for.
QUERY_LIMIT = 10


@dataclass
class RunCheck:
    """One simulation run's summary and the checks it failed (empty: passed)."""

    summary: dict[str, float] | None
    failures: list[str]


def _conservation(summary: dict[str, float], generated: int) -> list[str]:
    ended = summary["jobs_completed"] + summary["jobs_dismissed"]
    if ended != generated:
        return [f"{ended:g} jobs completed or dismissed, but {generated} were generated"]
    return []


def _jobs_generated(request: RunRequest) -> int:
    """The workload size of one request, generated the way ``run_request`` does."""
    config = get_system_config(request.system)
    spec = request.spec if request.spec is not None else default_workload_spec(config)
    generator = SyntheticWorkloadGenerator(config, spec, seed=request.seed)
    return len(generator.generate(request.duration_s))


class _SingleRun:
    """A scenario that is one ``run_request`` through ``summary()``."""

    runs = 1

    def __init__(self, request: RunRequest) -> None:
        self.request = request

    def measure(self) -> None:
        self.result = repro.run_request(self.request)
        self.summary = self.result.summary()

    def check(self) -> list[RunCheck]:
        failures = _conservation(self.summary, len(self.result.jobs))
        failures += self.extra_failures()
        return [RunCheck(self.summary, failures)]

    def extra_failures(self) -> list[str]:
        return []


class CappedBusyTiny(_SingleRun):
    """The paper's power-cap and incentive experiment on the 32-node system.

    Busy-trace jobs under EASY backfill with a constant 20 kW IT cap, a price
    that steps up for the middle third of the window and constant carbon
    intensity. Cap holds veto coalescing, so per-step work is the cost. The
    horizon ends the run at the end of the window: without it the run drains
    the capped backlog for days, and its length would vary with the seed far
    more than its per-step cost does.
    """

    name = "capped_busy_tiny"

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        window_s = 24 * HOUR_S * scale
        third_s = window_s / 3.0
        super().__init__(
            RunRequest(
                system="tiny",
                policy="backfill",
                duration_s=window_s,
                seed=seed,
                spec=busy_trace_spec(),
                horizon_s=window_s + min(window_s, BUSY_TRACE_PREHISTORY_S),
                signals=OperatingSignals(
                    power_cap_kw=((0.0, CAP_KW),),
                    price_per_kwh=((0.0, 0.08), (third_s, 0.24), (2.0 * third_s, 0.08)),
                    carbon_kg_per_kwh=((0.0, 0.35),),
                ),
            )
        )

    def extra_failures(self) -> list[str]:
        failures = []
        if self.summary["cap_violation_kwh"] != 0.0:
            failures.append(f"cap violated by {self.summary['cap_violation_kwh']} kWh")
        if not self.summary["capped_hold_s"] > 0.0:
            failures.append("the cap never held a job")
        return failures


class FrontierScale(_SingleRun):
    """The 9,600-node system with thousands of jobs running at once.

    No cap and scalar telemetry: the cost is per job (generation, power-state
    construction, resource-manager bookkeeping), not per step.
    """

    name = "frontier_scale"

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        super().__init__(
            RunRequest(
                system="frontier",
                policy="backfill",
                duration_s=6 * HOUR_S * scale,
                seed=seed,
                spec=frontier_scale_spec(),
            )
        )

    def extra_failures(self) -> list[str]:
        peak = int(self.result.stats.column("running_jobs").max())
        if peak < MIN_PEAK_RUNNING:
            return [f"only {peak} jobs ran at once, fewer than {MIN_PEAK_RUNNING}"]
        return []


class PolicySweepTiny:
    """A what-if sweep: short runs into a fresh results store.

    replay/FCFS/backfill x default/busy-trace/idle-heavy on the 32-node
    system, one seed per grid point, in process (``workers=1``: CPU time
    cannot credit a pool). Nine runs keep a sample short, so a run holds
    enough samples for a steady median. The same sweep then runs again and
    must resume without executing anything, and a top-N query reads the
    store back.
    """

    name = "policy_sweep_tiny"

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        self.spec = SweepSpec(
            name="perfbench",
            duration_s=6 * HOUR_S * scale,
            systems=("tiny",),
            policies=("replay", "fcfs", "backfill"),
            workloads=("default", "busy_trace", "idle_heavy"),
            root_seed=seed,
        )
        self.runs = self.spec.total_runs
        self.store_path = workdir / f"sweep-{os.getpid()}.db"
        for suffix in ("", "-wal", "-shm"):
            Path(f"{self.store_path}{suffix}").unlink(missing_ok=True)

    def measure(self) -> None:
        self.first = repro.run_sweep(
            self.spec, self.store_path, workers=1, heartbeat_interval_s=None
        )
        self.resumed = repro.run_sweep(
            self.spec, self.store_path, workers=1, heartbeat_interval_s=None
        )
        with ResultsStore(self.store_path) as store:
            self.top = store.runs(
                order_by="total_energy_kwh", descending=True, limit=QUERY_LIMIT
            )

    def check(self) -> list[RunCheck]:
        sweep_failures = []
        total = self.spec.total_runs
        if self.first.completed != total:
            sweep_failures.append(
                f"first pass completed {self.first.completed} of {total} runs"
            )
        if self.resumed.executed != 0 or self.resumed.skipped != total:
            sweep_failures.append(
                f"resume executed {self.resumed.executed} runs and skipped "
                f"{self.resumed.skipped} of {total}"
            )
        with ResultsStore(self.store_path) as store:
            rows = store.runs()
        energies = sorted(
            (row.summary["total_energy_kwh"] for row in rows if row.summary is not None),
            reverse=True,
        )
        top = [row.summary["total_energy_kwh"] for row in self.top if row.summary is not None]
        if top != energies[:QUERY_LIMIT]:
            sweep_failures.append("the top-N query did not return the top rows")

        # run_id is the store's primary key: one row per run at most.
        row_of = {row.run_id: row for row in rows}
        checks = []
        for run in self.spec.materialize():
            failures = list(sweep_failures)
            row = row_of.pop(run.run_id, None)
            summary = None
            if row is None:
                failures.append(f"run {run.run_index} has no store row")
            elif row.status != "completed" or row.summary is None:
                failures.append(f"run {run.run_index} ended {row.status}")
            else:
                summary = row.summary
                failures += _conservation(summary, _jobs_generated(run.request))
            checks.append(RunCheck(summary, failures))
        if row_of:
            checks[0].failures.append(f"{len(row_of)} store rows belong to no run")
        return checks


SCENARIOS = {
    scenario.name: scenario
    for scenario in (CappedBusyTiny, FrontierScale, PolicySweepTiny)
}
