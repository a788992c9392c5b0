"""Discrete-time simulation engine.

This package is the piece every component docstring defers to: the loop that
replays or reschedules a telemetry window against the twinned system. It
composes the cluster substrate (:mod:`repro.cluster`), the power path
(:mod:`repro.power`) and the cooling plant (:mod:`repro.cooling`) behind a
pluggable scheduling policy (:mod:`repro.engine.scheduler`) and records the
quantities the paper reports (:mod:`repro.engine.stats`).

The engine advances on a ``SystemConfig.timestep_s`` tick grid; each step it

1. releases jobs whose simulated runtime has elapsed,
2. submits newly-arrived jobs into the scheduler queue,
3. asks the scheduling policy for placement decisions and executes them
   through the resource manager,
4. evaluates the system power model on the running set, steps the cooling
   plant on the resulting heat load, and
5. appends a sample to the statistics collector.

Time advancement is event-driven by default: grid ticks on which provably
nothing can happen (no submission, release, backdated replay start, policy
action or horizon crossing, and constant power) are coalesced into a single
interval-aware sample, which makes idle-heavy multi-week replays run orders
of magnitude faster while leaving every summary metric bit-compatible up to
floating-point associativity. Pass ``dense_ticks=True`` / ``--dense-ticks``
for an exact one-sample-per-tick time series.

Run a simulation from Python with :func:`run_simulation`, or from the shell
with ``repro-sim`` / ``python -m repro.engine``.
"""

from .engine import SimulationEngine, SimulationResult, parse_duration, run_simulation
from .scheduler import (
    BackfillScheduler,
    FCFSScheduler,
    PowerCapScheduler,
    ReplayScheduler,
    Scheduler,
    SchedulingDecision,
    available_policies,
    get_scheduler,
)
from .stats import StatsCollector, TickSample

__all__ = [
    "SimulationEngine",
    "SimulationResult",
    "run_simulation",
    "parse_duration",
    "Scheduler",
    "SchedulingDecision",
    "ReplayScheduler",
    "FCFSScheduler",
    "BackfillScheduler",
    "PowerCapScheduler",
    "available_policies",
    "get_scheduler",
    "StatsCollector",
    "TickSample",
]
