"""Relations between different runs, the oracles no single run can give.

The contract ties dense to event-driven runs and :func:`helpers.run_checked`
checks conservation inside one run; a fault both paths share passes both.
These tests relate *different* runs instead, with test code only:

* **Replay round trip** (the paper's replay-validation mode as an oracle
  for the rescheduling policies): a run turned into recorded telemetry
  (:func:`helpers.recorded_workload`) and replayed starts every job at its
  recorded start on its recorded nodes, with no replay tag, and reproduces
  every summary key but ``ticks``. Synthetic jobs carry no recorded nodes,
  so this is also the one test traffic of replay's recorded-placement path
  at scale.
* **Time shift**: moving every submit, start and end by k ticks keeps the
  summary within 1e-9 (the times change, so float sums may differ).
* **Job-id relabel**: an order-preserving relabel gives the same summary
  bit for bit.
"""

from __future__ import annotations

import pytest

from repro.config import get_system_config
from repro.engine import SimulationEngine, parse_duration
from repro.workloads import SyntheticWorkloadGenerator, busy_trace_spec

from helpers import recorded_workload, relabeled, summary_drifts, time_shifted

#: case -> (system, busy-trace spec or the system's default, policy, seed,
#: duration). Uncapped: a cap's dismissals and holds have no counterpart
#: in the recorded workload.
ROUND_TRIP = {
    "tiny_fcfs": ("tiny", False, "fcfs", 1, "24h"),
    "tiny_backfill": ("tiny", False, "backfill", 2, "24h"),
    "tiny_busy_fcfs": ("tiny", True, "fcfs", 3, "24h"),
    "tiny_busy_backfill": ("tiny", True, "backfill", 4, "24h"),
    "marconi100_backfill": ("marconi100", False, "backfill", 5, "6h"),
}

#: Runs the time shift and the relabel are checked on: (system, duration).
RELATION_RUNS = {"tiny_busy": ("tiny", "24h"), "marconi100": ("marconi100", "2h")}


def _jobs(system, busy: bool, seed: int, duration: str):
    spec = busy_trace_spec() if busy else None
    return SyntheticWorkloadGenerator(system, spec, seed=seed).generate(parse_duration(duration))


@pytest.mark.parametrize("case", list(ROUND_TRIP))
def test_replay_round_trip(case: str) -> None:
    system_name, busy, policy, seed, duration = ROUND_TRIP[case]
    system = get_system_config(system_name)
    run = SimulationEngine(system, _jobs(system, busy, seed, duration), policy, seed=seed).run()
    recorded = recorded_workload(run)
    assert len(recorded) == len(run.jobs)
    replay = SimulationEngine(system, recorded, "replay", seed=seed).run()
    for replayed in replay.jobs:
        assert not replayed.replay_delayed and not replayed.replay_relocated
        assert replayed.sim_start_time == replayed.job.start_time
        assert replayed.assigned_nodes == replayed.job.recorded_nodes
    summary = replay.summary()
    assert summary == {**run.summary(), "ticks": summary["ticks"]}


@pytest.mark.parametrize("policy", ["replay", "fcfs", "backfill"])
@pytest.mark.parametrize("case", list(RELATION_RUNS))
def test_time_shift_and_relabel(case: str, policy: str) -> None:
    system_name, duration = RELATION_RUNS[case]
    system = get_system_config(system_name)
    jobs = _jobs(system, case == "tiny_busy", 1, duration)
    summary = SimulationEngine(system, jobs, policy, seed=1).run().summary()
    for ticks in (7, 1000):
        shifted = time_shifted(jobs, ticks * float(system.timestep_s))
        moved = SimulationEngine(system, shifted, policy, seed=1).run().summary()
        drifts = summary_drifts(moved, summary)
        assert max(drifts.values()) <= 1e-9, (ticks, drifts)
    renamed = SimulationEngine(system, relabeled(jobs, 10_000), policy, seed=1).run()
    assert renamed.summary() == summary
