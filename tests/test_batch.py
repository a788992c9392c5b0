"""Monte Carlo batch kernel: batched replicas must equal serial runs.

The batch engine's whole contract is replica isolation on a shared
substrate: ``run_batch(request, seeds)[i]`` must reproduce
``run_request(replace(request, seed=seeds[i]))`` within 1e-9 per summary
metric (and job-for-job in outcome states) for every policy, with and
without operating-signal caps. This module pins that contract three ways:

* fixed-matrix equivalence over all three policies x capped/uncapped,
* a hypothesis property over random :class:`WorkloadSpec` draws and
  replica counts 1..8 (seeded-random fallback when hypothesis is absent),
* the sweep driver's ``batch_size`` fast path: a batched sweep's store
  must match a per-run sweep's store row for row, with resume, failure
  capture and task accounting intact.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest

from repro.config import get_system_config
from repro.engine import BatchSimulationEngine, run_batch
from repro.exceptions import SimulationError
from repro.obs import ProgressReporter
from repro.power import OperatingSignals, SystemPowerModel
from repro.sweep import RunRequest, run_request, run_sweep
from repro.sweep.spec import SweepSpec
from repro.sweep.store import ResultsStore
from repro.workloads import SyntheticWorkloadGenerator, WorkloadSpec, busy_trace_spec
from repro.workloads.distributions import (
    JobSizeDistribution,
    RuntimeDistribution,
    WaveArrivals,
)

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False

POLICIES = ("replay", "fcfs", "backfill")

EQUIVALENCE_RTOL = 1e-9


def _assert_summaries_equal(batched, serial, label):
    batched_summary, serial_summary = batched.summary(), serial.summary()
    assert set(batched_summary) == set(serial_summary)
    for key, serial_value in serial_summary.items():
        if key == "ticks":
            continue
        if isinstance(serial_value, float) and not math.isfinite(serial_value):
            assert batched_summary[key] == serial_value, f"{label}/{key}"
            continue
        assert batched_summary[key] == pytest.approx(
            serial_value, rel=EQUIVALENCE_RTOL, abs=1e-12
        ), f"{label}/{key} drifted beyond 1e-9 between batched and serial"
    # Per-job outcomes must agree job for job (relative job order is
    # deterministic; absolute ids differ because the counter is global).
    assert [j.state for j in batched.jobs] == [j.state for j in serial.jobs]


def _assert_batch_matches_serial(request, seeds):
    batched = run_batch(request, seeds)
    assert len(batched) == len(seeds)
    for seed, batched_result in zip(seeds, batched):
        serial_result = run_request(replace(request, seed=seed))
        assert batched_result.seed == seed
        _assert_summaries_equal(
            batched_result, serial_result, f"{request.policy}/seed={seed}"
        )


def _cap_signals(system):
    """A stepped cap that actually binds on tiny, plus price/carbon."""
    floor_kw = SystemPowerModel(system).idle_floor_kw()
    return OperatingSignals(
        power_cap_kw=((0.0, 3.0 * floor_kw), (3600.0, 1.4 * floor_kw)),
        price_per_kwh=((0.0, 0.05), (5400.0, 0.22)),
        carbon_kg_per_kwh=((0.0, 0.35),),
    )


class TestRunBatchEquivalence:
    """Fixed-matrix batch-vs-serial equality: 3 policies x capped/uncapped."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("capped", [False, True])
    def test_busy_trace_matches_serial(self, tiny_system, policy, capped):
        request = RunRequest(
            system="tiny",
            policy=policy,
            duration_s=2.0 * 3600.0,
            spec=busy_trace_spec(),
            signals=_cap_signals(tiny_system) if capped else None,
        )
        _assert_batch_matches_serial(request, [7, 8, 9])

    def test_single_replica_and_default_policy(self):
        request = RunRequest(system="tiny", policy=None, duration_s=3600.0)
        _assert_batch_matches_serial(request, [5])

    def test_empty_seed_list(self):
        request = RunRequest(system="tiny", duration_s=3600.0)
        assert run_batch(request, []) == []

    def test_horizon_truncation_matches_serial(self, tiny_system):
        request = RunRequest(
            system="tiny",
            policy="backfill",
            duration_s=2.0 * 3600.0,
            spec=busy_trace_spec(),
            horizon_s=5401.7,  # off-grid: exercises the exact clamp
        )
        _assert_batch_matches_serial(request, [1, 2])


class TestBatchEngine:
    """Engine-level construction, isolation guards and counters."""

    def _workloads(self, tiny_system, seeds, duration_s=3600.0):
        spec = busy_trace_spec()
        return [
            SyntheticWorkloadGenerator(tiny_system, spec, seed=seed).generate(duration_s)
            for seed in seeds
        ]

    def test_rejects_scheduler_instances(self, tiny_system):
        from repro.engine import get_scheduler

        workloads = self._workloads(tiny_system, [0])
        with pytest.raises(SimulationError, match="policy name"):
            BatchSimulationEngine(tiny_system, workloads, get_scheduler("fcfs"))

    def test_rejects_seed_count_mismatch(self, tiny_system):
        workloads = self._workloads(tiny_system, [0, 1])
        with pytest.raises(SimulationError, match="2 workloads but 3 seeds"):
            BatchSimulationEngine(tiny_system, workloads, "fcfs", seeds=[0, 1, 2])

    def test_rejects_progress_length_mismatch(self, tiny_system):
        workloads = self._workloads(tiny_system, [0, 1])
        engine = BatchSimulationEngine(tiny_system, workloads, "fcfs", seeds=[0, 1])
        with pytest.raises(SimulationError, match="progress"):
            engine.run(progress=[None])

    def test_observability_counters(self, tiny_system):
        seeds = [3, 4, 5]
        workloads = self._workloads(tiny_system, seeds)
        engine = BatchSimulationEngine(tiny_system, workloads, "fcfs", seeds=seeds)
        engine.run()
        counters = engine.observability_counters()
        assert counters["engine_batch_replicas_total"] == 3
        assert counters["engine_batch_shared_builds_total"] == 1
        # Every job start in every replica was served from the shared pool.
        jobs_total = sum(len(workload) for workload in workloads)
        assert counters["engine_batch_prebuilt_state_hits_total"] == jobs_total
        for replica in engine.engines:
            per_replica = replica.power_aggregator.observability_counters()
            assert per_replica["prebuilt_state_hits"] > 0

    def test_results_in_replica_order(self, tiny_system):
        seeds = [11, 7, 23]
        workloads = self._workloads(tiny_system, seeds)
        engine = BatchSimulationEngine(tiny_system, workloads, "fcfs", seeds=seeds)
        results = engine.run()
        assert [result.seed for result in results] == seeds
        assert engine.replicas_done == 3


class TestBatchProgress:
    """Per-replica heartbeats fold the batch's done/total into snapshots."""

    def test_replica_tagged_snapshots(self):
        request = RunRequest(
            system="tiny",
            policy="fcfs",
            duration_s=3600.0,
            spec=busy_trace_spec(),
        )
        seeds = [0, 1]
        beats = {0: [], 1: []}
        reporters = [
            ProgressReporter(
                0.0, callback=(lambda i: lambda snap: beats[i].append(snap))(index)
            )
            for index in range(len(seeds))
        ]
        run_batch(request, seeds, progress=reporters)
        for index, snapshots in beats.items():
            assert snapshots, f"replica {index} emitted no heartbeats"
            final = snapshots[-1]
            assert final.final and final.fraction_done == 1.0
            assert final.replica_index == index
            assert final.replicas_total == len(seeds)
            assert 1 <= final.replicas_done <= len(seeds)
        # The last replica to finish reports the full done count.
        assert max(b[-1].replicas_done for b in beats.values()) == len(seeds)

    def test_format_line_shows_replicas(self):
        from repro.obs.progress import ProgressSnapshot

        snapshot = ProgressSnapshot(
            wall_s=1.0,
            sim_time_s=60.0,
            sim_elapsed_s=60.0,
            fraction_done=0.5,
            steps=4,
            steps_per_s=4.0,
            eta_s=None,
            running_jobs=1,
            queued_jobs=0,
            jobs_done=1,
            jobs_total=2,
            replica_index=1,
            replicas_done=1,
            replicas_total=4,
        )
        assert "replicas 1/4" in snapshot.format_line()
        plain = replace(snapshot, replicas_done=None, replicas_total=None)
        assert "replicas" not in plain.format_line()


def _random_spec(*, noise, phases, rate, scalar):
    return WorkloadSpec(
        sizes=JobSizeDistribution(min_nodes=1, max_nodes=8),
        runtimes=RuntimeDistribution(
            median_s=1200.0, sigma=0.7, min_s=60.0, max_s=3600.0
        ),
        arrivals=WaveArrivals(rate_per_hour=rate, amplitude=0.3),
        trace_interval_s=None if scalar else 60.0,
        generate_power_trace=not scalar,
        phase_count_range=(1, phases),
        sample_noise=noise,
    )


def _check_batch_property(seed, noise, phases, rate, scalar, n_replicas, capped):
    system = get_system_config("tiny")
    spec = _random_spec(noise=noise, phases=phases, rate=rate, scalar=scalar)
    seeds = [seed + offset for offset in range(n_replicas)]
    for policy in POLICIES:
        request = RunRequest(
            system="tiny",
            policy=policy,
            duration_s=2.0 * 3600.0,
            spec=spec,
            signals=_cap_signals(system) if capped else None,
        )
        _assert_batch_matches_serial(request, seeds)


if HAVE_HYPOTHESIS:

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        noise=st.sampled_from([0.0, 0.35, 1.0]),
        phases=st.integers(min_value=1, max_value=5),
        rate=st.floats(min_value=2.0, max_value=8.0, allow_nan=False),
        scalar=st.booleans(),
        n_replicas=st.integers(min_value=1, max_value=8),
        capped=st.booleans(),
    )
    def test_batch_equals_serial_property(
        seed, noise, phases, rate, scalar, n_replicas, capped
    ):
        """Batch-vs-serial equality at 1e-9 over random workload specs,
        replica counts 1..8, all three policies, capped and uncapped."""
        _check_batch_property(seed, noise, phases, rate, scalar, n_replicas, capped)

else:  # pragma: no cover - seeded-random fallback without hypothesis

    def _fallback_batch_cases(count=6):
        rng = random.Random(2027)
        return [
            (
                rng.randrange(2**20),
                rng.choice([0.0, 0.35, 1.0]),
                rng.randint(1, 5),
                rng.uniform(2.0, 8.0),
                rng.random() < 0.5,
                rng.randint(1, 8),
                rng.random() < 0.5,
            )
            for _ in range(count)
        ]

    @pytest.mark.parametrize("case", _fallback_batch_cases())
    def test_batch_equals_serial_property(case):
        _check_batch_property(*case)


def _smoke_spec(n_seeds=5, policies=("fcfs", "backfill")):
    return SweepSpec(
        name="batch-sweep-test",
        duration_s=3600.0,
        systems=("tiny",),
        policies=tuple(policies),
        workloads=("busy_trace",),
        n_seeds=n_seeds,
        root_seed=13,
    )


def _rows(path):
    with ResultsStore(path) as store:
        return {row.run_id: row for row in store.runs()}


class TestSweepBatchIntegration:
    """``run_sweep(batch_size=...)``: grouping, store equality, resume."""

    def test_batched_store_matches_serial_store(self, tmp_path):
        spec = _smoke_spec()
        serial_path = tmp_path / "serial.sqlite"
        batched_path = tmp_path / "batched.sqlite"
        serial = run_sweep(
            spec, serial_path, workers=1, heartbeat_interval_s=None
        )
        batched = run_sweep(
            spec, batched_path, workers=1, batch_size=4, heartbeat_interval_s=None
        )
        assert serial.completed == batched.completed == spec.total_runs
        assert serial.batched_tasks == 0
        assert serial.per_run_tasks == spec.total_runs
        # 2 policies x 5 seeds at batch_size=4: each policy groups into
        # one 4-replica batch plus one leftover per-run task.
        assert batched.batched_tasks == 2
        assert batched.per_run_tasks == 2
        serial_rows, batched_rows = _rows(serial_path), _rows(batched_path)
        assert serial_rows.keys() == batched_rows.keys()
        for run_id, serial_row in serial_rows.items():
            batched_row = batched_rows[run_id]
            assert batched_row.status == serial_row.status == "completed"
            for key, value in serial_row.summary.items():
                assert batched_row.summary[key] == pytest.approx(
                    value, rel=EQUIVALENCE_RTOL, abs=1e-12
                ), f"{run_id}/{key}"

    def test_batched_sweep_resumes(self, tmp_path):
        spec = _smoke_spec(n_seeds=3, policies=("fcfs",))
        store_path = tmp_path / "resume.sqlite"
        first = run_sweep(
            spec, store_path, workers=1, batch_size=3, heartbeat_interval_s=None
        )
        assert first.completed == spec.total_runs
        again = run_sweep(
            spec, store_path, workers=1, batch_size=3, heartbeat_interval_s=None
        )
        assert again.skipped == spec.total_runs
        assert again.executed == 0

    def test_pooled_batched_sweep(self, tmp_path):
        spec = _smoke_spec(n_seeds=4, policies=("fcfs",))
        outcome = run_sweep(
            spec,
            tmp_path / "pooled.sqlite",
            workers=2,
            batch_size=2,
            chunk_size=1,
            heartbeat_interval_s=None,
        )
        assert outcome.completed == spec.total_runs
        assert outcome.failed == 0
        assert outcome.batched_tasks == 2

    def test_batch_failure_fails_every_replica(self, tmp_path, monkeypatch):
        from repro.sweep import driver

        def _boom(request, seeds, *, progress=None):
            raise RuntimeError("kernel exploded")

        monkeypatch.setattr(driver, "run_batch", _boom)
        spec = _smoke_spec(n_seeds=2, policies=("fcfs",))
        store_path = tmp_path / "failed.sqlite"
        outcome = run_sweep(
            spec, store_path, workers=1, batch_size=2, heartbeat_interval_s=None
        )
        assert outcome.failed == spec.total_runs
        for row in _rows(store_path).values():
            assert row.status == "failed"
            assert "kernel exploded" in row.error

    def test_batch_size_validation(self, tmp_path):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="batch_size"):
            run_sweep(_smoke_spec(), tmp_path / "x.sqlite", batch_size=0)


class TestGroupTasks:
    """The compatibility grouping behind ``batch_size``."""

    def _payloads(self, spec):
        from repro.sweep.driver import _RunPayload

        runs = spec.materialize()
        payloads = {
            run.run_id: _RunPayload(
                run_id=run.run_id,
                sweep=run.sweep,
                run_index=run.run_index,
                workload=run.workload,
                request=run.request.to_json_dict(),
                progress_interval_s=None,
            )
            for run in runs
        }
        return runs, payloads

    def test_groups_only_seed_compatible_requests(self):
        from repro.sweep.driver import _BatchPayload, _group_tasks

        runs, payloads = self._payloads(_smoke_spec(n_seeds=3))
        tasks, batched, per_run = _group_tasks(runs, payloads, batch_size=8)
        # 2 policies x 3 seeds: one batch per policy, nothing per-run.
        assert batched == 2 and per_run == 0
        for task in tasks:
            assert isinstance(task, _BatchPayload)
            policies = {payload.request["policy"] for payload in task.payloads}
            assert len(policies) == 1
            seeds = [payload.request["seed"] for payload in task.payloads]
            assert len(set(seeds)) == len(seeds)

    def test_batch_size_one_preserves_order(self):
        from repro.sweep.driver import _group_tasks

        runs, payloads = self._payloads(_smoke_spec(n_seeds=2))
        tasks, batched, per_run = _group_tasks(runs, payloads, batch_size=1)
        assert batched == 0 and per_run == len(runs)
        assert [task.run_id for task in tasks] == [run.run_id for run in runs]

    def test_equal_except_seed(self):
        from repro.sweep.driver import _equal_except_seed

        a = {"system": "tiny", "policy": "fcfs", "seed": 1}
        assert _equal_except_seed(a, {**a, "seed": 9})
        assert not _equal_except_seed(a, {**a, "policy": "backfill"})
        assert not _equal_except_seed(a, {"system": "tiny", "seed": 1})


class TestSweepCli:
    """The ``--batch-size`` flag and the batched-task outcome line."""

    def test_parser_accepts_batch_size(self):
        from repro.sweep.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["run", "spec.json", "--store", "s.sqlite"])
        assert args.batch_size == 1
        args = parser.parse_args(
            ["run", "spec.json", "--store", "s.sqlite", "--batch-size", "4"]
        )
        assert args.batch_size == 4

    def test_run_command_reports_task_counts(self, tmp_path, capsys):
        import json

        from repro.sweep.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "name": "cli-batch",
                    "duration": "1h",
                    "systems": ["tiny"],
                    "policies": ["fcfs"],
                    "workloads": ["busy_trace"],
                    "n_seeds": 3,
                    "root_seed": 5,
                }
            )
        )
        code = main(
            [
                "run",
                str(spec_path),
                "--store",
                str(tmp_path / "cli.sqlite"),
                "--workers",
                "1",
                "--batch-size",
                "3",
                "--heartbeat",
                "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tasks: 1 batched + 0 per-run" in out
