"""Tests for the statistics collector and its exports."""

from __future__ import annotations

import csv
import json

import pytest

from repro.cooling import power_usage_effectiveness
from repro.engine import SimulationEngine
from repro.engine.stats import StatsCollector, TickSample

from helpers import make_job


@pytest.fixture
def finished_run(tiny_system, tiny_workload):
    return SimulationEngine(tiny_system, tiny_workload, "fcfs").run()


class TestDerivedMetrics:
    def test_energy_is_power_times_time(self, tiny_system):
        # One 4-node job at constant utilization for exactly 1 hour.
        jobs = [make_job(nodes=4, submit=0.0, duration=3600.0, cpu=1.0, gpu=1.0, mem=1.0)]
        result = SimulationEngine(tiny_system, jobs, "fcfs").run()
        stats = result.stats
        # Interval-aware left-Riemann integral of the per-sample facility
        # power (event-driven samples carry their own dt_s).
        expected = sum(t.facility_power_kw * t.dt_s for t in stats.ticks) / 3600.0
        summary = stats.summary()
        assert summary["total_energy_kwh"] == pytest.approx(expected)
        assert summary["it_energy_kwh"] <= summary["total_energy_kwh"]
        assert stats.elapsed_s == pytest.approx(sum(t.dt_s for t in stats.ticks))

    def test_mean_pue_is_energy_weighted(self, finished_run):
        summary = finished_run.stats.summary()
        assert summary["mean_pue"] == pytest.approx(
            summary["total_energy_kwh"] / summary["it_energy_kwh"]
        )
        assert summary["mean_pue"] <= summary["max_pue"]

    def test_wait_and_node_h(self, finished_run):
        stats = finished_run.stats
        summary = stats.summary()
        waits = [j.wait_time for j in stats.completed_jobs]
        assert summary["mean_wait_s"] == pytest.approx(sum(waits) / len(waits))
        assert summary["max_wait_s"] == pytest.approx(max(waits))
        assert summary["node_hours"] == pytest.approx(
            sum(j.job.nodes_required * (j.sim_duration or 0.0) for j in stats.completed_jobs)
            / 3600.0
        )

    def test_empty_collector_summary(self):
        summary = StatsCollector().summary()
        assert summary["total_energy_kwh"] == 0.0
        assert summary["mean_pue"] == 1.0
        assert summary["jobs_completed"] == 0.0


def _record(
    stats: StatsCollector,
    now: float,
    dt_s: float,
    compute_kw: float,
    loss_kw: float,
    *,
    utilization: float,
    running_jobs: int,
    queued_jobs: int,
) -> TickSample:
    """Record one tick the way the engine does without a cooling plant."""
    stats.record_tick(
        now,
        dt_s,
        compute_power_kw=compute_kw,
        loss_kw=loss_kw,
        cooling_kw=0.0,
        pue=power_usage_effectiveness(compute_kw, loss_kw),
        allocated_nodes=0,
        utilization=utilization,
        running_jobs=running_jobs,
        queued_jobs=queued_jobs,
        mean_cpu_util=0.0,
        mean_gpu_util=0.0,
    )
    return stats.ticks[-1]


class TestPueAtZeroItPower:
    def test_zero_it_tick_reports_inf_pue(self):
        stats = StatsCollector()
        tick = _record(
            stats, 0.0, 15.0, 0.0, 25.0,
            utilization=0.0, running_jobs=0, queued_jobs=0,
        )
        assert tick.pue == float("inf")

    def test_zero_it_ticks_excluded_from_max_pue(self):
        stats = StatsCollector()
        _record(
            stats, 0.0, 15.0, 0.0, 25.0,
            utilization=0.0, running_jobs=0, queued_jobs=0,
        )
        _record(
            stats, 15.0, 15.0, 100.0, 5.0,
            utilization=0.5, running_jobs=1, queued_jobs=0,
        )
        # The inf sentinel of the idle tick must not swamp the meaningful
        # maximum of the loaded ticks.
        assert stats.summary()["max_pue"] == pytest.approx(105.0 / 100.0)

    def test_all_idle_run_has_inf_mean_pue(self):
        stats = StatsCollector()
        _record(
            stats, 0.0, 15.0, 0.0, 25.0,
            utilization=0.0, running_jobs=0, queued_jobs=0,
        )
        summary = stats.summary()
        assert summary["mean_pue"] == float("inf")
        assert summary["max_pue"] == 1.0  # no tick with IT power at all

    def test_inf_pue_exports_as_null_in_strict_json(self, tmp_path):
        stats = StatsCollector()
        _record(
            stats, 0.0, 15.0, 0.0, 25.0,
            utilization=0.0, running_jobs=0, queued_jobs=0,
        )
        path = tmp_path / "idle.json"
        stats.to_json(path)
        text = path.read_text()
        assert "Infinity" not in text  # RFC 8259 strictness
        payload = json.loads(text)
        assert payload["summary"]["mean_pue"] is None
        assert payload["timeseries"]["pue"] == [None]

    def test_truly_dead_tick_keeps_unit_pue(self):
        stats = StatsCollector()
        tick = _record(
            stats, 0.0, 15.0, 0.0, 0.0,
            utilization=0.0, running_jobs=0, queued_jobs=0,
        )
        assert tick.pue == pytest.approx(1.0)
        assert stats.summary()["mean_pue"] == pytest.approx(1.0)


class TestExports:
    def test_csv_round_trip(self, finished_run, tmp_path):
        path = tmp_path / "timeseries.csv"
        finished_run.stats.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(TickSample.FIELDS)
        assert len(rows) - 1 == len(finished_run.stats.ticks)
        first = dict(zip(rows[0], map(float, rows[1])))
        assert first["time_s"] == finished_run.stats.ticks[0].time_s
        assert first["facility_power_kw"] == pytest.approx(
            finished_run.stats.ticks[0].facility_power_kw
        )

    def test_json_round_trip(self, finished_run, tmp_path):
        path = tmp_path / "run.json"
        finished_run.stats.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["summary"] == finished_run.summary()
        series = payload["timeseries"]
        assert set(series) == set(TickSample.FIELDS)
        assert len(series["pue"]) == len(finished_run.stats.ticks)


class TestCLI:
    def test_cli_end_to_end(self, capsys, tmp_path):
        from repro.engine.cli import main

        csv_path = tmp_path / "ts.csv"
        json_path = tmp_path / "run.json"
        code = main(
            [
                "--system", "tiny",
                "--mode", "backfill",
                "--duration", "2h",
                "--seed", "1",
                "--csv", str(csv_path),
                "--json", str(json_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean PUE" in out
        assert "total energy" in out
        assert "mean wait" in out
        assert csv_path.exists() and json_path.exists()

    def test_cli_list_systems(self, capsys):
        from repro.engine.cli import main

        assert main(["--list-systems"]) == 0
        out = capsys.readouterr().out
        assert "frontier" in out and "tiny" in out

    def test_cli_rejects_unknown_system(self, capsys):
        from repro.engine.cli import main

        assert main(["--system", "doesnotexist", "--duration", "1h"]) == 1
        assert "unknown system" in capsys.readouterr().err

    @staticmethod
    def _swf_file(tmp_path):
        from repro.telemetry import jobs_to_swf

        jobs = [
            make_job(nodes=2, submit=0.0, start=60.0, duration=600.0, wall_limit=900.0),
            make_job(nodes=4, submit=120.0, start=300.0, duration=1200.0, wall_limit=1800.0),
        ]
        swf_path = tmp_path / "workload.swf"
        swf_path.write_text(jobs_to_swf(jobs))
        return str(swf_path)

    def test_cli_swf_workload(self, tmp_path, capsys):
        from repro.engine.cli import main

        code = main(
            ["--system", "tiny", "--mode", "fcfs", "--swf", self._swf_file(tmp_path)]
        )
        assert code == 0
        assert "jobs completed    2" in capsys.readouterr().out

    def test_cli_swf_workload_rejects_negative_seed(self, tmp_path, capsys):
        # --swf takes run_simulation's direct path, which checks the seed
        # as RunRequest does.
        from repro.engine.cli import main

        swf = self._swf_file(tmp_path)
        assert main(["--system", "tiny", "--swf", swf, "--seed", "-1"]) == 1
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err


class TestColumnarStorage:
    """The columnar tick store and its lazy TickSample view."""

    def _fill(self, count):
        stats = StatsCollector()
        for i in range(count):
            _record(
                stats, 15.0 * i, 15.0, 100.0 + i, 5.0,
                utilization=0.5, running_jobs=i % 7, queued_jobs=i % 3,
            )
        return stats

    def test_growth_beyond_initial_capacity(self):
        from repro.engine.stats import _INITIAL_CAPACITY

        count = 2 * _INITIAL_CAPACITY + 17
        stats = self._fill(count)
        assert len(stats.ticks) == count
        assert stats.ticks[0].compute_power_kw == pytest.approx(100.0)
        assert stats.ticks[-1].compute_power_kw == pytest.approx(100.0 + count - 1)
        assert stats.summary()["ticks"] == float(count)

    def test_ticks_view_indexing_and_types(self):
        stats = self._fill(10)
        ticks = stats.ticks
        assert len(ticks) == 10
        assert isinstance(ticks[3], TickSample)
        assert ticks[-1].time_s == pytest.approx(15.0 * 9)
        assert isinstance(ticks[2].running_jobs, int)
        assert isinstance(ticks[2].utilization, float)
        sliced = ticks[2:5]
        assert [t.time_s for t in sliced] == [30.0, 45.0, 60.0]
        with pytest.raises(IndexError):
            ticks[10]
        assert [t.running_jobs for t in ticks] == [i % 7 for i in range(10)]

    def test_record_tick_writes_one_row(self):
        stats = StatsCollector()
        stats.record_tick(
            0.0,
            15.0,
            compute_power_kw=50.0,
            loss_kw=2.0,
            cooling_kw=3.0,
            pue=1.1,
            allocated_nodes=4,
            utilization=0.25,
            running_jobs=2,
            queued_jobs=1,
            mean_cpu_util=0.5,
            mean_gpu_util=0.75,
        )
        assert stats.ticks[0] == TickSample(
            time_s=0.0,
            dt_s=15.0,
            compute_power_kw=50.0,
            loss_power_kw=2.0,
            cooling_power_kw=3.0,
            facility_power_kw=(50.0 + 2.0) + 3.0,
            pue=1.1,
            allocated_nodes=4,
            utilization=0.25,
            running_jobs=2,
            queued_jobs=1,
            mean_cpu_util=0.5,
            mean_gpu_util=0.75,
        )
        assert len(stats.ticks) == 1


class TestIncrementalSummary:
    """summary() is O(1): every metric matches an explicit recomputation."""

    def test_max_pue_matches_scan(self):
        stats = StatsCollector()
        for compute, loss in ((0.0, 25.0), (100.0, 5.0), (50.0, 20.0), (80.0, 2.0)):
            _record(
                stats, 0.0, 15.0, compute, loss,
                utilization=0.0, running_jobs=0, queued_jobs=0,
            )
        import math

        expected = max(
            t.pue for t in stats.ticks
            if t.compute_power_kw > 0 and math.isfinite(t.pue)
        )
        assert stats.summary()["max_pue"] == pytest.approx(expected)

    def test_job_metrics_match_scan(self, finished_run):
        stats = finished_run.stats
        jobs = stats.completed_jobs
        waits = [j.wait_time for j in jobs if j.wait_time is not None]
        starts = [j.sim_start_time for j in jobs if j.sim_start_time is not None]
        ends = [j.sim_end_time for j in jobs if j.sim_end_time is not None]
        summary = stats.summary()
        assert summary["node_hours"] == pytest.approx(
            sum(j.job.nodes_required * (j.sim_duration or 0.0) for j in jobs) / 3600.0
        )
        assert summary["mean_wait_s"] == pytest.approx(sum(waits) / len(waits))
        assert summary["max_wait_s"] == pytest.approx(max(waits))
        assert summary["makespan_s"] == pytest.approx(max(ends) - min(starts))

    def test_empty_job_metrics(self):
        summary = StatsCollector().summary()
        assert summary["node_hours"] == 0.0
        assert summary["mean_wait_s"] == 0.0
        assert summary["max_wait_s"] == 0.0
        assert summary["makespan_s"] == 0.0


class TestJsonSafe:
    """The iterative, numpy-aware json_safe conversion."""

    def test_numpy_scalars_and_arrays(self):
        import numpy as np

        from repro.engine.stats import json_safe

        converted = json_safe(
            {
                "f": np.float64(1.5),
                "inf": np.float64("inf"),
                "i": np.int64(7),
                "b": np.bool_(True),
                "arr": np.array([1.0, float("inf"), float("nan"), 2.0]),
                "ints": np.array([1, 2, 3]),
                "nested": {"deep": [np.float32(0.25), float("-inf")]},
            }
        )
        assert converted == {
            "f": 1.5,
            "inf": None,
            "i": 7,
            "b": True,
            "arr": [1.0, None, None, 2.0],
            "ints": [1, 2, 3],
            "nested": {"deep": [0.25, None]},
        }
        json.dumps(converted, allow_nan=False)  # strict-JSON clean

    def test_key_order_preserved_with_nested_containers(self):
        from repro.engine.stats import json_safe

        value = {"first": [1.0], "second": 2.0, "third": {"a": 1}}
        assert list(json_safe(value)) == ["first", "second", "third"]

    def test_deeply_nested_does_not_recurse(self):
        import sys

        from repro.engine.stats import json_safe

        depth = sys.getrecursionlimit() + 100
        value = current = []
        for _ in range(depth):
            nested = []
            current.append(nested)
            current = nested
        current.append(float("inf"))
        converted = json_safe(value)
        for _ in range(depth):
            converted = converted[0]
        assert converted == [None]


class TestColumnAccessor:
    def test_column_matches_view_without_boxing(self):
        import numpy as np

        stats = StatsCollector()
        for i in range(5):
            _record(
                stats, 15.0 * i, 15.0, 100.0, 5.0,
                utilization=0.5, running_jobs=i, queued_jobs=0,
            )
        column = stats.column("running_jobs")
        assert isinstance(column, np.ndarray)
        assert column.tolist() == [0, 1, 2, 3, 4]
        assert int(column.max()) == 4
        with pytest.raises(KeyError):
            stats.column("nope")
