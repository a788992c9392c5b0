"""Observability layer: tracer, metrics, events, progress, CLI flags.

Two families of guarantees are covered here:

* the instruments themselves (span aggregation, Chrome-trace schema,
  metric snapshots, JSON-lines round-trip, heartbeat cadence), and
* the zero-interference contract — enabling every instrument must not
  change a single summary metric (``tests/test_contract.py`` holds the
  golden record to an instrumented run as well as a bare one).
"""

from __future__ import annotations

import io
import json
import logging
import math
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import pytest

from repro.engine.engine import SimulationEngine, run_simulation, ENGINE_PHASES
from repro.exceptions import ConfigurationError
from repro.power import OperatingSignals
from repro.obs import (
    EventLog,
    JsonLinesFormatter,
    MetricsRegistry,
    Observability,
    ProgressReporter,
    RUN_LOGGER_NAME,
    SpanTracer,
)

from helpers import stream_event_log


def _full_obs(stream: io.StringIO | None = None):
    """Every instrument on: tracer, metrics, stream events, callback progress."""
    snapshots = []
    obs = Observability(
        tracer=SpanTracer(),
        metrics=MetricsRegistry(),
        events=stream_event_log(stream if stream is not None else io.StringIO()),
        progress=ProgressReporter(interval_s=0.0, callback=snapshots.append),
    )
    return obs, snapshots


class TestSpanTracer:
    def test_add_chains_end_to_next_start(self):
        tracer = SpanTracer()
        t0 = perf_counter_ns()
        t1 = tracer.add("a", t0)
        t2 = tracer.add("b", t1)
        assert t0 <= t1 <= t2
        assert tracer.counts == {"a": 1, "b": 1}
        assert len(tracer) == 2

    def test_span_context_manager(self):
        tracer = SpanTracer()
        with tracer.span("run"):
            pass
        assert tracer.counts["run"] == 1
        assert tracer.totals_ns["run"] >= 0

    def test_max_events_caps_retention_not_aggregates(self):
        tracer = SpanTracer(max_events=3)
        start = perf_counter_ns()
        for _ in range(5):
            start = tracer.add("x", start)
        assert len(tracer) == 3
        assert tracer.dropped_events == 2
        assert tracer.counts["x"] == 5

    def test_phase_report_shares_sum_to_one_excluding_run(self):
        tracer = SpanTracer()
        start = perf_counter_ns()
        with tracer.span("run"):
            for name in ("schedule", "power"):
                start = tracer.add(name, start)
        report = tracer.phase_report()
        assert "share" not in report["run"]
        leaf_shares = [row["share"] for name, row in report.items() if name != "run"]
        assert math.isclose(sum(leaf_shares), 1.0, rel_tol=1e-12)

    def test_chrome_trace_schema(self, tmp_path):
        tracer = SpanTracer()
        start = perf_counter_ns()
        for name in ("schedule", "power"):
            start = tracer.add(name, start)
        path = tmp_path / "trace.json"
        tracer.to_chrome_trace(path)
        payload = json.loads(path.read_text())
        assert isinstance(payload["traceEvents"], list)
        assert payload["displayTimeUnit"] == "ms"
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"schedule", "power"}
        for event in complete:
            assert event["ts"] >= 0.0 and event["dur"] >= 0.0
            assert event["pid"] == 1 and event["tid"] == 1
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in meta)


class TestMetricsRegistry:
    def test_counter_gauge_histogram_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("steps_total").inc(3)
        registry.gauge("depth").set(2.0)
        registry.gauge("depth").set(1.0)
        hist = registry.histogram("span_us")
        for value in (5.0, 50.0, 500.0):
            hist.observe(value)
        snap = registry.snapshot()
        assert snap["counters"]["steps_total"] == 3
        assert snap["gauges"]["depth"] == {"value": 1.0, "max": 2.0}
        hsnap = snap["histograms"]["span_us"]
        assert hsnap["count"] == 3
        assert hsnap["min"] == 5.0 and hsnap["max"] == 500.0

    def test_get_or_create_and_kind_conflict(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        assert registry.counter("x") is counter
        with pytest.raises(ConfigurationError):
            registry.gauge("x")
        assert "x" in registry and len(registry) == 1

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("x").inc(-1)

    def test_histogram_quantiles(self):
        hist = MetricsRegistry().histogram("h")
        for value in range(1, 101):
            hist.observe(float(value))
        assert hist.mean == pytest.approx(50.5)
        assert 0 < hist.quantile(0.5) <= hist.quantile(0.99)

    def test_json_and_csv_export(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("a_total").inc()
        registry.gauge("b").set(4.0)
        json_path = tmp_path / "m.json"
        csv_path = tmp_path / "m.csv"
        registry.to_json(json_path)
        registry.to_csv(csv_path)
        assert json.loads(json_path.read_text())["counters"]["a_total"] == 1
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == "kind,name,field,value"
        assert any(row.startswith("counter,a_total,") for row in rows)


class TestEventLog:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog.to_jsonl(path) as events:
            events.milestone("run_started", 0.0, system="tiny")
            events.emit("custom", t_s=1.0, value=float("inf"))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["event"] for line in lines] == ["run_started", "custom"]
        assert lines[0]["system"] == "tiny"
        assert lines[1]["value"] is None  # non-finite floats -> null

    def test_no_handler_means_no_emission(self):
        logger = logging.getLogger("repro.test_obs_disabled")
        logger.setLevel(logging.WARNING)
        events = EventLog(logger)
        events.emit("ignored")
        assert events.events_emitted == 0

    def test_close_restores_logger_level(self):
        logger = logging.getLogger(RUN_LOGGER_NAME)
        before = logger.level
        events = stream_event_log(io.StringIO())
        assert logger.getEffectiveLevel() <= logging.INFO
        events.close()
        assert logger.level == before

    def test_formatter_handles_plain_records(self):
        formatter = JsonLinesFormatter()
        record = logging.LogRecord("x", logging.WARNING, __file__, 1, "plain", (), None)
        payload = json.loads(formatter.format(record))
        assert payload == {"event": "plain", "level": "warning"}


class TestProgressReporter:
    def test_zero_interval_reports_every_step(self):
        obs, snapshots = _full_obs()
        result = run_simulation("tiny", duration="1h", seed=7, obs=obs)
        obs.events.close()
        steps = int(result.summary()["ticks"])
        assert len(snapshots) == steps + 1  # every step + the final report
        final = snapshots[-1]
        assert final.final and final.fraction_done == 1.0
        assert final.steps == steps
        assert "[progress]" in final.format_line()

    def test_huge_interval_reports_only_final(self):
        snapshots = []
        obs = Observability(
            progress=ProgressReporter(interval_s=3600.0, callback=snapshots.append)
        )
        run_simulation("tiny", duration="1h", seed=7, obs=obs)
        assert len(snapshots) == 1 and snapshots[-1].final

    def test_stream_heartbeats(self):
        stream = io.StringIO()
        obs = Observability(progress=ProgressReporter(interval_s=0.0, stream=stream))
        run_simulation("tiny", duration="1h", seed=7, obs=obs)
        lines = stream.getvalue().splitlines()
        assert lines and all(line.startswith("[progress]") for line in lines)


class TestEngineIntegration:
    @pytest.fixture(scope="class")
    def instrumented(self):
        stream = io.StringIO()
        obs, snapshots = _full_obs(stream)
        result = run_simulation("tiny", duration="2h", seed=3, obs=obs)
        obs.events.close()
        return obs, snapshots, stream, result

    def test_summary_identical_with_and_without_obs(self, instrumented):
        _, _, _, result = instrumented
        bare = run_simulation("tiny", duration="2h", seed=3)
        assert bare.summary() == result.summary()

    def test_all_phases_traced_nonzero(self, instrumented):
        obs, _, _, result = instrumented
        steps = int(result.summary()["ticks"])
        for phase in ENGINE_PHASES:
            assert obs.tracer.counts[phase] == steps
            assert obs.tracer.totals_ns[phase] > 0
        assert obs.tracer.counts["run"] == 1

    def test_chrome_trace_loads_with_all_phases(self, instrumented, tmp_path):
        obs, _, _, _ = instrumented
        path = tmp_path / "engine_trace.json"
        obs.tracer.to_chrome_trace(path)
        payload = json.loads(path.read_text())
        names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert set(ENGINE_PHASES) | {"run"} <= names

    def test_metrics_published_once(self, instrumented):
        obs, _, _, result = instrumented
        snap = obs.metrics.snapshot()
        summary = result.summary()
        assert snap["counters"]["engine_steps_total"] == summary["ticks"]
        assert snap["counters"]["engine_jobs_completed_total"] == summary["jobs_completed"]
        assert snap["counters"]["rm_journal_appends_total"] > 0
        assert snap["counters"]["events_emitted_total"] > 0
        assert snap["gauges"]["engine_running_jobs_peak"]["max"] >= 1
        for phase in ENGINE_PHASES:
            assert snap["histograms"][f"engine_phase_{phase}_us"]["count"] > 0

    def test_event_log_round_trips_job_lifecycle(self, instrumented):
        _, _, stream, result = instrumented
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        kinds = [line["event"] for line in lines]
        assert kinds[0] == "run_started" and kinds[-1] == "run_finished"
        finished = [l for l in lines if l["event"] == "job_finished"]
        assert len(finished) == int(result.summary()["jobs_completed"])
        for line in finished:
            assert line["runtime_s"] > 0 and line["wait_s"] >= 0
            assert line["energy_kwh"] > 0
            assert line["nodes"] >= 1
        started = [l for l in lines if l["event"] == "job_started"]
        assert {l["job_id"] for l in finished} <= {l["job_id"] for l in started}

    def test_dismissed_jobs_emit_events(self, tiny_system, job_factory):
        stream = io.StringIO()
        events = stream_event_log(stream)
        oversized = job_factory(nodes=tiny_system.total_nodes + 1, submit=0.0)
        engine = SimulationEngine(
            tiny_system, [oversized], "fcfs", obs=Observability(events=events)
        )
        engine.run()
        events.close()
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert any(line["event"] == "job_dismissed" for line in lines)

    def test_capped_run_logs_each_job_ending_once(self):
        # A 12 kW cap dismisses infeasible jobs and the horizon cuts the
        # rest: every job id ends exactly once in the log, and every
        # dismissal carries the reason its run record holds.
        stream = io.StringIO()
        with stream_event_log(stream) as events:
            result = run_simulation(
                "tiny", policy="fcfs", duration="2h", seed=1, horizon="3h",
                signals=OperatingSignals.constant(power_cap_kw=12.0),
                obs=Observability(events=events),
            )
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        endings = Counter(
            line["job_id"]
            for line in lines
            if line["event"] in ("job_finished", "job_dismissed")
        )
        assert endings == Counter(run.job_id for run in result.jobs)
        run_of = {run.job_id: run for run in result.jobs}
        dismissals = [line for line in lines if line["event"] == "job_dismissed"]
        reasons = {line["reason"].split(":")[0] for line in dismissals}
        assert reasons == {"power cap infeasible", "simulation horizon reached"}
        for line in dismissals:
            assert line["reason"] == run_of[line["job_id"]].dismiss_reason


def _glossary_names() -> set[str]:
    """Metric names of the README's metrics glossary table, with the
    ``engine_phase_<phase>_us`` row expanded over the engine phases."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    names: set[str] = set()
    for line in text.split("### Metrics glossary", 1)[1].splitlines():
        if not line.startswith("| `"):
            if names:
                break  # the end of the table
            continue
        name = line.split("`")[1]
        if name == "engine_phase_<phase>_us":
            names.update(f"engine_phase_{phase}_us" for phase in ENGINE_PHASES)
        else:
            names.add(name)
    return names


class TestMetricsGlossary:
    def test_glossary_lists_exactly_the_published_metrics(self):
        # repro-lint finds a metric missing from the table; this finds a
        # row no run publishes. One fully instrumented run per policy and
        # one capped run publish every metric the engine has.
        runs = [{"policy": policy} for policy in ("replay", "fcfs", "backfill")]
        runs.append(
            {"policy": "backfill", "signals": OperatingSignals.constant(power_cap_kw=20.0)}
        )
        published: set[str] = set()
        for kwargs in runs:
            obs, _ = _full_obs()
            run_simulation("tiny", duration="2h", seed=3, obs=obs, **kwargs)
            obs.events.close()
            published.update(
                name for kind in obs.metrics.snapshot().values() for name in kind
            )
        assert _glossary_names() == published


class TestObservabilityBundle:
    def test_enabled_property(self):
        assert not Observability().enabled
        assert Observability(tracer=SpanTracer()).enabled


class TestCLIObservability:
    def test_flags_write_all_artifacts(self, tmp_path, capsys):
        from repro.engine.cli import main

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        events = tmp_path / "events.jsonl"
        code = main([
            "--system", "tiny", "--duration", "1h", "--seed", "5",
            "--trace-out", str(trace),
            "--metrics-out", str(metrics),
            "--log-json", str(events),
        ])
        assert code == 0
        payload = json.loads(trace.read_text())
        names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert set(ENGINE_PHASES) <= names
        snap = json.loads(metrics.read_text())
        assert snap["counters"]["engine_steps_total"] > 0
        lines = [json.loads(line) for line in events.read_text().splitlines()]
        assert lines[0]["event"] == "run_started"
        assert "mean PUE" in capsys.readouterr().out

    def test_metrics_csv_by_extension(self, tmp_path):
        from repro.engine.cli import main

        path = tmp_path / "metrics.csv"
        assert main([
            "--system", "tiny", "--duration", "1h", "--quiet",
            "--metrics-out", str(path),
        ]) == 0
        assert path.read_text().startswith("kind,name,field,value")

    def test_progress_flag_writes_heartbeats_to_stderr(self, capsys):
        from repro.engine.cli import main

        assert main(["--system", "tiny", "--duration", "1h", "--quiet",
                     "--progress"]) == 0
        err = capsys.readouterr().err
        assert "[progress]" in err and "100.0%" in err

    def test_verbose_streams_events_to_stderr(self, capsys):
        from repro.engine.cli import main

        assert main(["--system", "tiny", "--duration", "1h", "--quiet", "-v"]) == 0
        err = capsys.readouterr().err
        assert "run_started" in err and "job_finished" in err

    def test_verbose_handler_does_not_leak(self, capsys):
        from repro.engine.cli import main

        main(["--system", "tiny", "--duration", "1h", "--quiet", "-v"])
        capsys.readouterr()
        logging.getLogger("repro.cli").error("should not appear")
        assert logging.getLogger("repro").handlers == []

    def test_invalid_mode_rejected_at_parse_time(self, capsys):
        from repro.engine.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--mode", "bogus"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_easy_mode_alias_accepted(self, capsys):
        from repro.engine.cli import main

        assert main(["--system", "tiny", "--duration", "1h", "--mode", "easy",
                     "--quiet"]) == 0


class TestPrintReport:
    def test_missing_keys_render_as_na(self, capsys):
        from repro.engine.cli import _print_report

        _print_report("fcfs", "tiny", {"jobs_completed": 3.0})
        out = capsys.readouterr().out
        assert "jobs completed    3" in out
        assert "n/a" in out

    def test_infinite_pue_renders_as_idle(self, capsys):
        from repro.engine.cli import _print_report

        _print_report("fcfs", "tiny", {"max_pue": float("inf"), "mean_pue": 1.05})
        out = capsys.readouterr().out
        assert "n/a (idle)" in out
        assert "1.0500" in out
