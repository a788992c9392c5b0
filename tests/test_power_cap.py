"""Tests for power-capped operation: ``PowerCapScheduler`` end to end.

The tiny system has an 8.0 kW idle floor and tops out around 16.3 kW of
compute power on the default 2 h seed-1 workload, so caps in the 9-16 kW
band actually bind: 14 kW only delays jobs, 12 kW and below makes some
jobs infeasible outright.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro import OperatingSignals, PowerCapScheduler, run_simulation
from repro.cluster import ResourceManager
from repro.config import get_system_config
from repro.engine import FCFSScheduler, SimulationEngine
from repro.exceptions import ConfigurationError, SchedulingError
from repro.obs import EventLog, Observability
from repro.power import SystemPowerModel
from repro.telemetry import JobState
from repro.workloads import SyntheticWorkloadGenerator, busy_trace_spec

from helpers import idle_floor_kw, make_job


def _run(policy="fcfs", *, signals=None, dense_ticks=False, seed=1):
    return run_simulation(
        system="tiny",
        policy=policy,
        duration="2h",
        seed=seed,
        signals=signals,
        dense_ticks=dense_ticks,
    )


class TestAutoWrap:
    def test_capped_signals_wrap_the_policy(self):
        result = _run(signals=OperatingSignals.constant(power_cap_kw=14.0))
        assert result.policy == "power_cap(fcfs)"

    def test_capless_signals_do_not_wrap(self):
        result = _run(signals=OperatingSignals.constant(price_per_kwh=0.1))
        assert result.policy == "fcfs"

    def test_uncapped_run_keeps_zero_defaults(self):
        summary = _run().summary()
        assert summary["energy_cost"] == 0.0
        assert summary["carbon_kg"] == 0.0
        assert summary["cap_violation_kwh"] == 0.0
        assert summary["capped_hold_s"] == 0.0


class TestConstantCap:
    def test_loose_cap_changes_nothing(self):
        baseline = _run().summary()
        capped = _run(signals=OperatingSignals.constant(power_cap_kw=500.0)).summary()
        for key, value in baseline.items():
            if key in ("energy_cost", "carbon_kg"):
                continue
            assert capped[key] == pytest.approx(value, rel=1e-9), key

    def test_binding_cap_holds_jobs(self):
        result = _run(signals=OperatingSignals.constant(power_cap_kw=14.0))
        summary = result.summary()
        assert summary["capped_hold_s"] > 0.0
        assert not result.stats.dismissed_jobs
        # Every job still completes, just later.
        assert len(result.stats.completed_jobs) == len(result.jobs)
        assert summary["mean_wait_s"] > _run().summary()["mean_wait_s"]

    def test_tight_cap_dismisses_infeasible_jobs(self):
        result = _run(signals=OperatingSignals.constant(power_cap_kw=12.0))
        assert result.stats.dismissed_jobs
        for run in result.stats.dismissed_jobs:
            assert run.state is JobState.DISMISSED
            assert run.dismiss_reason.startswith("power cap infeasible")

    @pytest.mark.parametrize("cap_kw", [14.0, 12.0, 10.0, 8.5])
    def test_constant_cap_never_violated(self, cap_kw):
        """The admission check is exact: compute power stays under the cap."""
        result = _run(signals=OperatingSignals.constant(power_cap_kw=cap_kw))
        assert result.summary()["cap_violation_kwh"] == 0.0
        compute_kw = result.stats.column("compute_power_kw")
        assert np.all(compute_kw <= cap_kw + 1e-9)

    def test_cap_below_incremental_dismisses_most_jobs(self):
        # 8.5 kW leaves 0.5 kW of headroom over the 8.0 kW idle floor:
        # almost nothing fits, and infeasible jobs are dismissed on sight
        # (never merely held), so no hold time accrues.
        result = _run(signals=OperatingSignals.constant(power_cap_kw=8.5))
        summary = result.summary()
        assert len(result.stats.dismissed_jobs) == 16
        assert len(result.stats.completed_jobs) == len(result.jobs) - 16
        assert summary["capped_hold_s"] == 0.0


class TestCostAndCarbon:
    def test_energy_cost_matches_manual_integral(self):
        signals = OperatingSignals(
            price_per_kwh=((0.0, 0.08), (1800.0, 0.24), (5400.0, 0.08)),
            carbon_kg_per_kwh=((0.0, 0.35),),
        )
        result = _run(signals=signals)
        stats = result.stats
        time_s = stats.column("time_s")
        dt_s = stats.column("dt_s")
        facility_kw = stats.column("facility_power_kw")
        prices = np.asarray([signals.price_at(t) for t in time_s])
        expected_cost = float(np.sum(facility_kw * prices * dt_s / 3600.0))
        expected_carbon = float(np.sum(facility_kw * 0.35 * dt_s / 3600.0))
        summary = result.summary()
        assert summary["energy_cost"] == pytest.approx(expected_cost, rel=1e-9)
        assert summary["carbon_kg"] == pytest.approx(expected_carbon, rel=1e-9)
        # Sanity: carbon tracks total energy directly.
        assert summary["carbon_kg"] == pytest.approx(
            0.35 * summary["total_energy_kwh"], rel=1e-9
        )

    def test_price_steps_are_coalescing_breakpoints(self):
        """A price step mid-run must bound an event-engine interval, so the
        dense and event engines integrate the exact same cost."""
        signals = OperatingSignals(price_per_kwh=((0.0, 0.05), (1234.5, 0.50)))
        event = _run(signals=signals).summary()
        dense = _run(signals=signals, dense_ticks=True).summary()
        assert event["energy_cost"] == pytest.approx(dense["energy_cost"], rel=1e-9)


class TestDemandResponse:
    def test_cap_window_only_binds_inside_the_window(self):
        signals = OperatingSignals.cap_window(1800.0, 3600.0, 10.0)
        result = _run(signals=signals)
        assert result.policy == "power_cap(fcfs)"
        summary = result.summary()
        # The cap lifts afterwards, so nothing is infeasible forever.
        assert not result.stats.dismissed_jobs
        assert summary["capped_hold_s"] > 0.0
        # Violations can only accrue inside the window, from jobs already
        # running when the cap drops (the scheduler never kills jobs).
        stats = result.stats
        time_s = stats.column("time_s")
        compute_kw = stats.column("compute_power_kw")
        outside = (time_s < 1800.0) | (time_s >= 3600.0)
        caps = np.asarray([signals.cap_at(t) for t in time_s])
        assert np.all(np.isinf(caps[outside]))


class TestMeanUtilWeighting:
    def test_cpu_gpu_means_are_dt_weighted(self):
        """Event and dense runs must agree on mean_cpu_util/mean_gpu_util:
        only a dt-weighted mean is invariant to sample coalescing."""
        event = _run().summary()
        dense = _run(dense_ticks=True).summary()
        assert event["mean_cpu_util"] == pytest.approx(dense["mean_cpu_util"], rel=1e-9)
        assert event["mean_gpu_util"] == pytest.approx(dense["mean_gpu_util"], rel=1e-9)
        assert 0.0 <= event["mean_cpu_util"] <= 1.0


class TestSchedulerUnit:
    def test_explicit_wrapper_instance(self, tiny_system):
        jobs = [make_job(nodes=4, submit=0.0, duration=600.0)]
        scheduler = PowerCapScheduler(
            FCFSScheduler(), OperatingSignals.constant(power_cap_kw=14.0)
        )
        engine = SimulationEngine(
            tiny_system,
            jobs,
            scheduler,
            signals=OperatingSignals.constant(power_cap_kw=14.0),
        )
        result = engine.run()
        assert result.policy == "power_cap(fcfs)"
        assert [j.state for j in result.jobs] == [JobState.COMPLETED]

    def test_wrapper_instance_brings_its_signals(self, tiny_system):
        # A cap for 3-7 h and a price step at 6 h. The wrapper passed as the
        # policy enforces its cap; the run must also record that cap, price
        # and carbon, exactly as when the engine wraps the policy itself.
        signals = OperatingSignals(
            power_cap_kw=((0.0, None), (3 * 3600.0, 12.0), (7 * 3600.0, None)),
            price_per_kwh=((0.0, 0.1), (6 * 3600.0, 0.3)),
            carbon_kg_per_kwh=((0.0, 0.35),),
        )
        jobs = SyntheticWorkloadGenerator(tiny_system, busy_trace_spec(), seed=3).generate(
            12 * 3600.0
        )
        wrapped = SimulationEngine(tiny_system, jobs, "fcfs", signals=signals).run()
        instance = SimulationEngine(
            tiny_system, jobs, PowerCapScheduler(FCFSScheduler(), signals)
        ).run()
        summary = instance.summary()
        assert summary["cap_violation_kwh"] > 0.0
        assert summary["energy_cost"] > 0.0
        assert summary == wrapped.summary()

    def test_wrapper_instance_with_other_signals_is_rejected(self, tiny_system):
        scheduler = PowerCapScheduler(
            FCFSScheduler(), OperatingSignals.constant(power_cap_kw=14.0)
        )
        jobs = [make_job(nodes=4, submit=0.0, duration=600.0)]
        with pytest.raises(ConfigurationError, match="PowerCapScheduler"):
            SimulationEngine(
                tiny_system,
                jobs,
                scheduler,
                signals=OperatingSignals.constant(power_cap_kw=12.0),
            )

    def test_unbound_power_model_raises(self, tiny_system):
        scheduler = PowerCapScheduler(
            FCFSScheduler(), OperatingSignals.constant(power_cap_kw=14.0)
        )
        rm = ResourceManager(tiny_system)
        job = make_job(nodes=2, submit=0.0, duration=600.0)
        with pytest.raises(SchedulingError, match="bind_power_model"):
            scheduler.schedule([job], rm, 0.0)

    def test_observability_counters(self):
        result = _run(signals=OperatingSignals.constant(power_cap_kw=12.0))
        # Counters are surfaced through the run's summary side-channel: use
        # a fresh engine to inspect the scheduler directly instead.
        signals = OperatingSignals.constant(power_cap_kw=12.0)
        scheduler = PowerCapScheduler(FCFSScheduler(), signals)
        counters = scheduler.observability_counters()
        assert counters["cap_hold_events"] == 0
        assert counters["cap_dismissed_jobs"] == 0
        assert result.stats.dismissed_jobs  # the end-to-end effect of the counter path

    def test_reset_clears_cap_state(self, tiny_system):
        signals = OperatingSignals.constant(power_cap_kw=14.0)
        scheduler = PowerCapScheduler(FCFSScheduler(), signals)
        scheduler.bind_power_model(SystemPowerModel(tiny_system), ResourceManager(tiny_system))
        scheduler._held = 3
        scheduler._committed_kw = {1: 2.0}
        scheduler._committed_total_kw = 2.0
        scheduler.reset()
        assert scheduler.held_jobs() == 0
        assert scheduler._committed_kw == {}
        assert scheduler._committed_total_kw == 0.0

    def test_next_event_hint_vetoes_coalescing_while_holding(self):
        signals = OperatingSignals.constant(power_cap_kw=14.0)
        scheduler = PowerCapScheduler(FCFSScheduler(), signals)
        scheduler._held = 1
        assert scheduler.next_event_hint([], 123.0) == 123.0
        scheduler._held = 0
        base_hint = FCFSScheduler().next_event_hint([], 123.0)
        assert scheduler.next_event_hint([], 123.0) == base_hint


class TestIdleFloor:
    """The cap's idle floor is every in-service node at its idle draw."""

    @pytest.mark.parametrize(
        "cap_kw, dismissed_headroom",
        [(5.0, None), (3.9, "-0.100")],
        ids=["fits", "below_floor"],
    )
    def test_down_nodes_leave_the_floor(self, tiny_system, cap_kw, dismissed_headroom):
        # Half of tiny's 32 nodes are down: the 16 in service idle at 4.0
        # kW, which the power model charges and the floor counts. A 2-node
        # job fits under a 5 kW cap; under 3.9 kW the floor alone leaves
        # -0.1 kW of headroom.
        system = tiny_system.with_overrides(down_node_fraction=0.5)
        job = make_job(nodes=2, submit=0.0, duration=600.0)
        signals = OperatingSignals.constant(power_cap_kw=cap_kw)
        [run] = SimulationEngine(system, [job], "fcfs", signals=signals).run().jobs
        if dismissed_headroom is None:
            assert run.state is JobState.COMPLETED
        else:
            assert run.state is JobState.DISMISSED
            assert f"headroom {dismissed_headroom} kW" in run.dismiss_reason


class TestDismissalCoalescing:
    """Regression: a dismissal must bound coalescing like a hold does.

    Dismissing a blocked queue head removes it from the queue *after* the
    base policy ran, so the jobs behind it can start on the very next grid
    tick — which a dense run acts on immediately. The event-driven run used
    to coalesce straight past that tick (the pass held nothing, so the
    hint deferred to the base policy's "quiescent" contract) and start the
    unblocked job only at the next natural event, thousands of seconds
    late.
    """

    def _jobs(self, tiny_system):
        light = dict(cpu=0.1, gpu=0.0)
        return [
            # Occupies most of the machine well past the dismissal point, so
            # an unfixed event-driven run has a far-away end to coalesce to.
            make_job(nodes=20, submit=0.0, start=0.0, duration=7200.0, wall_limit=7200.0, **light),
            # Frees its nodes at t=600, which is when the blocked head is
            # first proposed (and dismissed).
            make_job(nodes=8, submit=0.0, start=0.0, duration=600.0, wall_limit=600.0, **light),
            # Power-hungry head: node-blocked until t=600 (only 4 nodes
            # free), cap-infeasible once proposed.
            make_job(
                nodes=8, submit=10.0, start=10.0, duration=3600.0, wall_limit=3600.0,
                cpu=1.0, gpu=1.0,
            ),
            # Waits behind the head (too wide for the 4 free nodes);
            # startable the tick after the head is dismissed.
            make_job(nodes=6, submit=20.0, start=20.0, duration=900.0, wall_limit=9000.0, **light),
        ]

    def _cap_kw(self, tiny_system, jobs):
        model = SystemPowerModel(tiny_system)

        def incr(job):
            peak_w = model.job_peak_power_w(job)
            idle_w = model.node_model(job.partition).config.min_w * job.nodes_required
            return max(0.0, (peak_w - idle_w) / 1000.0)

        light_load = incr(jobs[0]) + max(incr(jobs[1]), incr(jobs[3]))
        hungry = incr(jobs[2])
        # The scenario needs the light jobs to co-run under a cap the
        # hungry job can never fit below.
        assert light_load < 0.9 * hungry
        return idle_floor_kw(tiny_system) + 0.9 * hungry

    def test_dismissal_unblocks_queue_without_coalescing_past_it(self, tiny_system):
        results = {}
        for dense in (True, False):
            jobs = self._jobs(tiny_system)
            signals = OperatingSignals.constant(power_cap_kw=self._cap_kw(tiny_system, jobs))
            engine = SimulationEngine(
                tiny_system, jobs, "backfill", signals=signals, dense_ticks=dense
            )
            results[dense] = engine.run()

        for result in results.values():
            [dismissed] = result.stats.dismissed_jobs
            assert dismissed.job.nodes_required == 8
            assert "power cap infeasible" in dismissed.dismiss_reason
            # The trailing 6-node job starts on the first grid tick after
            # the head's dismissal at t=600, not at the next natural event
            # (the 20-node job's end at t=7200).
            trailing = next(
                j for j in result.stats.completed_jobs if j.job.nodes_required == 6
            )
            assert trailing.sim_start_time == 615.0

        dense_summary = results[True].summary()
        event_summary = results[False].summary()
        for key, value in dense_summary.items():
            if key == "ticks":
                continue
            assert event_summary[key] == pytest.approx(value, rel=1e-9, abs=1e-12), key


class TestEquivalenceUnderCaps:
    @pytest.mark.parametrize("policy", ["replay", "fcfs", "backfill"])
    def test_dense_event_equal_under_stepped_signals(self, policy):
        signals = OperatingSignals(
            power_cap_kw=((0.0, 12.0), (3600.0, 14.5), (7000.3, 11.0)),
            price_per_kwh=((0.0, 0.1), (5400.0, 0.3)),
            carbon_kg_per_kwh=((0.0, 0.25),),
        )
        event = _run(policy, signals=signals).summary()
        dense = _run(policy, signals=signals, dense_ticks=True).summary()
        for key, value in dense.items():
            if key == "ticks":
                continue
            assert event[key] == pytest.approx(value, rel=1e-9, abs=1e-12), key


class TestReplayUnderCap:
    """A replay job the cap holds starts at the tick that admits it.

    busy_trace seed 3 under an 18 kW cap: the cap holds replay proposals,
    and a held job must not be backdated to its recorded start once a later
    tick admits it.
    """

    @staticmethod
    def _run(power_cap_kw, dense_ticks):
        system = get_system_config("tiny")
        jobs = SyntheticWorkloadGenerator(system, busy_trace_spec(), seed=3).generate(
            6 * 3600.0
        )
        signals = (
            OperatingSignals.constant(power_cap_kw=power_cap_kw)
            if power_cap_kw is not None
            else None
        )
        stream = io.StringIO()
        with EventLog.to_stream(stream) as events:
            result = SimulationEngine(
                system,
                jobs,
                "replay",
                signals=signals,
                horizon_s=12 * 3600.0,
                dense_ticks=dense_ticks,
                obs=Observability(events=events),
            ).run()
        admitted_at = {
            event["job_id"]: event["t_s"]
            for event in map(json.loads, stream.getvalue().splitlines())
            if event["event"] == "job_started"
        }
        return system, result, admitted_at

    @pytest.mark.parametrize("dense_ticks", [False, True], ids=["event", "dense"])
    @pytest.mark.parametrize("power_cap_kw", [None, 18.0], ids=["uncapped", "capped"])
    def test_no_start_a_tick_before_its_admission(self, power_cap_kw, dense_ticks):
        system, result, admitted_at = self._run(power_cap_kw, dense_ticks)
        delayed = 0
        for run in result.jobs:
            if run.job_id not in admitted_at:
                continue
            tick_s = admitted_at[run.job_id]
            assert run.sim_start_time > tick_s - system.timestep_s, run.job_id
            if run.replay_delayed:
                delayed += 1
                assert run.sim_start_time == tick_s
            else:
                assert run.sim_start_time == run.job.start_time
        if power_cap_kw is not None:
            assert result.summary()["capped_hold_s"] > 0.0
            assert delayed > 0

    def test_dense_equals_event(self):
        _, event, _ = self._run(18.0, dense_ticks=False)
        _, dense, _ = self._run(18.0, dense_ticks=True)
        for key, value in dense.summary().items():
            if key == "ticks":
                continue
            assert event.summary()[key] == pytest.approx(value, rel=1e-9, abs=1e-12), key
        assert [(j.state, j.sim_start_time) for j in event.jobs] == [
            (j.state, j.sim_start_time) for j in dense.jobs
        ]
