"""Self-time tracer for the benchmark's per-layer run.

:class:`LayerTracer` wraps each layer's public entry points from outside the
program (nothing under ``src/`` knows it exists), charges every wrapped call
its *self* time — its process CPU time minus the time of the wrapped calls it
made — and counts calls. After every engine run it harvests the counters
the program already publishes (``observability_counters()`` of the
resource manager, the power aggregator and the scheduler). :func:`layer_metrics`
folds both into the ``per_layer`` metrics that ``BENCHMARK.json`` names.

Self times use :func:`time.process_time`, the same clock as the end-to-end
``cpu_s``, so the layer self times of one call add up to (almost all of) its
traced CPU time. The wrappers cost CPU time of their own; the benchmark
reports that cost as ``trace.overhead_s``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable


def _targets() -> list[tuple[str, object, str]]:
    """``(span, owner, attribute)`` for every wrapped entry point.

    Imported lazily so that importing this module does not import ``repro``.
    """
    import repro
    from repro.cluster import ResourceManager
    from repro.cooling import CoolingPlant
    from repro.engine import scheduler
    from repro.engine.engine import SimulationEngine
    from repro.engine.stats import StatsCollector
    from repro.power import system_power
    from repro.power.signals import OperatingSignals
    from repro.sweep import RunRequest
    from repro.sweep.store import ResultsStore
    from repro.workloads import SyntheticWorkloadGenerator

    policies = (
        scheduler.ReplayScheduler,
        scheduler.FCFSScheduler,
        scheduler.BackfillScheduler,
        scheduler.PowerCapScheduler,
    )
    return [
        ("workloads.generate", SyntheticWorkloadGenerator, "generate"),
        ("engine.construct", SimulationEngine, "__init__"),
        ("engine.run", SimulationEngine, "run"),
        ("engine.step", SimulationEngine, "step"),
        *(("scheduler.schedule", policy, "schedule") for policy in policies),
        *(("scheduler.hint", policy, "next_event_hint") for policy in policies),
        ("cluster.allocate", ResourceManager, "allocate"),
        ("cluster.release", ResourceManager, "complete_finished_jobs"),
        ("power.build_states", system_power, "build_power_states"),
        ("power.sample", system_power.RunningSetPowerAggregator, "sample"),
        (
            "power.next_breakpoint",
            system_power.RunningSetPowerAggregator,
            "next_breakpoint_after",
        ),
        ("power.signals", OperatingSignals, "values_at"),
        ("power.signals", OperatingSignals, "next_change_after"),
        ("cooling.step", CoolingPlant, "step"),
        ("stats.record_tick", StatsCollector, "record_tick"),
        ("stats.record_job", StatsCollector, "record_job"),
        ("stats.summary", StatsCollector, "summary"),
        ("sweep.to_json", RunRequest, "to_json"),
        ("sweep.from_json", RunRequest, "from_json_dict"),
        ("sweep.store_write", ResultsStore, "record_completed"),
        ("sweep.store_read", ResultsStore, "runs"),
        ("sweep.store_read", ResultsStore, "known_run_ids"),
        ("sweep.driver", repro, "run_sweep"),
    ]


def _harvest_engine(tracer: "LayerTracer", args: tuple[Any, ...], result: Any) -> None:
    """After ``SimulationEngine.run``: fold in the run's published counters."""
    engine = args[0]
    counters = tracer.counters
    steps = len(engine.stats.ticks)
    counters["engine.steps"] += steps
    counters["engine.grid_ticks"] += int(
        round(engine.stats.elapsed_s / float(engine.system.timestep_s))
    )
    for prefix, component in (
        ("rm", engine.resource_manager),
        ("power", engine.power_aggregator),
        ("sched", engine.scheduler),
    ):
        for name, value in component.observability_counters().items():
            counters[f"{prefix}.{name}"] += value


def _count_items(key: str) -> Callable[["LayerTracer", tuple[Any, ...], Any], None]:
    def after(tracer: "LayerTracer", args: tuple[Any, ...], result: Any) -> None:
        tracer.counters[key] += len(result)

    return after


_AFTER: dict[str, Callable[["LayerTracer", tuple[Any, ...], Any], None]] = {
    "engine.run": _harvest_engine,
    "workloads.generate": _count_items("workloads.jobs"),
    "power.build_states": _count_items("power.states_in_builds"),
}


class LayerTracer:
    """Installs self-time wrappers on entry, removes every one on exit.

    Use as a context manager around the traced call::

        with LayerTracer() as tracer:
            run_request(request)
        tracer.self_s["engine.step"]

    ``self_s`` maps a span to its summed self time (s), ``calls`` to its
    outermost calls (a policy calling its base policy's ``schedule`` is one
    call), ``useful`` to the outermost calls with a non-empty result, and
    ``counters`` holds the program's own counters summed over every engine
    run.
    """

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.useful: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self._stack: list[list[Any]] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- install / remove ------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.remove()

    def install(self) -> None:
        """Wrap every target; module functions are replaced in every ``repro``
        module that holds them, so callers that imported them by name see the
        wrapper too."""
        try:
            for span, owner, attr in _targets():
                raw = inspect.getattr_static(owner, attr)
                if inspect.ismodule(owner):
                    wrapped = self._wrap(span, raw)
                    for module in list(sys.modules.values()):
                        name = getattr(module, "__name__", "")
                        if (name == "repro" or name.startswith("repro.")) and (
                            vars(module).get(attr) is raw
                        ):
                            self._patch(module, attr, raw, wrapped)
                elif isinstance(raw, classmethod):
                    self._patch(
                        owner, attr, raw, classmethod(self._wrap(span, raw.__func__))
                    )
                else:
                    self._patch(owner, attr, raw, self._wrap(span, raw))
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, raw, own = self._patches.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def _patch(self, owner: object, attr: str, raw: object, wrapped: object) -> None:
        own = attr in vars(owner)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw, own))

    # -- the wrapper -----------------------------------------------------------

    def _wrap(self, span: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        clock = time.process_time
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        useful = self.useful
        # A schedule() pass is useful when it starts at least one job.
        count_useful = span == "scheduler.schedule"
        after = _AFTER.get(span)
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            outermost = not stack or stack[-1][0] != span
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[span] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if outermost:
                calls[span] += 1
                if count_useful and result:
                    useful[span] += 1
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    # -- results ---------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Every count the trace produced (they must repeat exactly)."""
        merged = {f"calls.{k}": v for k, v in self.calls.items()}
        merged.update({f"useful.{k}": v for k, v in self.useful.items()})
        merged.update(self.counters)
        return dict(sorted(merged.items()))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: LayerTracer, cpu_s: float) -> dict[str, float]:
    """The ``per_layer`` metrics of one traced call that took ``cpu_s``.

    ``trace.overhead_s`` needs an untraced call too, so the caller adds it.
    """
    s = tracer.self_s
    calls = tracer.calls
    k = tracer.counters
    return {
        "workloads.generate_s": s["workloads.generate"],
        "workloads.jobs": k["workloads.jobs"],
        "engine.construct_s": s["engine.construct"],
        # The run loop around step() is per-step work too.
        "engine.step_s": s["engine.step"] + s["engine.run"],
        "engine.steps": k["engine.steps"],
        "engine.ticks_per_step": _ratio(k["engine.grid_ticks"], k["engine.steps"]),
        "scheduler.schedule_s": s["scheduler.schedule"],
        "scheduler.schedule_calls": calls["scheduler.schedule"],
        "scheduler.start_ratio": _ratio(
            tracer.useful["scheduler.schedule"], calls["scheduler.schedule"]
        ),
        "scheduler.hint_s": s["scheduler.hint"],
        "scheduler.cap_hold_events": k["sched.cap_hold_events"],
        "scheduler.backfill_noop_memo_hits": k["sched.backfill_noop_memo_hits"],
        "cluster.allocate_s": s["cluster.allocate"],
        "cluster.allocations": calls["cluster.allocate"],
        "cluster.release_s": s["cluster.release"],
        "cluster.end_heap_stale_ratio": _ratio(
            k["rm.end_heap_stale_pops"], k["rm.end_heap_pops"]
        ),
        "power.build_states_s": s["power.build_states"],
        "power.states_built": k["power.states_built"],
        "power.states_per_build": _ratio(
            k["power.states_in_builds"], calls["power.build_states"]
        ),
        "power.sample_s": s["power.sample"],
        "power.next_breakpoint_s": s["power.next_breakpoint"],
        "power.breakpoint_crossings": k["power.breakpoint_crossings"],
        "power.signals_s": s["power.signals"],
        "cooling.step_s": s["cooling.step"],
        "cooling.steps": calls["cooling.step"],
        "stats.record_tick_s": s["stats.record_tick"],
        "stats.record_job_s": s["stats.record_job"],
        "stats.summary_s": s["stats.summary"],
        "sweep.request_s": s["sweep.to_json"] + s["sweep.from_json"],
        "sweep.to_json_calls": calls["sweep.to_json"],
        "sweep.store_write_s": s["sweep.store_write"],
        "sweep.store_read_s": s["sweep.store_read"],
        "sweep.store_rows": calls["sweep.store_write"],
        "sweep.driver_s": s["sweep.driver"],
        "trace.coverage": _ratio(sum(s.values()), cpu_s),
    }
