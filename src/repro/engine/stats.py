"""Simulation statistics: per-tick time series and summary metrics.

The collector is fed once per engine step with plain floats — IT power,
conversion losses, cooling power and PUE, the engine's cluster counters and
the operating-signal values — plus once per job completion. From these it
derives the quantities the paper reports: total facility energy,
mean/maximum PUE, node-hours delivered, mean queue wait and system
utilization. Time series export to CSV and the whole record (summary +
series) to JSON.

Samples are *interval-aware*: each :class:`TickSample` carries the length
``dt_s`` of the interval it stands for, so the event-driven engine can
coalesce an event-free stretch into one sample without changing any energy
or time-weighted metric. The engine guarantees every coalesced sample spans
a stretch over which the sampled state is constant on the tick grid —
coalescing is bounded by profile breakpoints as well as events — so the
constant-over-interval assumption below is exact, not approximate. All
summary invariants hold regardless of how time was discretised:
``total_energy_kwh == Σ facility_power_kw · dt_s / 3600``,
``mean_pue == total_energy_kwh / it_energy_kwh``, ``elapsed_s == Σ dt_s``.

Storage is *columnar*: one preallocated, amortised-doubling array per
:class:`TickSample` field, written row by row — a dense frontier-scale run
holds a handful of numpy arrays instead of millions of Python sample
objects (13 float64/int64 columns ≈ 100 bytes/tick vs. ~1 kB/tick for a
boxed dataclass). :attr:`StatsCollector.ticks` is a lazy sequence view that
materialises a :class:`TickSample` per access, and every summary metric is
maintained incrementally in :meth:`~StatsCollector.record_tick` /
:meth:`~StatsCollector.record_job`, so :meth:`~StatsCollector.summary` —
the one place the metrics are read — is O(1) rather than a rescan of all
ticks and jobs.

PUE at zero IT power is reported as ``float("inf")`` (overhead power with
nothing to attribute it to), never as the flattering 1.0 floor; such ticks
are excluded from the summary's ``max_pue``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Sequence, overload

import numpy as np

from ..devtools import hot_path
from ..telemetry.job import JobRun, JobState

__all__ = ["TickSample", "StatsCollector", "json_safe"]


@dataclass(frozen=True)
class TickSample:
    """Flattened record of the coupled models over one sampled interval.

    The sample stands for the half-open interval ``[time_s, time_s + dt_s)``
    with every quantity held constant over it. A dense-tick run has
    ``dt_s == timestep_s`` throughout; the event-driven engine records
    aggregated samples with ``dt_s`` a multiple of the timestep.
    """

    time_s: float
    dt_s: float
    compute_power_kw: float
    loss_power_kw: float
    cooling_power_kw: float
    facility_power_kw: float
    pue: float
    allocated_nodes: int
    utilization: float
    running_jobs: int
    queued_jobs: int
    mean_cpu_util: float
    mean_gpu_util: float

    #: Column order of the tick series: the collector's columns and the CSV
    #: header are built from it.
    FIELDS = (
        "time_s",
        "dt_s",
        "compute_power_kw",
        "loss_power_kw",
        "cooling_power_kw",
        "facility_power_kw",
        "pue",
        "allocated_nodes",
        "utilization",
        "running_jobs",
        "queued_jobs",
        "mean_cpu_util",
        "mean_gpu_util",
    )


#: Columns stored as int64 (node/job counts); everything else is float64.
_INT_FIELDS = frozenset({"allocated_nodes", "running_jobs", "queued_jobs"})

#: Initial per-column capacity; growth doubles, so appends are amortised O(1).
_INITIAL_CAPACITY = 512


class _TickSeries(Sequence[TickSample]):
    """Read-only sequence view over the collector's tick columns.

    Materialises a :class:`TickSample` per indexed access or iteration step,
    so consumers keep the historical object API while the storage stays
    columnar. Live view: it always reflects the collector's current length.
    """

    def __init__(self, stats: "StatsCollector") -> None:
        self._stats = stats

    def __len__(self) -> int:
        return self._stats._tick_count

    @overload
    def __getitem__(self, index: int) -> TickSample: ...

    @overload
    def __getitem__(self, index: slice) -> list[TickSample]: ...

    def __getitem__(self, index: int | slice) -> TickSample | list[TickSample]:
        n = self._stats._tick_count
        if isinstance(index, slice):
            return [self._stats._tick_at(i) for i in range(*index.indices(n))]
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("tick index out of range")
        return self._stats._tick_at(index)

    def __iter__(self) -> Iterator[TickSample]:
        for index in range(self._stats._tick_count):
            yield self._stats._tick_at(index)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"_TickSeries(n={len(self)})"


class StatsCollector:
    """Accumulates per-tick samples and per-job outcomes for one run."""

    def __init__(self) -> None:
        self.completed_jobs: list[JobRun] = []
        self.dismissed_jobs: list[JobRun] = []
        self._columns: dict[str, np.ndarray] = {
            name: np.empty(
                _INITIAL_CAPACITY,
                dtype=np.int64 if name in _INT_FIELDS else np.float64,
            )
            for name in TickSample.FIELDS
        }
        self._tick_count = 0
        self._energy_kwh = 0.0
        self._it_energy_kwh = 0.0
        self._cooling_energy_kwh = 0.0
        self._utilization_weight = 0.0
        self._cpu_util_weight = 0.0
        self._gpu_util_weight = 0.0
        self._time_weight_s = 0.0
        # Power-aware operation metrics: integrals of the operating signals
        # (price / carbon / cap) against the power series, plus job-seconds
        # of cap-induced queue holding. All stay 0.0 on signal-free runs.
        self._energy_cost = 0.0
        self._carbon_kg = 0.0
        self._cap_violation_kwh = 0.0
        self._capped_hold_s = 0.0
        # Incrementally maintained summary metrics (historically recomputed
        # by scanning all ticks/jobs on every property access).
        self._max_pue = 1.0
        self._node_h = 0.0
        self._wait_sum_s = 0.0
        self._wait_count = 0
        self._max_wait_s = 0.0
        self._first_sim_start: float | None = None
        self._last_sim_end: float | None = None
        #: Observability counter: number of column doublings (published as
        #: ``stats_column_growths_total``).
        self.column_growths = 0

    # -- recording ------------------------------------------------------------

    @property
    def ticks(self) -> _TickSeries:
        """The recorded samples as a lazy, read-only sequence view."""
        return _TickSeries(self)

    def _tick_at(self, index: int) -> TickSample:
        columns = self._columns
        return TickSample(
            *(
                int(columns[name][index])
                if name in _INT_FIELDS
                else float(columns[name][index])
                for name in TickSample.FIELDS
            )
        )

    def _grow(self) -> None:
        self.column_growths += 1
        capacity = max(_INITIAL_CAPACITY, 2 * self._tick_count)
        for name, column in self._columns.items():
            grown = np.empty(capacity, dtype=column.dtype)
            grown[: self._tick_count] = column[: self._tick_count]
            self._columns[name] = grown

    @hot_path
    def record_tick(
        self,
        now: float,
        dt_s: float,
        *,
        compute_power_kw: float,
        loss_kw: float,
        cooling_kw: float,
        pue: float,
        allocated_nodes: int,
        utilization: float,
        running_jobs: int,
        queued_jobs: int,
        mean_cpu_util: float,
        mean_gpu_util: float,
        price_per_kwh: float = 0.0,
        carbon_kg_per_kwh: float = 0.0,
        power_cap_kw: float = math.inf,
        cap_held_jobs: int = 0,
    ) -> None:
        """Append one tick worth of coupled-model output.

        The engine composes the inputs as plain floats: IT power and its
        conversion losses from the power sample, cooling power and PUE from
        the cooling plant (or 0.0 and the loss-only
        :func:`~repro.cooling.power_usage_effectiveness` when no plant is
        coupled). Facility power is derived here as
        ``(compute + loss) + cooling``.

        ``dt_s`` is the length of the interval the sample stands for; energy
        integrals treat each sample as constant over its interval (left
        Riemann sum on the tick grid). The operating-signal inputs (price,
        carbon intensity, active power cap, jobs held by the capping
        policy) default to the signal-free values, so callers without an
        :class:`~repro.power.OperatingSignals` input are unaffected; the
        engine guarantees every signal value is constant over the interval
        (signal change points bound coalescing), so the cost/carbon/
        violation integrals below are exact, like every other integral
        here.
        """
        facility_kw = (compute_power_kw + loss_kw) + cooling_kw
        index = self._tick_count
        columns = self._columns
        if index == len(columns["time_s"]):
            self._grow()
            columns = self._columns
        columns["time_s"][index] = now
        columns["dt_s"][index] = dt_s
        columns["compute_power_kw"][index] = compute_power_kw
        columns["loss_power_kw"][index] = loss_kw
        columns["cooling_power_kw"][index] = cooling_kw
        columns["facility_power_kw"][index] = facility_kw
        columns["pue"][index] = pue
        columns["allocated_nodes"][index] = allocated_nodes
        columns["utilization"][index] = utilization
        columns["running_jobs"][index] = running_jobs
        columns["queued_jobs"][index] = queued_jobs
        columns["mean_cpu_util"][index] = mean_cpu_util
        columns["mean_gpu_util"][index] = mean_gpu_util
        self._tick_count = index + 1
        hours = dt_s / 3600.0
        self._energy_kwh += facility_kw * hours
        self._it_energy_kwh += compute_power_kw * hours
        self._cooling_energy_kwh += cooling_kw * hours
        self._utilization_weight += utilization * dt_s
        # dt-weighted like mean_utilization above: under coalescing a
        # step-weighted average over the per-tick columns would overweight
        # short samples.
        self._cpu_util_weight += mean_cpu_util * dt_s
        self._gpu_util_weight += mean_gpu_util * dt_s
        self._time_weight_s += dt_s
        self._energy_cost += facility_kw * hours * price_per_kwh
        self._carbon_kg += facility_kw * hours * carbon_kg_per_kwh
        if compute_power_kw > power_cap_kw:
            self._cap_violation_kwh += (compute_power_kw - power_cap_kw) * hours
        if cap_held_jobs:
            self._capped_hold_s += cap_held_jobs * dt_s
        if compute_power_kw > 0 and math.isfinite(pue) and pue > self._max_pue:
            self._max_pue = pue

    def record_job(self, run: JobRun) -> None:
        """Record a job leaving the system (completed or dismissed)."""
        if run.state is not JobState.COMPLETED:
            self.dismissed_jobs.append(run)
            return
        self.completed_jobs.append(run)
        duration = run.sim_duration
        if duration is not None:
            self._node_h += run.job.nodes_required * duration / 3600.0
        wait = run.wait_time
        if wait is not None:
            self._wait_sum_s += wait
            self._wait_count += 1
            if wait > self._max_wait_s:
                self._max_wait_s = wait
        start = run.sim_start_time
        if start is not None and (
            self._first_sim_start is None or start < self._first_sim_start
        ):
            self._first_sim_start = start
        end = run.sim_end_time
        if end is not None and (
            self._last_sim_end is None or end > self._last_sim_end
        ):
            self._last_sim_end = end

    # -- derived metrics -------------------------------------------------------

    @property
    def elapsed_s(self) -> float:
        """Simulated span covered by the recorded samples (``Σ dt_s``).

        Interval-aware: counts the width of every sample including the
        last, so dense and event-driven runs of the same window agree.
        """
        return self._time_weight_s

    def summary(self) -> dict[str, float]:
        """Summary metrics of the run (the numbers ``repro-sim`` prints).

        Every entry is read off an incrementally maintained accumulator, so
        the call is O(1) regardless of how many ticks and jobs were recorded:

        * the energies are facility (IT + losses + cooling), IT and cooling
          energy in kWh; ``mean_pue`` is their energy-weighted ratio —
          ``inf`` when overhead was drawn with zero IT energy, 1.0 only for
          an empty record;
        * ``max_pue`` is the worst finite PUE over ticks that drew IT power
          (see the module docstring);
        * utilization means are dt-weighted, so dense and coalesced runs
          agree; node-hours, waits and the makespan cover completed jobs;
        * ``energy_cost`` (``Σ kWh · price``) and ``carbon_kg``
          (``Σ kWh · kg/kWh``) weight facility energy by the operating
          signals; ``cap_violation_kwh`` is IT energy above the active cap
          and ``capped_hold_s`` the job-seconds of cap-induced holding.
        """
        time_s = self._time_weight_s
        if self._it_energy_kwh <= 0:
            mean_pue = float("inf") if self._energy_kwh > 0 else 1.0
        else:
            mean_pue = self._energy_kwh / self._it_energy_kwh
        first, last = self._first_sim_start, self._last_sim_end
        return {
            "total_energy_kwh": self._energy_kwh,
            "it_energy_kwh": self._it_energy_kwh,
            "cooling_energy_kwh": self._cooling_energy_kwh,
            "mean_pue": mean_pue,
            "max_pue": self._max_pue,
            "mean_utilization": 0.0 if time_s <= 0 else self._utilization_weight / time_s,
            "node_hours": self._node_h,
            "mean_wait_s": (
                self._wait_sum_s / self._wait_count if self._wait_count else 0.0
            ),
            "max_wait_s": self._max_wait_s,
            "makespan_s": 0.0 if first is None or last is None else last - first,
            "jobs_completed": float(len(self.completed_jobs)),
            "jobs_dismissed": float(len(self.dismissed_jobs)),
            "ticks": float(self._tick_count),
            "simulated_s": time_s,
            "mean_cpu_util": 0.0 if time_s <= 0 else self._cpu_util_weight / time_s,
            "mean_gpu_util": 0.0 if time_s <= 0 else self._gpu_util_weight / time_s,
            "energy_cost": self._energy_cost,
            "carbon_kg": self._carbon_kg,
            "cap_violation_kwh": self._cap_violation_kwh,
            "capped_hold_s": self._capped_hold_s,
        }

    def column(self, name: str) -> np.ndarray:
        """One tick column as a numpy array slice (no per-tick boxing).

        The cheap way to scan a single field of a huge run — e.g.
        ``stats.column("running_jobs").max()`` — without materialising a
        :class:`TickSample` per row through the :attr:`ticks` view.
        """
        if name not in self._columns:
            # Mapping semantics: callers key on column names like a dict,
            # so KeyError is the contract here, not SRapsError.
            raise KeyError(f"unknown tick column {name!r}")  # repro-lint: disable=public-exceptions
        view = self._columns[name][: self._tick_count]
        # Read-only: the slice aliases the live buffer, and a caller
        # mutating it would silently corrupt the recorded history (same
        # convention as Profile's exposed arrays).
        view.setflags(write=False)
        return view

    # -- export ----------------------------------------------------------------

    def to_csv(self, path: str | Path) -> None:
        """Write the per-tick time series as CSV (one ``writerows`` call)."""
        n = self._tick_count
        columns = [self._columns[name][:n].tolist() for name in TickSample.FIELDS]
        with open(Path(path), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TickSample.FIELDS)
            writer.writerows(zip(*columns))

    def to_json(self, path: str | Path, *, include_timeseries: bool = True) -> None:
        """Write summary (and optionally the time series) as JSON.

        Non-finite values (the PUE ``inf`` sentinel of zero-IT samples) are
        exported as ``null``: RFC 8259 has no ``Infinity`` token, and
        emitting one would make the file unreadable for strict parsers.
        The time series streams column by column through the array-aware
        :func:`json_safe` — a vectorised finiteness pass per column, not a
        per-element recursion over the whole record.
        """
        payload: dict[str, object] = {"summary": json_safe(self.summary())}
        if include_timeseries:
            n = self._tick_count
            payload["timeseries"] = {
                name: json_safe(self._columns[name][:n])
                for name in TickSample.FIELDS
            }
        Path(path).write_text(
            json.dumps(payload, indent=2, allow_nan=False) + "\n"
        )


def _json_scalar(value: object) -> object:
    """One leaf of :func:`json_safe`: numpy-aware, non-finite floats → None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            finite = np.isfinite(value)
            if finite.all():
                return value.tolist()
            boxed = value.astype(object)
            boxed[~finite] = None
            return boxed.tolist()
        return value.tolist()
    if isinstance(value, np.floating):
        scalar = float(value)
        return scalar if math.isfinite(scalar) else None
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def json_safe(value: object) -> object:
    """Make ``value`` strict-JSON-serialisable, iteratively and array-aware.

    Non-finite floats become ``None``: RFC 8259 has no ``Infinity``/``NaN``
    token, so any record that may carry the PUE ``inf`` sentinel (or other
    non-finite metrics) must pass through this before
    ``json.dumps(..., allow_nan=False)``. Numpy scalars convert to their
    Python equivalents and numpy arrays to (nested) lists via a single
    vectorised finiteness pass — a million-row timeseries column never
    takes a per-element Python recursion. Containers are walked with an
    explicit stack (no recursion depth limit). Shared by
    :meth:`StatsCollector.to_json` and the golden-record writer
    (``pytest --write-golden``).
    """
    _containers = (dict, list, tuple)
    if not isinstance(value, _containers):
        return _json_scalar(value)
    root: list[object] = [None]
    # The walk is structurally dynamic (targets are whichever container the
    # source maps to), so the stack is typed loosely on purpose.
    stack: list[tuple[Any, Any, Any]] = [(value, root, 0)]
    while stack:
        source, target, key = stack.pop()
        if isinstance(source, dict):
            converted: dict[Any, Any] | list[Any] = {}
            target[key] = converted
            for item_key, item in source.items():
                if isinstance(item, _containers):
                    converted[item_key] = None  # placeholder keeps key order
                    stack.append((item, converted, item_key))
                else:
                    converted[item_key] = _json_scalar(item)
        else:
            converted = [None] * len(source)
            target[key] = converted
            for index, item in enumerate(source):
                if isinstance(item, _containers):
                    stack.append((item, converted, index))
                else:
                    converted[index] = _json_scalar(item)
    return root[0]
