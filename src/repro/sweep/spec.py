"""Sweep specifications: an axis grid materialised into concrete runs.

A :class:`SweepSpec` names the axes of a scenario sweep — systems, scheduling
policies, workload variants, power caps and seeds — plus the shared run
parameters (window, horizon, price and carbon intensity).
:meth:`SweepSpec.materialize` expands the grid into an ordered list of
:class:`SweepRun` rows, each wrapping a fully serialisable
:class:`~repro.sweep.request.RunRequest` with its sweep coordinates (run
index and axis labels), ready for the parallel driver.

Seeds come in two flavours:

``n_seeds`` (Monte Carlo mode)
    Per-run seeds are derived via ``numpy.random.SeedSequence(root_seed)
    .spawn(total)`` keyed by run index at *materialisation* time, so every
    run draws from a statistically independent stream and the stored results
    are identical no matter in which order (or on how many workers) the runs
    execute or complete.

``seeds`` (paired mode)
    An explicit seed list applied to every grid point, so e.g. two policies
    can be compared on bit-identical workloads seed by seed.

Workload variants are names: the built-in registry covers the named specs
of :mod:`repro.workloads` (``default``, ``busy_trace``, ``frontier_scale``,
``burst_arrival``, ``idle_heavy``) and ``custom_workloads`` adds inline
:class:`~repro.workloads.WorkloadSpec` definitions under new names.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from itertools import product
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from ..exceptions import ConfigurationError
from ..power.signals import OperatingSignals
from ..units import check_integer, check_number, check_seed, parse_duration
from ..workloads import (
    WorkloadSpec,
    burst_arrival_spec,
    busy_trace_spec,
    frontier_scale_spec,
    idle_heavy_spec,
)
from .request import (
    RunRequest,
    _json_object,
    workload_spec_from_dict,
    workload_spec_to_dict,
)

__all__ = [
    "SweepRun",
    "SweepSpec",
    "WORKLOAD_VARIANTS",
    "load_sweep_spec",
]


#: Built-in workload variant name -> spec factory. ``None`` means "use the
#: per-system default" (:func:`~repro.workloads.default_workload_spec`,
#: resolved at execution time so it scales to each system on the axis).
WORKLOAD_VARIANTS: dict[str, Callable[[], WorkloadSpec] | None] = {
    "default": None,
    "busy_trace": busy_trace_spec,
    "frontier_scale": frontier_scale_spec,
    "burst_arrival": burst_arrival_spec,
    "idle_heavy": idle_heavy_spec,
}


@dataclass(frozen=True)
class SweepRun:
    """One materialised grid point: a request plus its sweep coordinates."""

    sweep: str
    run_index: int
    workload: str
    request: RunRequest

    @property
    def run_id(self) -> str:
        """The request's content-hash id (the results-store primary key)."""
        return self.request.run_id


@dataclass(frozen=True)
class SweepSpec:
    """Axes and shared parameters of one scenario sweep.

    Attributes
    ----------
    name:
        Sweep label stored with every result row.
    duration_s:
        Synthetic workload window shared by all runs, seconds.
    systems / policies / workloads:
        Axis values. ``None`` in ``policies`` means each system's default
        policy; workload names resolve through :data:`WORKLOAD_VARIANTS`
        and ``custom_workloads``. Two spellings of one policy (``None`` and
        the default's name, ``"easy"`` and ``"backfill"``) are two run ids
        for the same simulation; a repeated axis value or seed is one run id
        twice, which :meth:`materialize` rejects.
    n_seeds:
        Monte Carlo mode: this many independent seeds per grid point,
        spawned from ``root_seed`` by run index. Mutually exclusive with
        ``seeds``; when both are omitted one spawned seed per point is used.
    seeds:
        Paired mode: explicit seeds applied to every grid point, each an
        integer in ``[0, 2**63)`` (:func:`~repro.units.check_seed`).
    root_seed:
        Entropy root for ``n_seeds`` spawning.
    horizon_s:
        Forwarded to every :class:`RunRequest`.
    power_caps:
        Power-cap axis, kW. ``None`` means uncapped; a finite cap builds a
        constant :class:`~repro.power.signals.OperatingSignals` for the
        run (wrapping its policy in a
        :class:`~repro.engine.scheduler.PowerCapScheduler`).
    price_per_kwh / carbon_kg_per_kwh:
        Optional constant electricity price / carbon intensity applied to
        every run (scalar parameters, not axes); they weight the
        ``energy_cost`` / ``carbon_kg`` summary metrics.
    custom_workloads:
        Inline workload variants: name -> :class:`WorkloadSpec`. Names
        shadow the built-in registry.

    A spec is checked by the requests it builds: construction builds one
    :class:`RunRequest` per grid point (seed 0), through the same helper
    :meth:`materialize` uses, so the shared run parameters and the axis
    names fail here, with the request's own error, before any run.
    """

    name: str
    duration_s: float
    systems: tuple[str, ...] = ("tiny",)
    policies: tuple[str | None, ...] = (None,)
    workloads: tuple[str, ...] = ("default",)
    n_seeds: int | None = None
    seeds: tuple[int, ...] | None = None
    root_seed: int = 0
    horizon_s: float | None = None
    power_caps: tuple[float | None, ...] = (None,)
    price_per_kwh: float | None = None
    carbon_kg_per_kwh: float | None = None
    custom_workloads: Mapping[str, WorkloadSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Only what no request can check; the requests built last check the
        # rest, so a spec that cannot run fails here, not in materialize().
        if not self.name:
            raise ConfigurationError("a sweep needs a name")
        for axis in ("systems", "policies", "workloads", "power_caps"):
            if not getattr(self, axis):
                raise ConfigurationError(f"sweep axis {axis!r} must be non-empty")
        if self.n_seeds is not None and self.seeds is not None:
            raise ConfigurationError(
                "n_seeds (spawned) and seeds (explicit) are mutually exclusive"
            )
        if self.n_seeds is not None:
            check_integer(self.n_seeds, "n_seeds", minimum=1)
        if self.seeds is not None:
            if not self.seeds:
                raise ConfigurationError("explicit seeds must be non-empty")
            for seed in self.seeds:
                try:
                    check_seed(seed)
                except ConfigurationError as exc:
                    raise ConfigurationError(f"sweep seeds: {exc}") from None
        check_integer(self.root_seed, "root_seed", minimum=0)
        for cap in self.power_caps:
            if cap is None:
                continue
            cap_kw = check_number(cap, "sweep power_caps values")
            if not 0 < cap_kw < math.inf:
                raise ConfigurationError(
                    "sweep power_caps values must be finite, positive kW or null, "
                    f"got {cap_kw!r}"
                )
        for name in self.workloads:
            if name not in self.custom_workloads and name not in WORKLOAD_VARIANTS:
                known = sorted(set(WORKLOAD_VARIANTS) | set(self.custom_workloads))
                raise ConfigurationError(
                    f"unknown workload variant {name!r}; known: " + ", ".join(known)
                )
        for point in self._grid():
            self._request(*point, seed=0)

    # -- grid expansion --------------------------------------------------------

    def _workload_spec_of(self, variant: str) -> WorkloadSpec | None:
        if variant in self.custom_workloads:
            return self.custom_workloads[variant]
        factory = WORKLOAD_VARIANTS[variant]
        return None if factory is None else factory()

    @property
    def seeds_per_point(self) -> int:
        """How many runs each (system, policy, workload) grid point expands to."""
        if self.seeds is not None:
            return len(self.seeds)
        return self.n_seeds if self.n_seeds is not None else 1

    @property
    def total_runs(self) -> int:
        """Grid size: product of the axis lengths times the seeds per point."""
        return (
            len(self.systems)
            * len(self.policies)
            * len(self.workloads)
            * len(self.power_caps)
            * self.seeds_per_point
        )

    def _signals_of(self, power_cap_kw: float | None) -> OperatingSignals | None:
        """The constant operating signals for one cap-axis value."""
        if (
            power_cap_kw is None
            and self.price_per_kwh is None
            and self.carbon_kg_per_kwh is None
        ):
            return None
        return OperatingSignals.constant(
            power_cap_kw=power_cap_kw,
            price_per_kwh=self.price_per_kwh,
            carbon_kg_per_kwh=self.carbon_kg_per_kwh,
        )

    def _grid(self) -> list[tuple[str, str | None, str, float | None]]:
        """The grid points (system, policy, workload, cap) in run order."""
        return list(product(self.systems, self.policies, self.workloads, self.power_caps))

    def _request(
        self,
        system: str,
        policy: str | None,
        workload: str,
        power_cap_kw: float | None,
        seed: int,
    ) -> RunRequest:
        """The request of one grid point and seed; it checks its own fields."""
        return RunRequest(
            system=system,
            policy=policy,
            duration_s=self.duration_s,
            seed=seed,
            spec=self._workload_spec_of(workload),
            horizon_s=self.horizon_s,
            signals=self._signals_of(power_cap_kw),
        )

    def materialize(self) -> list[SweepRun]:
        """Expand the grid into ordered :class:`SweepRun` rows.

        Deterministic: the same spec always yields the same runs in the
        same order with the same run ids. In ``n_seeds`` mode the per-run
        seed is drawn from ``SeedSequence(root_seed).spawn(total)[run_index]``
        — keyed by the run's *materialisation* index, never by execution or
        completion order, so sweep results cannot depend on scheduling.
        """
        grid = self._grid()
        total = len(grid) * self.seeds_per_point
        spawned: list[np.random.SeedSequence] | None = None
        if self.seeds is None:
            spawned = np.random.SeedSequence(self.root_seed).spawn(total)

        runs: list[SweepRun] = []
        run_index = 0
        for system, policy, workload, power_cap in grid:
            for seed_slot in range(self.seeds_per_point):
                if self.seeds is not None:
                    seed = self.seeds[seed_slot]
                else:
                    assert spawned is not None
                    # uint32 words: plenty of seed space, far below
                    # check_seed's 2**63 bound.
                    seed = int(spawned[run_index].generate_state(1, dtype=np.uint32)[0])
                runs.append(
                    SweepRun(
                        sweep=self.name,
                        run_index=run_index,
                        workload=workload,
                        request=self._request(system, policy, workload, power_cap, seed),
                    )
                )
                run_index += 1

        seen: dict[str, SweepRun] = {}
        for run in runs:
            clash = seen.get(run.run_id)
            if clash is not None:
                raise ConfigurationError(
                    f"sweep {self.name!r} materialises duplicate run id "
                    f"{run.run_id} (run {clash.run_index} and {run.run_index} "
                    "are the same request); remove the repeated axis value or "
                    "seed (e.g. policies ['fcfs', 'fcfs'] or seeds [1, 1])"
                )
            seen[run.run_id] = run
        return runs

    # -- serialisation ---------------------------------------------------------

    def to_json_dict(self) -> dict[str, object]:
        """A JSON-ready dict that :meth:`from_json_dict` inverts."""
        return {
            "name": self.name,
            "duration_s": self.duration_s,
            "systems": list(self.systems),
            "policies": list(self.policies),
            "workloads": list(self.workloads),
            "n_seeds": self.n_seeds,
            "seeds": None if self.seeds is None else list(self.seeds),
            "root_seed": self.root_seed,
            "horizon_s": self.horizon_s,
            "power_caps": list(self.power_caps),
            "price_per_kwh": self.price_per_kwh,
            "carbon_kg_per_kwh": self.carbon_kg_per_kwh,
            "custom_workloads": {
                name: workload_spec_to_dict(spec)
                for name, spec in sorted(self.custom_workloads.items())
            },
        }

    @classmethod
    def from_json_dict(cls, data: object) -> "SweepSpec":
        """Rebuild a spec from a JSON object, accepting ``"6h"``-style durations.

        ``duration`` / ``horizon`` are accepted as aliases of
        ``duration_s`` / ``horizon_s`` and parsed with
        :func:`repro.units.parse_duration`, so spec files can say
        ``"duration": "6h"``. Anything but a JSON object is a
        :class:`ConfigurationError`.
        """
        payload = dict(_json_object(data, "sweep spec"))
        for alias, target in (("duration", "duration_s"), ("horizon", "horizon_s")):
            if alias in payload:
                if target in payload:
                    raise ConfigurationError(
                        f"sweep spec sets both {alias!r} and {target!r}"
                    )
                value = payload.pop(alias)
                payload[target] = None if value is None else parse_duration(value)
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown sweep spec field(s) {', '.join(unknown)}; known: "
                + ", ".join(sorted(known | {"duration", "horizon"}))
            )
        custom_raw = payload.get("custom_workloads") or {}
        if not isinstance(custom_raw, Mapping):
            raise ConfigurationError("custom_workloads must map names to spec dicts")
        payload["custom_workloads"] = {
            str(name): workload_spec_from_dict(spec_dict)
            for name, spec_dict in custom_raw.items()
        }
        for axis in ("systems", "policies", "workloads", "power_caps", "seeds"):
            values = payload.get(axis)
            if values is None:
                continue
            # A bare string is iterable too: "tiny" would become t, i, n, y.
            if not isinstance(values, (list, tuple)):
                raise ConfigurationError(
                    f"sweep {axis} must be a list, got {values!r}"
                )
            payload[axis] = tuple(values)
        try:
            return cls(**payload)  # type: ignore[arg-type]
        except TypeError as exc:
            raise ConfigurationError(f"invalid sweep spec: {exc}") from exc


def load_sweep_spec(path: str | Path) -> SweepSpec:
    """Load a :class:`SweepSpec` from a JSON (or, if available, YAML) file."""
    file_path = Path(path)
    try:
        text = file_path.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read sweep spec {file_path}: {exc}") from exc
    if file_path.suffix.lower() in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError as exc:  # pragma: no cover - environment-dependent
            raise ConfigurationError(
                "YAML sweep specs need the optional pyyaml dependency; "
                "use JSON instead"
            ) from exc
        data = yaml.safe_load(text)
    else:
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError(
                f"sweep spec {file_path} is not valid JSON: {exc}"
            ) from exc
    return SweepSpec.from_json_dict(data)
