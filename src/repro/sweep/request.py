"""Serialisable run descriptions: one :class:`RunRequest` = one engine run.

A :class:`RunRequest` captures everything :func:`run_request` needs to
reproduce a :class:`~repro.engine.SimulationEngine` run — registered system
name, scheduling policy, synthetic-workload window and (optionally) the full
:class:`~repro.workloads.WorkloadSpec`, engine flags and the seed — and
round-trips losslessly through JSON. That is what lets a run cross a process
boundary: the sweep driver ships request dicts to pool workers, and the
planned simulation-as-a-service front end can accept the same payload over
the wire (the Balsam ``BatchJob`` schemas are the exemplar shape).

:attr:`RunRequest.run_id` is a content hash of the canonical JSON form, so
the same request always maps to the same id — across processes, sessions and
machines — which is what makes sweep resume idempotent: a results store row
keyed by ``run_id`` either exists (skip) or does not (run).

:func:`run_request` is one call of :func:`repro.engine.run_simulation`
— the synthetic generator on the request's spec, then one
:class:`~repro.engine.SimulationEngine` — so a stored sweep summary equals
the in-process call with the same arguments
(``tests/test_sweep.py::TestShimEquivalence`` holds them equal). Only
``run_simulation`` takes live objects (an ad-hoc
:class:`~repro.config.SystemConfig`, a :class:`~repro.engine.Scheduler`
instance, a job list), which cannot cross a process boundary.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Any, Mapping

from ..config import get_system_config
from ..engine.engine import SimulationResult, run_simulation
from ..engine.scheduler import get_scheduler
from ..exceptions import ConfigurationError
from ..obs import Observability
from ..power.signals import OperatingSignals
from ..units import check_duration_s, check_number, check_seed
from ..workloads import (
    BurstArrivals,
    JobSizeDistribution,
    PoissonArrivals,
    RuntimeDistribution,
    UserPopulation,
    WaveArrivals,
    WorkloadSpec,
)

__all__ = [
    "RunRequest",
    "run_request",
    "workload_spec_from_dict",
    "workload_spec_to_dict",
]

#: JSON type tag -> arrival-process class (the one union inside WorkloadSpec).
_ARRIVAL_KINDS: dict[str, type] = {
    "wave": WaveArrivals,
    "poisson": PoissonArrivals,
    "burst": BurstArrivals,
}

#: WorkloadSpec fields whose JSON lists must come back as tuples.
_SPEC_TUPLE_FIELDS = (
    "cpu_util_range",
    "gpu_util_range",
    "mem_util_range",
    "phase_count_range",
    "priority_range",
)


#: Request keys that no longer select anything: key -> (the one value every
#: request still writes for it, what to use instead). The run id hashes the
#: dict, so dropping a key would move every stored id; any other value names
#: a run this engine cannot reproduce.
_RETIRED_KEYS: dict[str, tuple[object, str]] = {
    "backfill": (None, "select EASY backfill with policy 'backfill'"),
    "event_index": (True, "the engine has no event_index=false path any more"),
    "vectorized": (True, "the engine has no vectorized=false path any more"),
}


def _json_object(data: object, label: str) -> Mapping[str, object]:
    """``data`` as a JSON object, or a :class:`ConfigurationError`."""
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"{label} must be a JSON object, got {type(data).__name__}"
        )
    return data


def _dataclass_from_dict(cls: type, data: object, label: str) -> Any:
    """Rebuild a flat (non-nested) spec dataclass, rejecting unknown keys."""
    data = _json_object(data, label)
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigurationError(
            f"unknown {label} field(s) {', '.join(unknown)}; known: "
            + ", ".join(sorted(known))
        )
    return cls(**data)


def workload_spec_to_dict(spec: WorkloadSpec) -> dict[str, object]:
    """A JSON-ready dict that :func:`workload_spec_from_dict` inverts exactly."""
    arrival_kind = None
    for kind, cls in _ARRIVAL_KINDS.items():
        if type(spec.arrivals) is cls:
            arrival_kind = kind
            break
    if arrival_kind is None:
        raise ConfigurationError(
            f"arrival process {type(spec.arrivals).__name__} is not JSON-"
            "serialisable; use WaveArrivals, PoissonArrivals or BurstArrivals"
        )
    payload = asdict(spec)
    payload["sizes"] = asdict(spec.sizes)
    payload["runtimes"] = asdict(spec.runtimes)
    payload["arrivals"] = {"kind": arrival_kind, **asdict(spec.arrivals)}
    payload["users"] = asdict(spec.users)
    for name in _SPEC_TUPLE_FIELDS:
        payload[name] = list(getattr(spec, name))
    return payload


def workload_spec_from_dict(data: object) -> WorkloadSpec:
    """Rebuild a :class:`WorkloadSpec` from its JSON dict form."""
    data = _json_object(data, "WorkloadSpec")
    known = {f.name for f in fields(WorkloadSpec)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigurationError(
            f"unknown WorkloadSpec field(s) {', '.join(unknown)}; known: "
            + ", ".join(sorted(known))
        )
    _reject_non_finite(data)
    try:
        return _workload_spec(dict(data))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"WorkloadSpec field of the wrong type: {exc}") from None


def _workload_spec(kwargs: dict[str, Any]) -> WorkloadSpec:
    """Build a :class:`WorkloadSpec` from its known top-level JSON fields."""
    if "sizes" in kwargs:
        kwargs["sizes"] = _dataclass_from_dict(
            JobSizeDistribution, kwargs["sizes"], "JobSizeDistribution"
        )
    if "runtimes" in kwargs:
        kwargs["runtimes"] = _dataclass_from_dict(
            RuntimeDistribution, kwargs["runtimes"], "RuntimeDistribution"
        )
    if "users" in kwargs:
        kwargs["users"] = _dataclass_from_dict(
            UserPopulation, kwargs["users"], "UserPopulation"
        )
    if "arrivals" in kwargs:
        arrival_data = dict(_json_object(kwargs["arrivals"], "arrivals"))
        kind = arrival_data.pop("kind", None)
        if kind not in _ARRIVAL_KINDS:
            raise ConfigurationError(
                f"unknown arrival kind {kind!r}; known: "
                + ", ".join(sorted(_ARRIVAL_KINDS))
            )
        kwargs["arrivals"] = _dataclass_from_dict(
            _ARRIVAL_KINDS[str(kind)], arrival_data, f"{kind} arrivals"
        )
    for name in _SPEC_TUPLE_FIELDS:
        if name in kwargs:
            kwargs[name] = tuple(kwargs[name])
    return WorkloadSpec(**kwargs)


def _reject_non_finite(data: object) -> None:
    """A number anywhere in a spec dict that is not finite is a
    :class:`ConfigurationError`: a NaN, an infinity, or an int beyond float
    range (:func:`~repro.units.check_number` reads it as ``inf``).

    The run id hashes the request's JSON form, which has no spelling for
    the first two, and no generator draw can use the third.
    """
    if isinstance(data, Mapping):
        data = list(data.values())
    if isinstance(data, (list, tuple)):
        for item in data:
            _reject_non_finite(item)
    elif isinstance(data, (int, float)) and not isinstance(data, bool):
        if not math.isfinite(check_number(data, "WorkloadSpec values")):
            raise ConfigurationError(f"WorkloadSpec values must be finite, got {data!r}")


def _check_registered(system: object, policy: object) -> None:
    """A system or policy that is not a registered name is an error, which
    lists the known names (:func:`~repro.config.get_system_config`,
    :func:`~repro.engine.get_scheduler`); ``policy`` may be ``None``, the
    system's default."""
    if not isinstance(system, str) or not system:
        raise ConfigurationError(
            f"system must be a registered system name, got {system!r}"
        )
    get_system_config(system)
    if policy is not None:
        if not isinstance(policy, str):
            raise ConfigurationError(f"policy must be a name or null, got {policy!r}")
        get_scheduler(policy)


@dataclass(frozen=True)
class RunRequest:
    """Everything needed to reproduce one simulation run, JSON-serialisable.

    Attributes
    ----------
    system:
        Registered system name (``"tiny"``, ``"frontier"``, ...). Only
        registry names are allowed — an ad-hoc :class:`SystemConfig` cannot
        cross a process boundary (register it on both sides instead); an
        unknown name fails at construction.
    policy:
        Scheduling policy name, or ``None`` for the system's default; an
        unknown name fails at construction. Spellings are not
        canonicalised: ``None`` and the default's name, or ``"easy"`` and
        ``"backfill"``, run the same simulation under two run ids.
    duration_s:
        Synthetic workload window in seconds.
    seed:
        Workload-generation and down-node seed; fixes the whole run.
    spec:
        Workload specification, or ``None`` for the system-scaled default
        (:func:`~repro.workloads.default_workload_spec`).
    horizon_s:
        Optional hard stop for the engine clock, seconds.
    dense_ticks:
        Force one sample per grid tick, as in the engine.
    signals:
        Optional :class:`~repro.power.signals.OperatingSignals` (or its
        JSON dict form) — power cap, electricity price and carbon
        intensity step series for power-aware operation. ``None`` (the
        default) is serialised by *omission* so every pre-existing
        request keeps its run id.
    """

    system: str = "tiny"
    policy: str | None = None
    duration_s: float = 86400.0
    seed: int = 0
    spec: WorkloadSpec | None = None
    horizon_s: float | None = None
    dense_ticks: bool = False
    signals: OperatingSignals | None = None

    def __post_init__(self) -> None:
        _check_registered(self.system, self.policy)
        if not isinstance(self.dense_ticks, bool):
            raise ConfigurationError(
                f"RunRequest.dense_ticks must be true or false, got {self.dense_ticks!r}"
            )
        # Canonicalise the numeric fields: the run id hashes the JSON form,
        # and json.dumps renders int 3600 and float 3600.0 differently, so
        # equal requests built from 3600 (int) and 3600.0 (float) would
        # otherwise hash apart. frozen=True requires the direct setattr.
        object.__setattr__(
            self, "duration_s", check_duration_s(self.duration_s, "RunRequest.duration_s")
        )
        object.__setattr__(self, "seed", check_seed(self.seed))
        if self.horizon_s is not None:
            object.__setattr__(
                self, "horizon_s", check_duration_s(self.horizon_s, "RunRequest.horizon_s")
            )
        if self.signals is not None and not isinstance(self.signals, OperatingSignals):
            object.__setattr__(
                self, "signals", OperatingSignals.from_json_dict(self.signals)
            )

    # -- serialisation ---------------------------------------------------------

    def to_json_dict(self) -> dict[str, object]:
        """A plain-JSON dict that :meth:`from_json_dict` inverts exactly."""
        payload: dict[str, object] = {
            "system": self.system,
            "policy": self.policy,
            "duration_s": self.duration_s,
            "seed": self.seed,
            "spec": None if self.spec is None else workload_spec_to_dict(self.spec),
            "horizon_s": self.horizon_s,
            "dense_ticks": self.dense_ticks,
            **{key: value for key, (value, _) in _RETIRED_KEYS.items()},
        }
        # Serialised by omission when absent: the run id hashes this dict,
        # and a "signals": null key would re-hash every historical request.
        if self.signals is not None:
            payload["signals"] = self.signals.to_json_dict()
        return payload

    @classmethod
    def from_json_dict(cls, data: object) -> "RunRequest":
        """Rebuild a request from :meth:`to_json_dict` output."""
        data = _json_object(data, "RunRequest")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known - set(_RETIRED_KEYS))
        if unknown:
            raise ConfigurationError(
                f"unknown RunRequest field(s) {', '.join(unknown)}; known: "
                + ", ".join(sorted(known))
            )
        kwargs: dict[str, Any] = dict(data)
        for key, (value, instead) in _RETIRED_KEYS.items():
            if kwargs.pop(key, value) is not value:
                raise ConfigurationError(
                    f"RunRequest.{key} must be {json.dumps(value)}: {instead}"
                )
        spec_data = kwargs.get("spec")
        if spec_data is not None:
            kwargs["spec"] = workload_spec_from_dict(spec_data)
        return cls(**kwargs)

    def to_json(self) -> str:
        """Canonical JSON form (sorted keys, minimal separators).

        This exact byte string is what :attr:`run_id` hashes, so it must be
        deterministic: ``sort_keys`` fixes the field order and Python's
        shortest-repr float formatting is itself deterministic.
        """
        return json.dumps(
            self.to_json_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False
        )

    @classmethod
    def from_json(cls, text: str) -> "RunRequest":
        """Parse :meth:`to_json` output; malformed JSON is a ConfigurationError."""
        try:
            data = json.loads(text)
        except ValueError as exc:  # bad JSON, or an int past the digit limit
            raise ConfigurationError(f"RunRequest JSON does not parse: {exc}") from None
        return cls.from_json_dict(data)

    @property
    def run_id(self) -> str:
        """Stable content-hash id of this request (16 hex chars).

        Two requests share a ``run_id`` exactly when their canonical JSON
        forms are byte-identical — the key the results store and the sweep
        driver's resume logic are built on.
        """
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()[:16]


def run_request(
    request: RunRequest, *, obs: Observability | None = None
) -> SimulationResult:
    """Execute one :class:`RunRequest` and return its result.

    One call of :func:`repro.engine.run_simulation` with the request's
    fields: the synthetic generator on the request's spec (``None`` is the
    system's default spec), then one :class:`~repro.engine.SimulationEngine`,
    which checks every argument. The sweep driver's workers run every
    request here, so a stored sweep summary and an in-process run of the
    same arguments are the same computation.
    """
    return run_simulation(
        request.system,
        policy=request.policy,
        duration=request.duration_s,
        seed=request.seed,
        spec=request.spec,
        horizon=request.horizon_s,
        dense_ticks=request.dense_ticks,
        signals=request.signals,
        obs=obs,
    )
