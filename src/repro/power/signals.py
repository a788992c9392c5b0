"""Operating signals: piecewise-constant power-cap / price / carbon inputs.

An :class:`OperatingSignals` bundle describes how the *facility environment*
changes over a run: the enforced IT power cap (kW), the electricity price
($/kWh) and the grid carbon intensity (kg CO2/kWh), each as a
zero-order-hold step series ``((t0_s, value), (t1_s, value), ...)`` with
``t0_s == 0.0`` and strictly increasing times. A cap value of ``None``
means "uncapped" in that window, which is how demand-response events —
temporary cap windows inside an otherwise uncapped schedule — are spelled.

The change points of every series are precomputed into one merged,
deduplicated breakpoint tuple. The engine feeds
:meth:`OperatingSignals.next_change_after` into ``_coalesced_dt`` as an
additional breakpoint stream, so a price, carbon or cap step always bounds
a coalesced interval and the dense-vs-event 1e-9 summary contract extends
to cost/carbon/violation metrics unchanged.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from numbers import Real
from typing import Any, Mapping, Sequence

import numpy as np

from ..exceptions import ConfigurationError

__all__ = ["OperatingSignals"]

#: One step of a cap series: ``(time_s, cap_kw)`` with ``None`` = uncapped.
CapSegment = tuple[float, "float | None"]

#: One step of a price / carbon series: ``(time_s, value)``.
Segment = tuple[float, float]


def _number(raw: object, name: str) -> float:
    """A segment field as a float; anything but a real number is rejected."""
    if isinstance(raw, bool) or not isinstance(raw, Real):
        raise ConfigurationError(f"signals.{name} segments must hold numbers, got {raw!r}")
    try:
        return float(raw)
    except OverflowError:  # an int beyond float range is not finite either
        return math.inf


def _canonical_series(
    name: str,
    segments: "Sequence[Sequence[object]] | None",
    *,
    allow_none_value: bool,
) -> "tuple[tuple[float, float | None], ...] | None":
    """Validate and canonicalise one step series (floats, tuples)."""
    if segments is None:
        return None
    if not isinstance(segments, (list, tuple)):
        raise ConfigurationError(
            f"signals.{name} must be a list of (time_s, value) pairs, got {segments!r}"
        )
    if len(segments) == 0:
        raise ConfigurationError(f"signals.{name} must have at least one segment")
    out: list[tuple[float, float | None]] = []
    for segment in segments:
        if not isinstance(segment, (list, tuple)) or len(segment) != 2:
            raise ConfigurationError(
                f"signals.{name} segments must be (time_s, value) pairs"
            )
        raw_time, raw_value = segment
        time_s = _number(raw_time, name)
        if not math.isfinite(time_s) or time_s < 0.0:
            raise ConfigurationError(
                f"signals.{name} segment times must be finite and >= 0, "
                f"got {raw_time!r}"
            )
        value: float | None
        if raw_value is None:
            if not allow_none_value:
                raise ConfigurationError(
                    f"signals.{name} values must be numbers, got None"
                )
            value = None
        else:
            value = _number(raw_value, name)
            if not math.isfinite(value) or value < 0.0:
                raise ConfigurationError(
                    f"signals.{name} values must be finite and >= 0, "
                    f"got {raw_value!r}"
                )
        out.append((time_s, value))
    times = [time_s for time_s, _ in out]
    if times[0] > 0.0:
        raise ConfigurationError(
            f"signals.{name} must start at t=0 (got first segment at {times[0]})"
        )
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigurationError(
            f"signals.{name} segment times must be strictly increasing"
        )
    return tuple(out)


def _series_arrays(
    series: "tuple[tuple[float, float | None], ...] | None",
    *,
    default: float,
    none_value: float,
) -> "tuple[np.ndarray, np.ndarray]":
    """``(times, values)`` lookup arrays; ``None`` values become ``none_value``."""
    if series is None:
        return (
            np.asarray([0.0], dtype=float),
            np.asarray([default], dtype=float),
        )
    times = np.asarray([time_s for time_s, _ in series], dtype=float)
    values = np.asarray(
        [none_value if value is None else value for _, value in series],
        dtype=float,
    )
    return times, values


def _change_times(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Times (excluding t=0) where the held value actually changes."""
    if len(times) < 2:
        return np.asarray([], dtype=float)
    changed = np.flatnonzero(values[1:] != values[:-1]) + 1
    return times[changed]


@dataclass(frozen=True)
class OperatingSignals:
    """Piecewise-constant operating inputs for one simulation run.

    Parameters
    ----------
    power_cap_kw:
        IT (compute) power cap step series; ``None`` values mean uncapped.
    price_per_kwh:
        Electricity price step series (currency per kWh of facility energy).
    carbon_kg_per_kwh:
        Grid carbon intensity step series (kg CO2 per kWh of facility
        energy).
    """

    power_cap_kw: "tuple[CapSegment, ...] | None" = None
    price_per_kwh: "tuple[Segment, ...] | None" = None
    carbon_kg_per_kwh: "tuple[Segment, ...] | None" = None

    # Lookup caches built once in __post_init__ (excluded from eq/repr):
    # plain float tuples, searched with bisect_right — a lookup is a few
    # hundred nanoseconds, where np.searchsorted on a scalar costs
    # microseconds, and the engine makes several per capped step.
    _cap_times: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _cap_values: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _cap_suffix_max: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _price_times: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _price_values: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _carbon_times: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _carbon_values: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _changes: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cap = _canonical_series("power_cap_kw", self.power_cap_kw, allow_none_value=True)
        price = _canonical_series(
            "price_per_kwh", self.price_per_kwh, allow_none_value=False
        )
        carbon = _canonical_series(
            "carbon_kg_per_kwh", self.carbon_kg_per_kwh, allow_none_value=False
        )
        if cap is None and price is None and carbon is None:
            raise ConfigurationError(
                "OperatingSignals needs at least one of power_cap_kw, "
                "price_per_kwh, carbon_kg_per_kwh"
            )
        object.__setattr__(self, "power_cap_kw", cap)
        object.__setattr__(self, "price_per_kwh", price)
        object.__setattr__(self, "carbon_kg_per_kwh", carbon)

        cap_times, cap_values = _series_arrays(
            cap, default=math.inf, none_value=math.inf
        )
        price_times, price_values = _series_arrays(price, default=0.0, none_value=0.0)
        carbon_times, carbon_values = _series_arrays(
            carbon, default=0.0, none_value=0.0
        )
        # Suffix maximum of the cap series: the loosest cap at or after each
        # segment, for the "can this job ever fit?" feasibility check.
        cap_suffix_max = np.maximum.accumulate(cap_values[::-1])[::-1]
        changes = np.unique(
            np.concatenate(
                [
                    _change_times(cap_times, cap_values),
                    _change_times(price_times, price_values),
                    _change_times(carbon_times, carbon_values),
                ]
            )
        )
        for name, array in (
            ("_cap_times", cap_times),
            ("_cap_values", cap_values),
            ("_cap_suffix_max", cap_suffix_max),
            ("_price_times", price_times),
            ("_price_values", price_values),
            ("_carbon_times", carbon_times),
            ("_carbon_values", carbon_values),
            ("_changes", changes),
        ):
            object.__setattr__(self, name, tuple(array.tolist()))

    # -- construction helpers ------------------------------------------------

    @classmethod
    def constant(
        cls,
        *,
        power_cap_kw: "float | None" = None,
        price_per_kwh: "float | None" = None,
        carbon_kg_per_kwh: "float | None" = None,
    ) -> "OperatingSignals":
        """Signals holding one constant value per provided input."""
        return cls(
            power_cap_kw=None if power_cap_kw is None else ((0.0, power_cap_kw),),
            price_per_kwh=None if price_per_kwh is None else ((0.0, price_per_kwh),),
            carbon_kg_per_kwh=(
                None if carbon_kg_per_kwh is None else ((0.0, carbon_kg_per_kwh),)
            ),
        )

    @classmethod
    def cap_window(
        cls,
        start_s: float,
        end_s: float,
        cap_kw: float,
        *,
        price_per_kwh: "float | None" = None,
        carbon_kg_per_kwh: "float | None" = None,
    ) -> "OperatingSignals":
        """A demand-response event: uncapped except for ``[start_s, end_s)``."""
        start_s = float(start_s)
        end_s = float(end_s)
        if not 0.0 <= start_s < end_s:
            raise ConfigurationError(
                "cap_window needs 0 <= start_s < end_s, "
                f"got [{start_s}, {end_s})"
            )
        segments: list[CapSegment]
        if start_s > 0.0:
            segments = [(0.0, None), (start_s, cap_kw), (end_s, None)]
        else:
            segments = [(0.0, cap_kw), (end_s, None)]
        return cls(
            power_cap_kw=tuple(segments),
            price_per_kwh=None if price_per_kwh is None else ((0.0, price_per_kwh),),
            carbon_kg_per_kwh=(
                None if carbon_kg_per_kwh is None else ((0.0, carbon_kg_per_kwh),)
            ),
        )

    # -- lookups -------------------------------------------------------------

    @staticmethod
    def _zoh(times: tuple[float, ...], values: tuple[float, ...], t_s: float) -> float:
        # Series start at t=0, so only a query before 0 lands on index -1;
        # it reads the first segment.
        index = bisect_right(times, t_s) - 1
        return values[index if index > 0 else 0]

    def cap_at(self, t_s: float) -> float:
        """Active power cap in kW (``inf`` when uncapped)."""
        return self._zoh(self._cap_times, self._cap_values, t_s)

    def price_at(self, t_s: float) -> float:
        """Active electricity price per kWh (0.0 when no price series)."""
        return self._zoh(self._price_times, self._price_values, t_s)

    def carbon_at(self, t_s: float) -> float:
        """Active carbon intensity in kg/kWh (0.0 when no carbon series)."""
        return self._zoh(self._carbon_times, self._carbon_values, t_s)

    def values_at(self, t_s: float) -> "tuple[float, float, float]":
        """``(cap_kw, price_per_kwh, carbon_kg_per_kwh)`` active at ``t_s``."""
        return (self.cap_at(t_s), self.price_at(t_s), self.carbon_at(t_s))

    def max_cap_at_or_after(self, t_s: float) -> float:
        """The loosest cap any present-or-future window offers.

        A job whose projected power exceeds even this can never start; the
        :class:`~repro.engine.scheduler.PowerCapScheduler` dismisses it
        instead of holding it forever.
        """
        return self._zoh(self._cap_times, self._cap_suffix_max, t_s)

    def next_change_after(self, t_s: float) -> "float | None":
        """The first signal change strictly after ``t_s`` (``None`` if none).

        This is the breakpoint stream ``_coalesced_dt`` merges with job-end
        and power-profile breakpoints, so every cap/price/carbon step bounds
        a coalesced interval.
        """
        changes = self._changes
        index = bisect_right(changes, t_s)
        return changes[index] if index < len(changes) else None

    @property
    def has_cap(self) -> bool:
        """Whether any window carries a finite power cap."""
        return any(math.isfinite(value) for value in self._cap_values)

    @property
    def last_change_s(self) -> float:
        """The latest signal change point (0.0 for constant signals)."""
        return self._changes[-1] if self._changes else 0.0

    # -- serialisation -------------------------------------------------------

    def to_json_dict(self) -> "dict[str, Any]":
        """JSON-ready payload; absent series are omitted entirely.

        ``None`` cap values (uncapped windows) stay ``null`` — the payload
        must survive ``json.dumps(..., allow_nan=False)`` inside
        :meth:`repro.sweep.RunRequest.to_json`.
        """
        payload: dict[str, Any] = {}
        if self.power_cap_kw is not None:
            payload["power_cap_kw"] = [list(segment) for segment in self.power_cap_kw]
        if self.price_per_kwh is not None:
            payload["price_per_kwh"] = [
                list(segment) for segment in self.price_per_kwh
            ]
        if self.carbon_kg_per_kwh is not None:
            payload["carbon_kg_per_kwh"] = [
                list(segment) for segment in self.carbon_kg_per_kwh
            ]
        return payload

    @classmethod
    def from_json_dict(cls, payload: object) -> "OperatingSignals":
        """Inverse of :meth:`to_json_dict`; unknown keys are rejected."""
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"OperatingSignals must be a JSON object, got {type(payload).__name__}"
            )
        known = {"power_cap_kw", "price_per_kwh", "carbon_kg_per_kwh"}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown OperatingSignals keys: {sorted(unknown)}"
            )
        return cls(
            power_cap_kw=payload.get("power_cap_kw"),
            price_per_kwh=payload.get("price_per_kwh"),
            carbon_kg_per_kwh=payload.get("carbon_kg_per_kwh"),
        )
