"""Sampled time-series profiles for job telemetry.

Job telemetry in the paper's datasets comes either as regularly sampled
traces (Frontier: 15 s, Marconi100: 20 s) or as scalar summaries (Fugaku,
Lassen, Adastra). :class:`Profile` provides one uniform abstraction for both:
a sequence of (relative-time, value) samples that can be queried at arbitrary
simulation times. Missing data — e.g. when a rescheduled job runs longer than
its recorded telemetry — is filled with the *last known value*, exactly as
described in Sec. 3.2.2 of the paper.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from ..exceptions import DataLoaderError


class Profile:
    """A sampled telemetry profile relative to job start.

    Parameters
    ----------
    times:
        Sample times in seconds relative to the owning job's start (must be
        non-negative and strictly increasing).
    values:
        Sample values (utilization fraction, watts, ...); same length as
        ``times``.

    Notes
    -----
    Profiles are immutable after construction; the sample arrays are copied
    exactly once and marked read-only so they can be shared between a
    replayed and a rescheduled run of the same job without aliasing hazards.
    """

    __slots__ = ("_times", "_values", "_change_times", "_grid_times", "_grid_values")

    def __init__(self, times: Iterable[float], values: Iterable[float]) -> None:
        times_arr = _owned_float_array(times)
        values_arr = _owned_float_array(values)
        if times_arr.ndim != 1 or values_arr.ndim != 1:
            raise DataLoaderError("profile times and values must be 1-D")
        if times_arr.shape != values_arr.shape:
            raise DataLoaderError(
                f"profile length mismatch: {times_arr.shape[0]} times vs "
                f"{values_arr.shape[0]} values"
            )
        if times_arr.size == 0:
            raise DataLoaderError("profile must contain at least one sample")
        if np.any(times_arr < 0):
            raise DataLoaderError("profile times must be non-negative")
        if np.any(np.diff(times_arr) <= 0):
            raise DataLoaderError("profile times must be strictly increasing")
        if np.any(~np.isfinite(values_arr)):
            raise DataLoaderError("profile values must be finite")
        self._times = times_arr
        self._values = values_arr
        self._times.setflags(write=False)
        self._values.setflags(write=False)
        # Change-point index (lazy): the relative times at which the held
        # value actually *changes* — repeated equal samples are not change
        # points — plus the compressed zero-order-hold grid over [0, inf).
        self._change_times: np.ndarray | None = None
        self._grid_times: np.ndarray | None = None
        self._grid_values: np.ndarray | None = None

    # -- basic accessors ----------------------------------------------------

    @property
    def times(self) -> np.ndarray:
        """Sample times (read-only view), seconds relative to job start."""
        return self._times

    @property
    def values(self) -> np.ndarray:
        """Sample values (read-only view)."""
        return self._values

    @property
    def duration(self) -> float:
        """Time of the last sample (seconds relative to job start)."""
        return float(self._times[-1])

    def __len__(self) -> int:
        return int(self._times.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Profile(n={len(self)}, duration={self.duration:.0f}s, "
            f"mean={self.mean():.3g})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Profile):
            return NotImplemented
        return bool(
            np.array_equal(self._times, other._times)
            and np.array_equal(self._values, other._values)
        )

    def __hash__(self) -> int:
        return hash((self._times.tobytes(), self._values.tobytes()))

    # -- sampling ------------------------------------------------------------

    def value_at(self, t: float) -> float:
        """Sample the profile at relative time ``t`` (seconds).

        Uses previous-sample (zero-order) hold: the value of the most recent
        sample at or before ``t``. Times before the first sample return the
        first sample; times after the last sample return the last sample —
        this is the "missing data → last known value" rule of the paper.
        """
        return float(self.values_at(np.asarray([t]))[0])

    def values_at(self, ts: Sequence[float] | np.ndarray) -> np.ndarray:
        """Vectorised :meth:`value_at` for an array of relative times."""
        ts_arr = np.asarray(ts, dtype=float)
        idx = np.searchsorted(self._times, ts_arr, side="right") - 1
        idx = np.clip(idx, 0, len(self) - 1)
        return self._values[idx]

    # -- change points -------------------------------------------------------

    def _ensure_change_index(self) -> None:
        if self._change_times is not None:
            return
        values = self._values
        # Indices where the held value differs from the previous sample;
        # the first sample is never a change point (the hold-back rule makes
        # its value effective from t = -inf already).
        changed = np.flatnonzero(values[1:] != values[:-1]) + 1
        change_times = self._times[changed]
        grid_times = np.concatenate([[0.0], change_times])
        grid_values = np.concatenate([[values[0]], values[changed]])
        for arr in (change_times, grid_times, grid_values):
            arr.setflags(write=False)
        self._change_times = change_times
        self._grid_times = grid_times
        self._grid_values = grid_values

    def change_points(self) -> np.ndarray:
        """Relative times at which the held value changes (read-only).

        Repeated equal samples are *not* change points, so a constant
        profile — regardless of how many samples spell it out — returns an
        empty array. The first sample is never a change point either: its
        value is already in effect before it (hold-back rule).
        """
        self._ensure_change_index()
        assert self._change_times is not None  # _ensure_change_index postcondition
        return self._change_times

    def change_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Compressed zero-order-hold representation ``(times, values)``.

        ``values[i]`` is the value in effect on ``[times[i], times[i+1])``
        (the last entry extends to infinity — gap-filling rule); ``times``
        always starts at 0.0. Equivalent to, but usually much smaller than,
        the raw sample arrays; consumers index it with ``searchsorted``.
        """
        self._ensure_change_index()
        assert self._grid_times is not None and self._grid_values is not None
        return self._grid_times, self._grid_values

    def next_change_after(self, t: float) -> float | None:
        """First relative time strictly after ``t`` where the value changes.

        Returns ``None`` when the value never changes after ``t`` — for a
        constant profile, for any ``t`` at or past the last change point,
        and always for single-sample profiles. Queries before the first
        sample see the hold-back value, so the first change point is the
        earliest possible answer. Backed by the precomputed change-point
        array, so a query is one ``searchsorted``, not a scan.
        """
        self._ensure_change_index()
        change_times = self._change_times
        assert change_times is not None  # _ensure_change_index postcondition
        idx = int(np.searchsorted(change_times, t, side="right"))
        if idx >= change_times.size:
            return None
        return float(change_times[idx])

    def is_constant(self) -> bool:
        """Whether the profile holds a single value over its whole span."""
        self._ensure_change_index()
        assert self._change_times is not None  # _ensure_change_index postcondition
        return self._change_times.size == 0

    def mean(self) -> float:
        """Time-weighted mean of the profile over its recorded duration.

        For a single-sample profile this is simply that sample. For longer
        profiles the zero-order-hold interpretation makes the time-weighted
        mean a weighted sum of the samples by their holding intervals (the
        last sample gets zero weight and is therefore excluded, unless it is
        the only one).
        """
        if len(self) == 1:
            return float(self._values[0])
        dt = np.diff(self._times)
        return float(np.sum(self._values[:-1] * dt) / np.sum(dt))

    def maximum(self) -> float:
        """Maximum sample value."""
        return float(np.max(self._values))

    def minimum(self) -> float:
        """Minimum sample value."""
        return float(np.min(self._values))

    def integral(self, duration: float | None = None) -> float:
        """Integrate the zero-order-hold profile over ``[0, duration]``.

        With ``values`` in watts and times in seconds this yields joules.
        ``duration`` defaults to the recorded profile duration; longer
        durations extend the last known value (gap-filling rule).
        """
        if duration is None:
            duration = self.duration
        if duration < 0:
            raise DataLoaderError("integration duration must be non-negative")
        if duration == 0:
            return 0.0
        # Sample boundaries clipped to [0, duration] plus the end point.
        edges = np.concatenate([self._times[self._times < duration], [duration]])
        if edges.size <= 1:
            # Window ends before the first sample: hold the first value.
            return float(self._values[0]) * duration
        # Interval before the first sample uses the first value (head), every
        # following interval holds the value of the sample that starts it.
        head = float(self._values[0]) * float(edges[0])
        values = self.values_at(edges[:-1])
        return head + float(np.sum(values * np.diff(edges)))


def _owned_float_array(data: Iterable[float]) -> np.ndarray:
    """Convert ``data`` to a float64 array the caller owns, copying once.

    ndarray inputs are copied directly (``astype``) — no intermediate Python
    list, which used to box every element and copy twice on large telemetry
    loads. Other iterables are materialised into a list first (``np.asarray``
    then builds a fresh buffer, so no aliasing is possible).
    """
    if isinstance(data, np.ndarray):
        return data.astype(float, copy=True)
    return np.asarray(list(data), dtype=float)


def trusted_profile(times: np.ndarray, values: np.ndarray) -> Profile:
    """Build a :class:`Profile` from arrays the caller guarantees are valid.

    Skips the validating copies of ``Profile.__init__``: the arrays are
    marked read-only and stored as-is, so sharing one ``times`` array across
    many profiles costs nothing. The caller must hand over 1-D float64
    arrays of equal length with non-negative strictly increasing times and
    finite values, and must not mutate them (or any array they view)
    afterwards. Only producers that guarantee this by construction — the
    workload generator and :func:`constant_profile` — should use it;
    everything else goes through ``Profile`` and gets the checks.
    """
    profile = Profile.__new__(Profile)
    times.setflags(write=False)
    values.setflags(write=False)
    profile._times = times
    profile._values = values
    profile._change_times = None
    profile._grid_times = None
    profile._grid_values = None
    return profile


def _frozen_view(array: np.ndarray) -> np.ndarray:
    """A view of ``array`` that nobody can make writeable again.

    The base is frozen first, so both writing through the view and
    ``setflags(write=True)`` on it raise ``ValueError``: one such array can
    be shared by every profile without any profile being able to change
    another.
    """
    array.setflags(write=False)
    return array[:]


#: The change index every constant profile shares: its zero-order-hold grid
#: starts (and stays) at 0.0, and its value never changes.
_ZERO_GRID = _frozen_view(np.zeros(1))
_NO_CHANGES = _frozen_view(np.empty(0))


def constant_profile(value: float, duration: float = 0.0) -> Profile:
    """Build a scalar (single- or two-sample) profile holding ``value``.

    Datasets that only provide per-job averages (Fugaku, Lassen, Adastra) are
    represented as constant profiles; ``duration`` > 0 adds a trailing sample
    so the recorded duration is explicit. The result equals the validated
    ``Profile([0, duration], [value, value])`` (or ``Profile([0], [value])``)
    and raises the same :class:`DataLoaderError` for a non-finite ``value``,
    but is built without the array checks and is born with its change index
    (the shared empty change array and ``[0.0]`` grid), so neither
    construction nor power-state building pays per-profile work for it.
    """
    value = float(value)
    if not math.isfinite(value):
        raise DataLoaderError("profile values must be finite")
    if duration > 0:
        profile = trusted_profile(
            np.array([0.0, float(duration)]), np.array([value, value])
        )
    else:
        profile = trusted_profile(_ZERO_GRID, np.array([value]))
    profile._change_times = _NO_CHANGES
    profile._grid_times = _ZERO_GRID
    profile._grid_values = profile._values[:1]
    return profile
