"""Job telemetry profiles, stored as their change grids.

Job telemetry in the paper's datasets comes either as regularly sampled
traces (Frontier: 15 s, Marconi100: 20 s) or as scalar summaries (Fugaku,
Lassen, Adastra). Missing data — e.g. when a rescheduled job runs longer than
its recorded telemetry — is filled with the *last known value*, exactly as
described in Sec. 3.2.2 of the paper, and times before the first sample hold
the first value. A profile is therefore a zero-order hold over ``[0, inf)``,
and :class:`Profile` keeps only what that needs: its *change grid* — the
relative times at which the held value changes, starting at 0.0, and the
value held from each on — plus its recorded duration. Repeated equal
samples are dropped once, when the profile is built.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from ..exceptions import DataLoaderError


class Profile:
    """A job telemetry profile relative to job start, held as its change grid.

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
    The samples are validated and compressed once, on construction, and
    not kept: :meth:`change_grid` holds the first value from 0.0 on and
    then every sample whose value differs from the one before it, and
    :attr:`duration` is the time of the last sample. The grid arrays are
    read-only, so a profile can be shared between a replayed and a
    rescheduled run of the same job without aliasing hazards.
    """

    __slots__ = ("_grid_times", "_grid_values", "_duration")

    def __init__(self, times: Iterable[float], values: Iterable[float]) -> None:
        times_arr = _float_array(times)
        values_arr = _float_array(values)
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
        # The first sample is never a change point: the hold-back rule makes
        # its value effective from 0.0 already.
        changed = np.flatnonzero(values_arr[1:] != values_arr[:-1]) + 1
        self._grid_times = _frozen_view(np.concatenate(([0.0], times_arr[changed])))
        self._grid_values = _frozen_view(
            np.concatenate((values_arr[:1], values_arr[changed]))
        )
        self._duration = float(times_arr[-1])

    @property
    def duration(self) -> float:
        """Time of the last sample (seconds relative to job start)."""
        return self._duration

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Profile(grid_points={self._grid_times.size}, "
            f"duration={self._duration:.0f}s, mean={self.mean():.3g})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Profile):
            return NotImplemented
        return bool(
            self._duration == other._duration
            and np.array_equal(self._grid_times, other._grid_times)
            and np.array_equal(self._grid_values, other._grid_values)
        )

    def __hash__(self) -> int:
        return hash(
            (self._grid_times.tobytes(), self._grid_values.tobytes(), self._duration)
        )

    def change_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """The zero-order-hold grid ``(times, values)`` (read-only float64).

        ``values[i]`` is the value in effect on ``[times[i], times[i+1])``
        (the last entry extends to infinity — gap-filling rule); ``times``
        always starts at 0.0, and no two consecutive ``values`` are equal.
        Consumers index it with ``searchsorted`` / ``bisect_right``.
        """
        return self._grid_times, self._grid_values

    # -- statistics ----------------------------------------------------------

    def mean(self) -> float:
        """Time-weighted mean of the profile over ``[0, duration]``.

        The held value itself when the duration is zero.
        """
        if self._duration <= 0.0:
            return float(self._grid_values[0])
        return self.integral() / self._duration

    def maximum(self) -> float:
        """Maximum sample value."""
        return float(np.max(self._grid_values))

    def minimum(self) -> float:
        """Minimum sample value."""
        return float(np.min(self._grid_values))

    def integral(self, duration: float | None = None) -> float:
        """Integrate the zero-order-hold profile over ``[0, duration]``.

        With ``values`` in watts and times in seconds this yields joules.
        ``duration`` defaults to the recorded profile duration; longer
        durations extend the last known value (gap-filling rule).
        """
        if duration is None:
            duration = self._duration
        if duration < 0:
            raise DataLoaderError("integration duration must be non-negative")
        if duration == 0:
            return 0.0
        # The grid intervals that start before ``duration``, the last one
        # cut there.
        end = int(np.searchsorted(self._grid_times, duration))
        widths = np.diff(np.append(self._grid_times[:end], duration))
        return float(np.sum(self._grid_values[:end] * widths))


def _float_array(data: Iterable[float]) -> np.ndarray:
    """``data`` as a float64 array; iterables other than arrays are listed first."""
    return np.asarray(data if isinstance(data, np.ndarray) else list(data), dtype=float)


def _frozen_view(array: np.ndarray) -> np.ndarray:
    """A view of ``array`` that nobody can make writeable again.

    The base is frozen first, so both writing through the view and
    ``setflags(write=True)`` on it raise ``ValueError``: one such array can
    be shared by every profile without any profile being able to change
    another.
    """
    array.setflags(write=False)
    return array[:]


def _grid_profile(
    grid_times: np.ndarray, grid_values: np.ndarray, duration: float
) -> Profile:
    """A :class:`Profile` from a change grid its producer guarantees.

    No checks and no copies: the caller hands over read-only 1-D float64
    arrays of equal length, ``grid_times`` strictly increasing from 0.0,
    finite ``grid_values`` with no two consecutive ones equal, and a
    ``duration`` at or after the last grid time. Only producers that
    guarantee this by construction — the workload generator and
    :func:`constant_profile` — use it; everything else goes through
    ``Profile`` and gets the checks.
    """
    profile = Profile.__new__(Profile)
    profile._grid_times = grid_times
    profile._grid_values = grid_values
    profile._duration = duration
    return profile


#: The grid times every constant profile shares: it holds its value from
#: 0.0 on and never changes.
_ZERO_GRID = _frozen_view(np.zeros(1))


def constant_profile(value: float, duration: float = 0.0) -> Profile:
    """Build a constant profile holding ``value`` for ``duration`` seconds.

    Datasets that only provide per-job averages (Fugaku, Lassen, Adastra) are
    represented as constant profiles; a non-positive ``duration`` gives a
    zero-duration profile. The result equals the validated
    ``Profile([0, duration], [value, value])`` (or ``Profile([0], [value])``)
    and raises the same :class:`DataLoaderError` for a non-finite
    ``value``, but its grid times are the shared ``[0.0]`` array.
    """
    value = float(value)
    if not math.isfinite(value):
        raise DataLoaderError("profile values must be finite")
    return _grid_profile(
        _ZERO_GRID,
        _frozen_view(np.array([value])),
        float(duration) if duration > 0 else 0.0,
    )
