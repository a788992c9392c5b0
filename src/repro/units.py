"""Input rules for numbers, durations and seeds, plus the power-unit helpers.

The paper's CLI accepts fast-forward/simulation-time arguments such as
``-ff 4381000`` (plain seconds), ``-t 1h``, ``-ff 35d`` or ``-t 7d``;
:func:`parse_duration` is the parser every front end uses for them.

Every boundary reads its numbers and seeds through the rules here, so each
rule has one home:

* :func:`check_number` is the one number rule: bools and non-reals are
  refused, and an int beyond float range reads as ``inf``, which the
  caller's finiteness check then refuses. Each caller keeps its own range
  check and error type, and an error message prints the float it read, so
  an int too long for ``repr`` still makes a message.
* :func:`check_duration_s` is a positive, finite number of seconds on top
  of it (request windows and horizons, the engine's horizon).
* :func:`check_integer` is the one integer rule: bools, floats (``60.0``
  included) and strings are refused rather than truncated or parsed, and
  an optional ``minimum`` is the lower bound (counts, timesteps, seeds).
* :func:`check_seed` is the one seed check, on top of it.

All simulation time is handled internally as seconds (floats) relative to
the start of the loaded telemetry window; wall-clock anchoring is the job of
the dataloaders.
"""

from __future__ import annotations

import math
import re
from numbers import Integral, Real
from typing import Union

from .exceptions import ConfigurationError, SimulationError

#: Multipliers for the duration suffixes accepted by :func:`parse_duration`.
_SUFFIX_SECONDS = {
    "s": 1,
    "sec": 1,
    "second": 1,
    "seconds": 1,
    "m": 60,
    "min": 60,
    "minute": 60,
    "minutes": 60,
    "h": 3600,
    "hr": 3600,
    "hour": 3600,
    "hours": 3600,
    "d": 86400,
    "day": 86400,
    "days": 86400,
    "w": 604800,
    "week": 604800,
    "weeks": 604800,
}

_DURATION_RE = re.compile(r"^\s*(?P<value>\d+(?:\.\d+)?)\s*(?P<unit>[a-zA-Z]*)\s*$")

_HMS_RE = re.compile(
    r"^\s*(?:(?P<days>\d+)-)?(?P<hours>\d{1,3}):(?P<minutes>\d{2})(?::(?P<seconds>\d{2}))?\s*$"
)

DurationLike = Union[int, float, str, None]

#: Seeds must stay below this: the results store keeps them in a signed
#: 64-bit ``INTEGER`` column.
SEED_LIMIT = 2**63


def check_number(value: object, label: str) -> float:
    """``value`` as a float, or a :class:`ConfigurationError` naming ``label``.

    The one number rule: a bool or anything but a real number is refused,
    and an int beyond float range reads as ``inf`` (``-inf`` below it), so
    the caller's finiteness check refuses it rather than ``float()`` raising
    a builtin ``OverflowError``. Range checks stay with the caller.
    """
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigurationError(f"{label} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int beyond float range is not finite either
        return math.inf if value > 0 else -math.inf


def check_duration_s(value: object, label: str) -> float:
    """A positive, finite number of seconds as a float.

    :func:`check_number` reads ``value``; a number that is not positive and
    finite is a :class:`SimulationError` naming ``label``.
    """
    seconds = check_number(value, label)
    if not (math.isfinite(seconds) and seconds > 0):
        raise SimulationError(f"{label} must be positive and finite, got {seconds!r}")
    return seconds


def check_integer(value: object, label: str, *, minimum: int | None = None) -> int:
    """``value`` as an int, or a :class:`ConfigurationError` naming ``label``.

    The one integer rule: a bool, a float (``60.0`` included) or anything
    else but an integer is refused rather than truncated or parsed, and so
    is an int below ``minimum`` when one is given. Other range checks stay
    with the caller.
    """
    rule = "an integer" if minimum is None else f"an integer >= {minimum}"
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigurationError(f"{label} must be {rule}, got {value!r}")
    if minimum is not None and value < minimum:
        shown = check_number(value, label)
        raise ConfigurationError(f"{label} must be {rule}, got {shown:.17g}")
    return int(value)


def parse_duration(value: DurationLike) -> float:
    """Parse a duration expression into seconds.

    Accepted forms:

    * plain numbers (``61000``, ``5400.5``) — interpreted as seconds and
      read by :func:`check_number` (a bool is not a number here),
    * suffixed strings (``"15s"``, ``"1h"``, ``"1.5h"``, ``"7d"``, ``"2w"``),
    * Slurm-style clock strings (``"1:30:00"``, ``"2-12:00:00"``, ``"15:00"``).

    Fractions of a second are kept, so every front end that parses a
    duration here means the same window by it.

    Parameters
    ----------
    value:
        The duration expression. ``None`` is an error (a duration is
        required).

    Returns
    -------
    float
        Number of seconds.

    Raises
    ------
    ConfigurationError
        If the expression is missing, cannot be parsed, is not finite or is
        negative.
    """
    if value is None:
        raise ConfigurationError("duration is required but was None")
    if isinstance(value, str):
        seconds = _text_seconds(value)
    else:
        seconds = check_number(value, "duration")
    if not math.isfinite(seconds):
        raise ConfigurationError(f"duration must be finite, got {seconds!r}")
    if seconds < 0:
        raise ConfigurationError(f"duration must be non-negative, got {seconds!r}")
    return seconds


def _text_seconds(value: str) -> float:
    """The seconds a suffixed or clock string names (``inf`` past float range)."""
    text = value.strip()
    if not text:
        raise ConfigurationError("empty duration string")

    hms = _HMS_RE.match(text)
    if hms is not None:
        days = int(hms.group("days") or 0)
        hours = int(hms.group("hours"))
        minutes = int(hms.group("minutes"))
        seconds = int(hms.group("seconds") or 0)
        # Slurm's "MM:SS" form has no hour field; we follow the common
        # scheduler convention of treating "H:MM" / "H:MM:SS" as hours-first,
        # which matches the strings used in the paper's artifacts.
        return check_number(((days * 24 + hours) * 60 + minutes) * 60 + seconds, "duration")

    match = _DURATION_RE.match(text)
    if match is None:
        raise ConfigurationError(f"cannot parse duration {value!r}")
    number = float(match.group("value"))
    unit = match.group("unit").lower() or "s"
    if unit not in _SUFFIX_SECONDS:
        raise ConfigurationError(f"unknown duration unit {unit!r} in {value!r}")
    return number * _SUFFIX_SECONDS[unit]


def check_seed(seed: object) -> int:
    """``seed`` as an int in ``[0, 2**63)``, or a :class:`ConfigurationError`.

    The one seed check: :class:`~repro.engine.SimulationEngine`,
    :class:`~repro.workloads.SyntheticWorkloadGenerator`,
    :func:`~repro.engine.run_simulation`, :class:`~repro.sweep.RunRequest`
    and the explicit seeds of :class:`~repro.sweep.SweepSpec` apply it.
    :func:`check_integer` refuses bools, floats and strings, and a seed of
    :data:`SEED_LIMIT` or more is refused before it runs, because the
    results store could not hold it; that message does not echo the int,
    which may be too long to print.
    """
    value = check_integer(seed, "seed", minimum=0)
    if value >= SEED_LIMIT:
        raise ConfigurationError(
            "seed must be below 2**63 (the results store keeps seeds as signed "
            "64-bit integers)"
        )
    return value


def format_duration(seconds: float) -> str:
    """Render seconds as a compact human-readable ``DdHH:MM:SS`` string."""
    seconds = int(round(seconds))
    sign = "-" if seconds < 0 else ""
    seconds = abs(seconds)
    days, rem = divmod(seconds, 86400)
    hours, rem = divmod(rem, 3600)
    minutes, secs = divmod(rem, 60)
    if days:
        return f"{sign}{days}d{hours:02d}:{minutes:02d}:{secs:02d}"
    return f"{sign}{hours:02d}:{minutes:02d}:{secs:02d}"


def watts_to_kilowatts(watts: float) -> float:
    """Convert watts to kilowatts."""
    return watts / 1_000.0


def joules_to_kilowatt_hours(joules: float) -> float:
    """Convert joules to kilowatt-hours."""
    return joules / 3.6e6


def kilowatt_hours_to_joules(kwh: float) -> float:
    """Convert kilowatt-hours to joules."""
    return kwh * 3.6e6


def celsius_to_kelvin(celsius: float) -> float:
    """Convert a temperature from Celsius to Kelvin."""
    return celsius + 273.15


def kelvin_to_celsius(kelvin: float) -> float:
    """Convert a temperature from Kelvin to Celsius."""
    return kelvin - 273.15


#: Absolute tolerance (kW) below which a power magnitude counts as zero.
#:
#: Chosen far below anything the simulator produces — the smallest non-zero
#: facility power is a single idle node (tens of watts, i.e. ~1e-2 kW) and
#: real values are either *exactly* ``0.0`` (nothing computed yet) or many
#: orders of magnitude above this threshold — so the guard changes no
#: simulated numbers while absorbing sub-ULP round-off from summation
#: reorderings.
ZERO_POWER_ATOL_KW = 1e-12


def is_zero_kw(power_kw: float, *, atol_kw: float = ZERO_POWER_ATOL_KW) -> bool:
    """Whether a kilowatt magnitude is (numerically) zero.

    The sanctioned replacement for exact ``== 0.0`` guards on power and
    energy quantities, which the ``float-compare`` rule of ``repro-lint``
    rejects: exact comparison silently turns into a different branch when
    an optimisation reorders a floating-point reduction.
    """
    return abs(power_kw) <= atol_kw
