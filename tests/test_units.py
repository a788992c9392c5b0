"""Tests for duration parsing and unit helpers."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.units import (
    ZERO_POWER_ATOL_KW,
    celsius_to_kelvin,
    format_duration,
    joules_to_kilowatt_hours,
    kelvin_to_celsius,
    kilowatt_hours_to_joules,
    kilowatts_to_megawatts,
    is_zero_kw,
    node_seconds_to_node_hours,
    parse_duration,
    watts_to_kilowatts,
)


class TestParseDuration:
    def test_plain_int_seconds(self):
        assert parse_duration(61000) == 61000

    def test_plain_float_seconds(self):
        # Fractions of a second are kept, not rounded away.
        assert parse_duration(61000.4) == 61000.4
        assert parse_duration(0.4) == 0.4
        assert parse_duration("0.25s") == 0.25

    def test_numeric_string(self):
        assert parse_duration("4381000") == 4381000

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("15s", 15),
            ("1h", 3600),
            ("7d", 7 * 86400),
            ("35d", 35 * 86400),
            ("2w", 2 * 604800),
            ("90min", 5400),
            ("1.5h", 5400),
            ("3 hours", 10800),
        ],
    )
    def test_suffixed(self, text, expected):
        assert parse_duration(text) == expected

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1:30:00", 5400),
            ("0:45", 45 * 60),
            ("2-12:00:00", 2 * 86400 + 12 * 3600),
            ("24:00:00", 86400),
        ],
    )
    def test_clock_strings(self, text, expected):
        assert parse_duration(text) == expected

    def test_none_without_default_raises(self):
        with pytest.raises(ConfigurationError):
            parse_duration(None)

    @pytest.mark.parametrize("bad", ["", "abc", "5 parsecs", "-5h", -10, True, False])
    def test_invalid(self, bad):
        with pytest.raises(ConfigurationError):
            parse_duration(bad)

    @given(st.integers(min_value=0, max_value=10**9))
    def test_roundtrip_integers(self, seconds):
        assert parse_duration(seconds) == seconds

    @given(st.integers(min_value=1, max_value=10**5))
    def test_suffix_consistency(self, hours):
        assert parse_duration(f"{hours}h") == hours * 3600


class TestFormatDuration:
    def test_seconds_only(self):
        assert format_duration(75) == "00:01:15"

    def test_with_days(self):
        assert format_duration(2 * 86400 + 3661) == "2d01:01:01"

    def test_negative(self):
        assert format_duration(-60) == "-00:01:00"

    @given(st.integers(min_value=0, max_value=10**7))
    def test_format_parse_roundtrip(self, seconds):
        text = format_duration(seconds)
        # The dDHH:MM:SS format is parseable back via the clock-string rule
        # once the day separator is normalised.
        normalised = text.replace("d", "-", 1) if "d" in text else text
        assert parse_duration(normalised) == seconds


class TestUnitConversions:
    def test_watts_kilowatts(self):
        assert watts_to_kilowatts(1500.0) == pytest.approx(1.5)

    def test_kilowatts_megawatts(self):
        assert kilowatts_to_megawatts(25000.0) == pytest.approx(25.0)

    def test_joules_kwh_roundtrip(self):
        assert kilowatt_hours_to_joules(joules_to_kilowatt_hours(7.2e9)) == pytest.approx(7.2e9)

    def test_one_kwh(self):
        assert joules_to_kilowatt_hours(3.6e6) == pytest.approx(1.0)

    def test_node_hours(self):
        assert node_seconds_to_node_hours(7200.0) == pytest.approx(2.0)

    def test_temperature_roundtrip(self):
        assert kelvin_to_celsius(celsius_to_kelvin(21.5)) == pytest.approx(21.5)

    def test_celsius_to_kelvin_zero(self):
        assert celsius_to_kelvin(0.0) == pytest.approx(273.15)


class TestParseDurationErrorPaths:
    """The failure modes callers rely on for CLI argument validation."""

    def test_unknown_suffix_names_the_unit(self):
        with pytest.raises(ConfigurationError, match="parsecs"):
            parse_duration("5 parsecs")

    def test_malformed_mixed_text(self):
        with pytest.raises(ConfigurationError, match="cannot parse"):
            parse_duration("h5")

    def test_negative_float_rejected(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            parse_duration(-0.5)

    def test_nan_rejected(self):
        with pytest.raises(ConfigurationError, match="finite"):
            parse_duration(float("nan"))

    def test_infinity_rejected(self):
        with pytest.raises(ConfigurationError, match="finite"):
            parse_duration(float("inf"))

    def test_none_error_mentions_requirement(self):
        with pytest.raises(ConfigurationError, match="required"):
            parse_duration(None)

    def test_whitespace_only_is_empty(self):
        with pytest.raises(ConfigurationError, match="empty"):
            parse_duration("   ")


class TestConversionRoundTrips:
    @given(st.floats(min_value=0.0, max_value=1e12, allow_nan=False))
    def test_kwh_joules_roundtrip(self, joules):
        assert joules_to_kilowatt_hours(kilowatt_hours_to_joules(joules / 3.6e6)) == (
            pytest.approx(joules / 3.6e6)
        )

    @given(st.floats(min_value=-273.15, max_value=1e4, allow_nan=False))
    def test_temperature_roundtrip(self, celsius):
        assert kelvin_to_celsius(celsius_to_kelvin(celsius)) == pytest.approx(
            celsius, abs=1e-9
        )

    @given(st.floats(min_value=-273.15, max_value=1e4, allow_nan=False))
    def test_kelvin_is_never_negative_for_physical_celsius(self, celsius):
        assert celsius_to_kelvin(celsius) >= 0.0


class TestIsZeroKw:
    def test_exact_zero(self):
        assert is_zero_kw(0.0)

    def test_negative_zero(self):
        assert is_zero_kw(-0.0)

    def test_subtolerance_residue(self):
        # Round-off residue from a reordered summation counts as zero.
        assert is_zero_kw(ZERO_POWER_ATOL_KW / 2)
        assert is_zero_kw(-ZERO_POWER_ATOL_KW / 2)

    def test_real_power_is_not_zero(self):
        # A single idle node is tens of watts — far above the tolerance.
        assert not is_zero_kw(0.01)
        assert not is_zero_kw(-0.01)

    def test_custom_tolerance(self):
        assert is_zero_kw(0.5, atol_kw=1.0)
        assert not is_zero_kw(0.5, atol_kw=0.1)
