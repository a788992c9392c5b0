"""Tests for :class:`repro.power.OperatingSignals`."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.power import OperatingSignals


class TestValidation:
    def test_all_none_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            OperatingSignals()

    def test_empty_series_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one segment"):
            OperatingSignals(power_cap_kw=())

    def test_nonzero_first_time_rejected(self):
        with pytest.raises(ConfigurationError, match="must start at t=0"):
            OperatingSignals(price_per_kwh=((10.0, 0.1),))

    def test_non_increasing_times_rejected(self):
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            OperatingSignals(power_cap_kw=((0.0, 10.0), (100.0, 12.0), (100.0, 14.0)))

    def test_negative_value_rejected(self):
        with pytest.raises(ConfigurationError, match="finite and >= 0"):
            OperatingSignals(carbon_kg_per_kwh=((0.0, -0.2),))

    def test_nan_value_rejected(self):
        with pytest.raises(ConfigurationError, match="finite and >= 0"):
            OperatingSignals(price_per_kwh=((0.0, math.nan),))

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError, match="finite and >= 0"):
            OperatingSignals(power_cap_kw=((-5.0, 10.0),))

    def test_malformed_segment_rejected(self):
        with pytest.raises(ConfigurationError, match="pairs"):
            OperatingSignals(power_cap_kw=((0.0, 10.0, 1.0),))

    def test_none_price_value_rejected(self):
        # Only the cap series may carry None (= uncapped) values.
        with pytest.raises(ConfigurationError, match="must be numbers"):
            OperatingSignals(price_per_kwh=((0.0, None),))


class TestLookups:
    @pytest.fixture
    def signals(self):
        return OperatingSignals(
            power_cap_kw=((0.0, 12.0), (3600.0, None), (7200.0, 9.5)),
            price_per_kwh=((0.0, 0.10), (5400.0, 0.30)),
            carbon_kg_per_kwh=((0.0, 0.25),),
        )

    def test_zero_order_hold_cap(self, signals):
        assert signals.cap_at(0.0) == 12.0
        assert signals.cap_at(3599.9) == 12.0
        assert signals.cap_at(3600.0) == math.inf  # None decodes to uncapped
        assert signals.cap_at(7200.0) == 9.5
        assert signals.cap_at(1e12) == 9.5

    def test_zero_order_hold_price(self, signals):
        assert signals.price_at(0.0) == 0.10
        assert signals.price_at(5399.0) == 0.10
        assert signals.price_at(5400.0) == 0.30

    def test_constant_carbon(self, signals):
        assert signals.carbon_at(0.0) == 0.25
        assert signals.carbon_at(1e9) == 0.25

    def test_values_at_tuple(self, signals):
        assert signals.values_at(3600.0) == (math.inf, 0.10, 0.25)

    def test_absent_series_defaults(self):
        signals = OperatingSignals(price_per_kwh=((0.0, 0.2),))
        assert signals.cap_at(0.0) == math.inf
        assert signals.carbon_at(0.0) == 0.0
        assert not signals.has_cap

    def test_next_change_after_merges_all_series(self, signals):
        # Change points: 3600 (cap), 5400 (price), 7200 (cap).
        assert signals.next_change_after(0.0) == 3600.0
        assert signals.next_change_after(3600.0) == 5400.0
        assert signals.next_change_after(5400.0) == 7200.0
        assert signals.next_change_after(7200.0) is None

    def test_next_change_ignores_value_preserving_segments(self):
        signals = OperatingSignals(price_per_kwh=((0.0, 0.1), (60.0, 0.1), (120.0, 0.2)))
        # t=60 restates the same value: not a change point.
        assert signals.next_change_after(0.0) == 120.0

    def test_max_cap_at_or_after_suffix_max(self, signals):
        # From t=0 the future still contains an uncapped (inf) window.
        assert signals.max_cap_at_or_after(0.0) == math.inf
        assert signals.max_cap_at_or_after(3600.0) == math.inf
        # From the last window onward the cap stays 9.5 forever.
        assert signals.max_cap_at_or_after(7200.0) == 9.5

    def test_has_cap_and_last_change(self, signals):
        assert signals.has_cap
        assert signals.last_change_s == 7200.0
        constant = OperatingSignals.constant(power_cap_kw=10.0)
        assert constant.has_cap
        assert constant.last_change_s == 0.0


def _series(segments, none_value):
    times = np.asarray([t for t, _ in segments], dtype=float)
    values = np.asarray(
        [none_value if v is None else v for _, v in segments], dtype=float
    )
    return times, values


def _searchsorted_zoh(times, values, t_s):
    index = int(np.searchsorted(times, t_s, side="right")) - 1
    return float(values[max(index, 0)])


class TestLookupsMatchSearchsorted:
    """The bisect lookups against np.searchsorted(side="right"), exactly."""

    SIGNALS = OperatingSignals(
        power_cap_kw=((0.0, 12.0), (900.0, None), (1800.5, 9.5), (5400.0, 14.0)),
        price_per_kwh=((0.0, 0.10), (1800.5, 0.30), (3600.0, 0.30), (7200.0, 0.05)),
        carbon_kg_per_kwh=((0.0, 0.25), (2700.0, 0.4)),
    )

    def _queries(self):
        signals = self.SIGNALS
        breakpoints = {
            t
            for series in (
                signals.power_cap_kw,
                signals.price_per_kwh,
                signals.carbon_kg_per_kwh,
            )
            for t, _ in series
        }
        # Before 0 and after the last change, then each breakpoint and the
        # floats either side of it.
        queries = [-1.0, -math.ulp(0.0), 1e12, math.inf]
        for t in sorted(breakpoints):
            queries += [math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf)]
        return queries

    def test_every_lookup_matches(self):
        signals = self.SIGNALS
        cap_times, cap_values = _series(signals.power_cap_kw, math.inf)
        price_times, price_values = _series(signals.price_per_kwh, 0.0)
        carbon_times, carbon_values = _series(signals.carbon_kg_per_kwh, 0.0)
        suffix_max = np.maximum.accumulate(cap_values[::-1])[::-1]
        changes = np.unique(
            np.concatenate(
                [
                    times[np.flatnonzero(values[1:] != values[:-1]) + 1]
                    for times, values in (
                        (cap_times, cap_values),
                        (price_times, price_values),
                        (carbon_times, carbon_values),
                    )
                ]
            )
        )
        for t in self._queries():
            cap = _searchsorted_zoh(cap_times, cap_values, t)
            price = _searchsorted_zoh(price_times, price_values, t)
            carbon = _searchsorted_zoh(carbon_times, carbon_values, t)
            assert signals.cap_at(t) == cap, t
            assert signals.price_at(t) == price, t
            assert signals.carbon_at(t) == carbon, t
            assert signals.values_at(t) == (cap, price, carbon), t
            assert signals.max_cap_at_or_after(t) == _searchsorted_zoh(
                cap_times, suffix_max, t
            ), t
            index = int(np.searchsorted(changes, t, side="right"))
            expected = float(changes[index]) if index < len(changes) else None
            assert signals.next_change_after(t) == expected, t


class TestConstructors:
    def test_constant(self):
        signals = OperatingSignals.constant(power_cap_kw=11.0, price_per_kwh=0.12)
        assert signals.cap_at(1e6) == 11.0
        assert signals.price_at(1e6) == 0.12
        assert signals.carbon_kg_per_kwh is None

    def test_constant_all_none_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            OperatingSignals.constant()

    def test_cap_window_interior(self):
        signals = OperatingSignals.cap_window(600.0, 1800.0, 9.0)
        assert signals.cap_at(0.0) == math.inf
        assert signals.cap_at(600.0) == 9.0
        assert signals.cap_at(1799.9) == 9.0
        assert signals.cap_at(1800.0) == math.inf
        assert signals.has_cap

    def test_cap_window_from_zero(self):
        signals = OperatingSignals.cap_window(0.0, 900.0, 9.0)
        assert signals.power_cap_kw == ((0.0, 9.0), (900.0, None))

    def test_cap_window_bad_interval(self):
        with pytest.raises(ConfigurationError, match="start_s < end_s"):
            OperatingSignals.cap_window(1800.0, 600.0, 9.0)
        with pytest.raises(ConfigurationError, match="start_s < end_s"):
            OperatingSignals.cap_window(-1.0, 600.0, 9.0)


class TestSerialisation:
    def test_round_trip(self):
        signals = OperatingSignals(
            power_cap_kw=((0.0, None), (1800.0, 9.0), (3600.0, None)),
            price_per_kwh=((0.0, 0.08), (5400.0, 0.24)),
        )
        payload = signals.to_json_dict()
        # Uncapped windows are null, never NaN/Infinity: the sweep layer
        # serialises requests with allow_nan=False.
        text = json.dumps(payload, allow_nan=False)
        restored = OperatingSignals.from_json_dict(json.loads(text))
        assert restored == signals

    def test_absent_series_omitted(self):
        payload = OperatingSignals.constant(power_cap_kw=10.0).to_json_dict()
        assert set(payload) == {"power_cap_kw"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown OperatingSignals keys"):
            OperatingSignals.from_json_dict({"power_cap": [[0.0, 10.0]]})

    def test_accepts_json_lists(self):
        restored = OperatingSignals.from_json_dict(
            {"power_cap_kw": [[0.0, 10.0], [60.0, None]]}
        )
        assert restored.cap_at(0.0) == 10.0
        assert restored.cap_at(60.0) == math.inf
