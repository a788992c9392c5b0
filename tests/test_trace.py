"""Tests for telemetry profiles (change grids, gap filling, integration).

Lookups go through the scan reference in ``tests/helpers.py``
(:func:`value_at`, :func:`next_change_after`, ...), which reads only the
profile's change grid.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DataLoaderError
from repro.telemetry import Profile, constant_profile

from helpers import change_points, is_constant, next_change_after, value_at


class TestProfileConstruction:
    def test_basic(self):
        p = Profile([0, 10, 20], [1.0, 2.0, 3.0])
        times, values = p.change_grid()
        assert times.tolist() == [0.0, 10.0, 20.0]
        assert values.tolist() == [1.0, 2.0, 3.0]
        assert p.duration == 20

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataLoaderError):
            Profile([0, 10], [1.0])

    def test_rejects_empty(self):
        with pytest.raises(DataLoaderError):
            Profile([], [])

    def test_rejects_negative_times(self):
        with pytest.raises(DataLoaderError):
            Profile([-1, 10], [1.0, 2.0])

    def test_rejects_non_increasing_times(self):
        with pytest.raises(DataLoaderError):
            Profile([0, 10, 10], [1.0, 2.0, 3.0])

    def test_rejects_nan_values(self):
        with pytest.raises(DataLoaderError):
            Profile([0, 10], [1.0, float("nan")])

    def test_arrays_read_only(self):
        p = Profile([0, 10], [1.0, 2.0])
        with pytest.raises(ValueError):
            p.change_grid()[1][0] = 5.0

    def test_equality_and_hash(self):
        a = Profile([0, 10], [1.0, 2.0])
        b = Profile([0, 10], [1.0, 2.0])
        c = Profile([0, 10], [1.0, 3.0])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        # Equal grids with another duration are another profile; samples
        # that only repeat a value are not.
        assert a != Profile([0, 20], [1.0, 2.0])
        assert a == Profile([0, 5, 10], [1.0, 1.0, 2.0])


def _sample_hold(times, values, t):
    """Zero-order hold of raw samples at ``t``: the last sample at or before
    ``t``, the first one before it."""
    index = int(np.searchsorted(times, t, side="right")) - 1
    return float(values[max(index, 0)])


@st.composite
def _samples(draw):
    """Raw profile samples: runs of repeated values, a first sample at or
    after 0, a single sample among them."""
    n = draw(st.integers(min_value=1, max_value=40))
    first = draw(st.sampled_from([0.0, 0.5, 7.0, 1e-300]))
    gaps = draw(
        st.lists(
            st.floats(min_value=1e-3, max_value=1e4, allow_nan=False),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    times = np.concatenate(([first], first + np.cumsum(gaps))) if gaps else np.array([first])
    # A small value alphabet so runs of equal samples are common.
    alphabet = draw(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=4)
    )
    values = [draw(st.sampled_from(alphabet)) for _ in range(n)]
    return times, np.array(values, dtype=float)


class TestSampling:
    def test_zero_order_hold(self):
        p = Profile([0, 10, 20], [1.0, 2.0, 3.0])
        assert value_at(p, 0) == 1.0
        assert value_at(p, 5) == 1.0
        assert value_at(p, 10) == 2.0
        assert value_at(p, 15) == 2.0
        assert value_at(p, 20) == 3.0

    def test_last_known_value_extension(self):
        """Missing data beyond the trace uses the last known value (Sec. 3.2.2)."""
        p = Profile([0, 10], [1.0, 4.0])
        assert value_at(p, 100.0) == 4.0
        assert value_at(p, 1e9) == 4.0

    def test_before_first_sample(self):
        p = Profile([5, 10], [2.0, 4.0])
        assert value_at(p, 0.0) == 2.0

    @given(samples=_samples(), probes=st.lists(st.floats(-1e3, 5e5), max_size=10))
    @settings(max_examples=300, deadline=None)
    def test_grid_holds_the_samples(self, samples, probes):
        """The change grid's lookup equals a zero-order hold of the raw
        samples at every sample time, one ulp either side, and anywhere."""
        times, values = samples
        p = Profile(times, values)
        grid_times, grid_values = p.change_grid()
        assert grid_times[0] == 0.0
        assert np.all(np.diff(grid_times) > 0)
        assert np.all(grid_values[1:] != grid_values[:-1])
        assert p.duration == times[-1]
        edges = [
            edge
            for t in times.tolist()
            for edge in (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf))
        ]
        for t in edges + probes:
            assert value_at(p, t) == _sample_hold(times, values, t), t


class TestStatistics:
    def test_mean_single_sample(self):
        assert constant_profile(0.7).mean() == pytest.approx(0.7)

    def test_time_weighted_mean(self):
        # 1.0 held for 10s, then 3.0 held for 30s => (10+90)/40 = 2.5
        p = Profile([0, 10, 40], [1.0, 3.0, 99.0])
        assert p.mean() == pytest.approx(2.5)

    def test_min_max(self):
        p = Profile([0, 10, 20], [1.0, 5.0, 3.0])
        assert p.maximum() == 5.0
        assert p.minimum() == 1.0


class TestIntegration:
    def test_integral_constant(self):
        p = constant_profile(100.0, 50.0)
        assert p.integral(50.0) == pytest.approx(5000.0)

    def test_integral_extends_last_value(self):
        p = Profile([0, 10], [100.0, 200.0])
        # 100 W for 10s + 200 W for 90s
        assert p.integral(100.0) == pytest.approx(100 * 10 + 200 * 90)

    def test_integral_default_duration(self):
        p = Profile([0, 10, 20], [100.0, 200.0, 0.0])
        assert p.integral() == pytest.approx(100 * 10 + 200 * 10)

    def test_integral_zero_duration(self):
        assert Profile([0], [5.0]).integral(0.0) == 0.0

    def test_integral_window_before_first_sample(self):
        p = Profile([10, 20], [100.0, 200.0])
        assert p.integral(5.0) == pytest.approx(500.0)

    def test_integral_negative_duration_rejected(self):
        with pytest.raises(DataLoaderError):
            Profile([0], [1.0]).integral(-1.0)

    @given(
        value=st.floats(min_value=0.0, max_value=1e4),
        duration=st.floats(min_value=0.1, max_value=1e5),
    )
    def test_constant_profile_integral_property(self, value, duration):
        p = constant_profile(value, duration)
        assert p.integral(duration) == pytest.approx(value * duration, rel=1e-9)


class TestConstantProfile:
    def test_zero_duration_single_sample(self):
        p = constant_profile(0.5)
        assert p == Profile([0.0], [0.5])
        assert p.duration == 0.0

    def test_with_duration_two_samples(self):
        p = constant_profile(0.5, 100.0)
        assert p == Profile([0.0, 100.0], [0.5, 0.5])
        assert p.duration == 100.0

    @pytest.mark.parametrize("duration", [0.0, -5.0])
    def test_non_positive_duration_single_sample(self, duration):
        p = constant_profile(0.25, duration)
        assert p.duration == 0.0
        assert p.change_grid()[0].tolist() == [0.0]
        assert p.change_grid()[1].tolist() == [0.25]

    @pytest.mark.parametrize("duration", [0.0, 600.0])
    def test_change_index_is_empty(self, duration):
        p = constant_profile(0.4, duration)
        assert change_points(p).size == 0
        grid_times, grid_values = p.change_grid()
        assert grid_times.tolist() == [0.0]
        assert grid_values.tolist() == [0.4]
        assert is_constant(p)
        assert next_change_after(p, -1.0) is None

    def test_shared_grid_cannot_be_written(self):
        first, second = constant_profile(0.1, 60.0), constant_profile(0.9)
        grid_times, grid_values = first.change_grid()
        # Every constant profile shares one [0.0] grid-times array.
        assert second.change_grid()[0].base is grid_times.base
        for array in (grid_times, grid_values, second.change_grid()[1]):
            with pytest.raises(ValueError):
                array[...] = 7.0
            with pytest.raises(ValueError):
                array.setflags(write=True)
        assert second.change_grid()[0].tolist() == [0.0]
        assert second.change_grid()[1].tolist() == [0.9]
        assert first.change_grid()[0].tolist() == [0.0]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("duration", [0.0, 60.0])
    def test_non_finite_value_rejected(self, value, duration):
        with pytest.raises(DataLoaderError, match="finite"):
            constant_profile(value, duration)

    @pytest.mark.parametrize("value", [0.0, 0.3, 1234.5, -2.0])
    @pytest.mark.parametrize("duration", [0.0, 1.0, 3600.0])
    def test_equals_validated_profile(self, value, duration):
        got = constant_profile(value, duration)
        want = (
            Profile([0.0, duration], [value, value])
            if duration > 0
            else Profile([0.0], [value])
        )
        assert got == want
        assert got.duration == want.duration
        for got_array, want_array in zip(got.change_grid(), want.change_grid()):
            assert got_array.dtype == want_array.dtype
            assert got_array.tobytes() == want_array.tobytes()
        assert got.mean() == want.mean()
        assert got.integral(2 * duration + 1.0) == want.integral(2 * duration + 1.0)


class TestChangePoints:
    """Change-point lookups on the grid: edge cases."""

    def test_repeated_equal_samples_are_not_breakpoints(self):
        p = Profile([0.0, 60.0, 120.0, 180.0], [5.0, 5.0, 7.0, 7.0])
        np.testing.assert_array_equal(change_points(p), [120.0])
        assert next_change_after(p, 0.0) == 120.0
        assert next_change_after(p, 119.999) == 120.0
        # "Strictly after": at the change point itself, nothing lies ahead.
        assert next_change_after(p, 120.0) is None
        assert not is_constant(p)

    def test_constant_profile_has_no_change_points(self):
        p = Profile([0.0, 60.0, 120.0], [3.0, 3.0, 3.0])
        assert change_points(p).size == 0
        assert next_change_after(p, -100.0) is None
        assert next_change_after(p, 0.0) is None
        assert is_constant(p)

    def test_single_sample_profile(self):
        p = Profile([0.0], [0.5])
        assert change_points(p).size == 0
        assert next_change_after(p, 0.0) is None
        assert is_constant(p)

    def test_query_past_last_change(self):
        p = Profile([0.0, 30.0, 90.0], [1.0, 2.0, 3.0])
        assert next_change_after(p, 90.0) is None
        assert next_change_after(p, 1e9) is None

    def test_query_before_first_sample_sees_holdback_value(self):
        # Value before t=10 is 1.0 (hold-back rule), unchanged at t=10, so
        # the first change point is 20 even for queries far in the "past".
        p = Profile([10.0, 20.0], [1.0, 2.0])
        np.testing.assert_array_equal(change_points(p), [20.0])
        assert next_change_after(p, -5.0) == 20.0
        assert next_change_after(p, 0.0) == 20.0
        assert next_change_after(p, 15.0) == 20.0

    def test_every_sample_differs(self):
        p = Profile([0.0, 10.0, 20.0], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(change_points(p), [10.0, 20.0])
        assert next_change_after(p, 0.0) == 10.0
        assert next_change_after(p, 10.0) == 20.0

    def test_change_grid_is_compressed_zoh(self):
        p = Profile([0.0, 60.0, 120.0, 180.0], [5.0, 5.0, 7.0, 7.0])
        times, values = p.change_grid()
        np.testing.assert_array_equal(times, [0.0, 120.0])
        np.testing.assert_array_equal(values, [5.0, 7.0])
        # Grid starts at 0 even when the first sample is later.
        times, values = Profile([10.0, 20.0], [1.0, 2.0]).change_grid()
        np.testing.assert_array_equal(times, [0.0, 20.0])
        np.testing.assert_array_equal(values, [1.0, 2.0])

    def test_change_grid_matches_value_at(self, rng):
        times = np.arange(50.0) * 15.0
        samples = rng.integers(0, 4, size=50).astype(float)
        p = Profile(times, samples)
        grid_t, grid_v = p.change_grid()
        for t in rng.uniform(-10.0, 800.0, size=200):
            idx = max(0, int(np.searchsorted(grid_t, t, side="right")) - 1)
            assert grid_v[idx] == _sample_hold(times, samples, t)

    def test_change_arrays_are_read_only(self):
        p = Profile([0.0, 10.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            p.change_grid()[0][1] = 99.0
        with pytest.raises(ValueError):
            p.change_grid()[1][0] = 99.0


class TestSingleCopyConstruction:
    """Profile.__init__ never aliases its inputs and accepts any iterable."""

    def test_ndarray_input_is_not_aliased(self):
        times = np.array([0.0, 10.0, 20.0])
        values = np.array([1.0, 2.0, 3.0])
        p = Profile(times, values)
        times[1] = 999.0
        values[0] = 999.0
        assert p.change_grid()[0].tolist() == [0.0, 10.0, 20.0]
        assert p.change_grid()[1].tolist() == [1.0, 2.0, 3.0]

    def test_ndarray_input_arrays_are_read_only(self):
        p = Profile(np.array([0.0, 10.0]), np.array([1.0, 2.0]))
        for array in p.change_grid():
            with pytest.raises(ValueError):
                array[0] = 5.0
            with pytest.raises(ValueError):
                array.setflags(write=True)

    def test_integer_ndarray_is_converted_to_float(self):
        p = Profile(np.array([0, 10, 20]), np.array([1, 2, 3]))
        for array in p.change_grid():
            assert array.dtype == np.float64
        assert type(p.duration) is float

    def test_generator_input_still_works(self):
        p = Profile((float(t) for t in (0, 10)), (float(v) for v in (1, 2)))
        np.testing.assert_array_equal(p.change_grid()[0], [0.0, 10.0])
        assert p.duration == 10.0
