"""Tests for the lumped-parameter cooling plant (CDU loops, tower loop, PUE)."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CoolingConfig, get_system_config
from repro.cooling import CoolingPlant, CoolingPlantState, power_usage_effectiveness
from repro.cooling.plant import WATER_CP

from helpers import ReferenceCoolingPlant


@pytest.fixture
def cooling_config():
    return CoolingConfig(
        cdu_count=4,
        secondary_flow_kg_per_s_per_cdu=20.0,
        facility_flow_kg_per_s=200.0,
        cdu_thermal_mass_j_per_k=1.0e6,
        facility_thermal_mass_j_per_k=1.0e7,
    )


def _settled(config: CoolingConfig, it_power_kw: float, steps: int = 2000) -> CoolingPlantState:
    """The plant's state after ``steps`` 10 s steps at a constant IT power."""
    plant = CoolingPlant(config)
    for t in range(steps):
        state = _step(plant, t * 10.0, it_power_kw, 0.0, 10.0)
    return state


def _cdu_target_c(config: CoolingConfig, per_cdu_heat_kw: float) -> float:
    """Steady-state CDU return temperature for a constant heat per CDU."""
    flow_cp = config.secondary_flow_kg_per_s_per_cdu * WATER_CP
    return config.supply_temperature_c + per_cdu_heat_kw * 1000.0 / flow_cp


class TestCDU:
    """The CDU secondary loops, seen through the plant."""

    def test_initial_state(self, cooling_config):
        # A zero-length step moves no loop: every temperature is its setpoint.
        state = _step(CoolingPlant(cooling_config), 0.0, 0.0, 0.0, 0.0)
        assert state.cdu_return_temperature_c == cooling_config.supply_temperature_c
        assert state.tower_return_temperature_c == cooling_config.facility_supply_temperature_c
        assert state.tower_supply_temperature_c == cooling_config.facility_supply_temperature_c

    def test_steady_state_return_scales_with_load(self, cooling_config):
        count = cooling_config.cdu_count
        high = _settled(cooling_config, 400.0 * count)
        low = _settled(cooling_config, 100.0 * count)
        assert high.cdu_return_temperature_c > low.cdu_return_temperature_c
        idle = _settled(cooling_config, 0.0)
        assert idle.cdu_return_temperature_c == pytest.approx(cooling_config.supply_temperature_c)

    def test_converges_to_steady_state(self, cooling_config):
        state = _settled(cooling_config, 300.0 * cooling_config.cdu_count)
        target = _cdu_target_c(cooling_config, 300.0)
        assert state.cdu_return_temperature_c == pytest.approx(target, abs=0.05)

    def test_transient_lag(self, cooling_config):
        """One short step moves the temperature only part-way to steady state."""
        plant = CoolingPlant(cooling_config)
        state = _step(plant, 5.0, 300.0 * cooling_config.cdu_count, 0.0, 5.0)
        target = _cdu_target_c(cooling_config, 300.0)
        assert cooling_config.supply_temperature_c < state.cdu_return_temperature_c < target

    def test_negative_load_clamped(self, cooling_config):
        state = _step(CoolingPlant(cooling_config), 10.0, -50.0, 0.0, 10.0)
        assert state.it_power_kw == 0.0
        assert state.cooling_power_kw == 0.0
        assert state.cdu_return_temperature_c == cooling_config.supply_temperature_c

    def test_heat_to_facility_scaled_by_effectiveness(self, cooling_config):
        # The CDUs pass 90 % of their heat to the facility loop, whose tower
        # fans draw fan_power_fraction of it on top of the pumps.
        state = _step(CoolingPlant(cooling_config), 10.0, 800.0, 0.0, 10.0)
        pump_kw = cooling_config.pump_power_fraction * 800.0
        fan_kw = cooling_config.fan_power_fraction * 0.9 * 800.0
        assert state.cooling_power_kw == pytest.approx(pump_kw + fan_kw)


class TestCoolingTower:
    """The facility loop and its cooling towers, seen through the plant."""

    def test_return_above_supply_under_load(self, cooling_config):
        state = _settled(cooling_config, 2000.0, steps=500)
        assert state.tower_return_temperature_c > state.tower_supply_temperature_c

    def test_return_temperature_increases_with_load(self, cooling_config):
        low = _settled(cooling_config, 500.0, steps=500)
        high = _settled(cooling_config, 3000.0, steps=500)
        assert high.tower_return_temperature_c > low.tower_return_temperature_c

    def test_fan_power_proportional_to_load(self):
        # Fully air-cooled: the towers reject the CRACs' heat plus their
        # compressor power, and the fans draw fan_power_fraction of it.
        config = CoolingConfig(cdu_count=0, air_cooled_fraction=1.0)
        state = _step(CoolingPlant(config), 60.0, 1000.0, 0.0, 60.0)
        crac_kw = 1000.0 / config.crac_cop
        fan_kw = config.fan_power_fraction * (1000.0 + crac_kw)
        pump_kw = config.pump_power_fraction * 1000.0
        assert state.cooling_power_kw == pytest.approx(pump_kw + fan_kw + crac_kw)

    def test_supply_never_below_setpoint(self, cooling_config):
        state = _settled(cooling_config, 0.0, steps=200)
        assert (
            state.tower_supply_temperature_c
            >= cooling_config.facility_supply_temperature_c - 1e-6
        )

    def test_approach_grows_with_load(self, cooling_config):
        # Above ~3.3 MW of facility heat, wet bulb + approach exceeds the
        # supply setpoint, and the towers' supply temperature follows it.
        low = _settled(cooling_config, 10000.0, steps=500)
        high = _settled(cooling_config, 40000.0, steps=500)
        assert (
            high.tower_supply_temperature_c
            > low.tower_supply_temperature_c
            > cooling_config.facility_supply_temperature_c
        )


def _step(
    plant: CoolingPlant,
    now: float,
    it_power_kw: float,
    loss_power_kw: float,
    dt_s: float,
) -> CoolingPlantState:
    """Step the plant; return its full state, checked against the step's outputs."""
    cooling_kw, pue = plant.step(now, it_power_kw, loss_power_kw, dt_s)
    state = plant.last_state
    assert state is not None
    assert state.cooling_power_kw == cooling_kw
    assert state.pue == pue
    return state


class TestCoolingPlant:
    def test_pue_above_one(self, cooling_config):
        plant = CoolingPlant(cooling_config)
        state = _step(plant, 60.0, it_power_kw=5000.0, loss_power_kw=200.0, dt_s=60.0)
        assert state.pue > 1.0
        assert state.loss_power_kw + state.cooling_power_kw > 0.0

    def test_pue_reasonable_at_high_load(self, cooling_config):
        plant = CoolingPlant(cooling_config)
        for t in range(100):
            state = _step(plant, t * 60.0, it_power_kw=20000.0, loss_power_kw=600.0, dt_s=60.0)
        assert 1.02 < state.pue < 1.25

    def test_pue_rises_at_low_load(self, cooling_config):
        """PUE is worse (higher) at very low IT load."""
        plant_low = CoolingPlant(cooling_config)
        plant_high = CoolingPlant(cooling_config)
        for t in range(50):
            low = _step(plant_low, t * 60.0, it_power_kw=100.0, loss_power_kw=30.0, dt_s=60.0)
            high = _step(plant_high, t * 60.0, it_power_kw=20000.0, loss_power_kw=600.0, dt_s=60.0)
        assert low.pue > high.pue

    def test_zero_it_power(self, cooling_config):
        plant = CoolingPlant(cooling_config)
        state = _step(plant, 60.0, it_power_kw=0.0, loss_power_kw=0.0, dt_s=60.0)
        # Nothing is drawn at all: PUE degenerates to the 1.0 identity.
        assert state.pue == pytest.approx(1.0)
        assert state.cooling_power_kw == pytest.approx(0.0)

    def test_zero_it_power_with_overhead_reports_inf_pue(self, cooling_config):
        # Losses keep dissipating (and being cooled) with no IT power to
        # attribute them to: PUE is unbounded, not the flattering 1.0 floor.
        plant = CoolingPlant(cooling_config)
        state = _step(plant, 60.0, it_power_kw=0.0, loss_power_kw=50.0, dt_s=60.0)
        assert state.pue == float("inf")
        assert state.cooling_power_kw > 0.0
        assert state.it_power_kw + state.loss_power_kw + state.cooling_power_kw > 0.0

    def test_zero_cdu_plant_is_fully_air_cooled(self):
        # cdu_count == 0 must not crash (the old code divided by len(cdus))
        # and must route all heat through the CRAC/facility path.
        config = CoolingConfig(cdu_count=0, air_cooled_fraction=1.0)
        plant = CoolingPlant(config)
        state = _step(plant, 60.0, it_power_kw=5000.0, loss_power_kw=100.0, dt_s=60.0)
        assert state.pue > 1.0
        # CRAC compressor power for the whole load dominates the overhead.
        assert state.cooling_power_kw > (5000.0 + 100.0) / config.crac_cop * 0.9
        assert state.cdu_return_temperature_c == pytest.approx(
            config.supply_temperature_c
        )

    def test_zero_cdu_plant_requires_full_air_fraction(self):
        # With no CDUs the liquid share would have nowhere to go, so the
        # contradictory configuration is rejected up front rather than
        # silently rerouted at step time.
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="air_cooled_fraction"):
            CoolingConfig(cdu_count=0, air_cooled_fraction=0.4)

    def test_tower_return_follows_power_with_lag(self, cooling_config):
        """Cooling tower return temperature rises after a power step (Fig. 6 behaviour)."""
        plant = CoolingPlant(cooling_config)
        for t in range(50):
            baseline = _step(plant, t * 60.0, it_power_kw=2000.0, loss_power_kw=50.0, dt_s=60.0)
        first_after_step = _step(
            plant, 51 * 60.0, it_power_kw=15000.0, loss_power_kw=300.0, dt_s=60.0
        )
        later = first_after_step
        for t in range(52, 200):
            later = _step(plant, t * 60.0, it_power_kw=15000.0, loss_power_kw=300.0, dt_s=60.0)
        assert later.tower_return_temperature_c > baseline.tower_return_temperature_c
        # Lag: immediately after the step the temperature has not yet reached
        # its eventual level.
        assert first_after_step.tower_return_temperature_c < later.tower_return_temperature_c

    def test_air_cooled_fraction_adds_crac_power(self):
        liquid = CoolingConfig(cdu_count=2, air_cooled_fraction=0.0)
        hybrid = CoolingConfig(cdu_count=2, air_cooled_fraction=0.3)
        p_liquid = _step(CoolingPlant(liquid), 60.0, 5000.0, 100.0, 60.0)
        p_hybrid = _step(CoolingPlant(hybrid), 60.0, 5000.0, 100.0, 60.0)
        assert p_hybrid.cooling_power_kw > p_liquid.cooling_power_kw
        assert p_hybrid.pue > p_liquid.pue

    def test_last_state_tracked(self, cooling_config):
        plant = CoolingPlant(cooling_config)
        assert plant.last_state is None
        cooling_kw, pue = plant.step(60.0, 1000.0, 10.0, 60.0)
        state = plant.last_state
        assert state is not None
        assert (state.time_s, state.it_power_kw, state.loss_power_kw) == (
            60.0,
            1000.0,
            10.0,
        )
        assert (state.cooling_power_kw, state.pue) == (cooling_kw, pue)
        # The loops have started to warm under the load.
        assert state.cdu_return_temperature_c > cooling_config.supply_temperature_c
        assert (
            state.tower_return_temperature_c
            > state.tower_supply_temperature_c
            == cooling_config.facility_supply_temperature_c
        )
        # The state reflects the latest step only.
        plant.step(120.0, 3000.0, 40.0, 60.0)
        assert plant.last_state is not None
        assert plant.last_state.time_s == 120.0
        assert plant.last_state.it_power_kw == 3000.0

    @given(power=st.floats(min_value=0.0, max_value=50000.0))
    @settings(max_examples=30, deadline=None)
    def test_pue_always_at_least_one_property(self, power):
        plant = CoolingPlant(CoolingConfig(cdu_count=4))
        state = _step(plant, 60.0, it_power_kw=power, loss_power_kw=power * 0.03, dt_s=60.0)
        assert state.pue >= 1.0
        assert state.cooling_power_kw >= 0.0


class TestPowerUsageEffectiveness:
    def test_ratio_with_it_power(self):
        assert power_usage_effectiveness(100.0, 5.0) == (100.0 + 5.0) / 100.0

    def test_overhead_without_it_power_is_unbounded(self):
        assert power_usage_effectiveness(0.0, 25.0) == math.inf

    def test_nothing_drawn_is_unit(self):
        assert power_usage_effectiveness(0.0, 0.0) == 1.0


class TestScalarPlantMatchesObjectSteps:
    """CoolingPlant.step equals stepping every CDU and the tower on its own.

    Exactly while the per-CDU sum of heat to the facility loop is exact
    (up to four CDUs); within 1e-12 for Frontier's 25, where the plant's
    ``cdu_count * heat`` and the reference's sum may round apart.
    """

    @pytest.mark.parametrize(
        "config",
        [
            CoolingConfig(cdu_count=4),
            CoolingConfig(cdu_count=2, air_cooled_fraction=0.3),
            CoolingConfig(cdu_count=0, air_cooled_fraction=1.0),
            CoolingConfig(
                cdu_count=3,
                secondary_flow_kg_per_s_per_cdu=20.0,
                facility_flow_kg_per_s=200.0,
                cdu_thermal_mass_j_per_k=1.0e6,
                facility_thermal_mass_j_per_k=1.0e7,
            ),
            get_system_config("frontier").cooling,
        ],
        ids=["liquid", "hybrid", "air_only", "small_loops", "frontier_25"],
    )
    def test_random_power_and_dt_series(self, config):
        def same(got: float, want: float) -> bool:
            if config.cdu_count > 4:
                return got == pytest.approx(want, rel=1e-12)
            return got == want

        rng = random.Random(20261017)
        plant = CoolingPlant(config)
        reference = ReferenceCoolingPlant(config)
        now = 0.0
        for _ in range(400):
            it_power_kw = rng.choice([0.0, rng.uniform(0.0, 30000.0), -5.0])
            loss_power_kw = rng.choice([0.0, rng.uniform(0.0, 900.0)])
            dt_s = rng.choice([15.0, 15.0 * rng.randint(2, 400), rng.uniform(0.1, 600.0)])
            cooling_kw, pue = plant.step(now, it_power_kw, loss_power_kw, dt_s)
            want_cooling_kw, want_pue = reference.step(it_power_kw, loss_power_kw, dt_s)
            assert same(cooling_kw, want_cooling_kw) and same(pue, want_pue)
            state = plant.last_state
            assert state is not None
            assert all(
                same(state.cdu_return_temperature_c, return_c)
                for return_c in reference.cdu_return_c
            )
            assert same(state.tower_return_temperature_c, reference.tower_return_c)
            assert same(state.tower_supply_temperature_c, reference.tower_supply_c)
            now += dt_s
