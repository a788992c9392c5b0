"""Tests for the lumped-parameter cooling plant (CDU, tower, PUE)."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CoolingConfig
from repro.cooling import (
    CDU,
    CoolingPlant,
    CoolingPlantState,
    CoolingTower,
    power_usage_effectiveness,
)


@pytest.fixture
def cooling_config():
    return CoolingConfig(
        cdu_count=4,
        secondary_flow_kg_per_s_per_cdu=20.0,
        facility_flow_kg_per_s=200.0,
        cdu_thermal_mass_j_per_k=1.0e6,
        facility_thermal_mass_j_per_k=1.0e7,
    )


class TestCDU:
    def test_initial_state(self, cooling_config):
        cdu = CDU(cooling_config)
        state = cdu.state
        assert state.return_temperature_c == pytest.approx(cooling_config.supply_temperature_c)
        assert state.heat_load_kw == 0.0
        assert state.delta_t == pytest.approx(0.0)

    def test_steady_state_return_scales_with_load(self, cooling_config):
        cdu = CDU(cooling_config)
        assert cdu.steady_state_return_c(400.0) > cdu.steady_state_return_c(100.0)
        assert cdu.steady_state_return_c(0.0) == pytest.approx(cooling_config.supply_temperature_c)

    def test_converges_to_steady_state(self, cooling_config):
        cdu = CDU(cooling_config)
        target = cdu.steady_state_return_c(300.0)
        for _ in range(2000):
            state = cdu.step(300.0, dt_s=10.0)
        assert state.return_temperature_c == pytest.approx(target, abs=0.05)

    def test_transient_lag(self, cooling_config):
        """One short step moves the temperature only part-way to steady state."""
        cdu = CDU(cooling_config)
        target = cdu.steady_state_return_c(300.0)
        state = cdu.step(300.0, dt_s=5.0)
        assert cooling_config.supply_temperature_c < state.return_temperature_c < target

    def test_negative_load_clamped(self, cooling_config):
        cdu = CDU(cooling_config)
        state = cdu.step(-50.0, dt_s=10.0)
        assert state.heat_load_kw == 0.0

    def test_reset(self, cooling_config):
        cdu = CDU(cooling_config)
        cdu.step(500.0, 1000.0)
        cdu.reset()
        assert cdu.state.return_temperature_c == pytest.approx(cooling_config.supply_temperature_c)

    def test_heat_to_facility_scaled_by_effectiveness(self, cooling_config):
        cdu = CDU(cooling_config, effectiveness=0.8)
        cdu.step(200.0, 10.0)
        assert cdu.heat_to_facility_kw() == pytest.approx(160.0)


class TestCoolingTower:
    def test_return_above_supply_under_load(self, cooling_config):
        tower = CoolingTower(cooling_config)
        for _ in range(500):
            state = tower.step(2000.0, dt_s=60.0)
        assert state.return_temperature_c > state.supply_temperature_c

    def test_return_temperature_increases_with_load(self, cooling_config):
        low_tower = CoolingTower(cooling_config)
        high_tower = CoolingTower(cooling_config)
        for _ in range(500):
            low = low_tower.step(500.0, dt_s=60.0)
            high = high_tower.step(3000.0, dt_s=60.0)
        assert high.return_temperature_c > low.return_temperature_c

    def test_fan_power_proportional_to_load(self, cooling_config):
        tower = CoolingTower(cooling_config)
        state = tower.step(1000.0, dt_s=60.0)
        assert state.fan_power_kw == pytest.approx(cooling_config.fan_power_fraction * 1000.0)

    def test_supply_never_below_setpoint(self, cooling_config):
        tower = CoolingTower(cooling_config)
        for _ in range(200):
            state = tower.step(0.0, dt_s=60.0)
        assert state.supply_temperature_c >= cooling_config.facility_supply_temperature_c - 1e-6

    def test_approach_grows_with_load(self, cooling_config):
        tower = CoolingTower(cooling_config)
        assert tower.approach_c(5000.0) > tower.approach_c(100.0)

    def test_reset(self, cooling_config):
        tower = CoolingTower(cooling_config)
        tower.step(3000.0, 600.0)
        tower.reset()
        assert tower.state.return_temperature_c == pytest.approx(
            cooling_config.facility_supply_temperature_c
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
        assert state.total_facility_power_kw > state.it_power_kw

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
        assert state.total_facility_power_kw > 0.0

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

    def test_reset(self, cooling_config):
        plant = CoolingPlant(cooling_config)
        plant.step(60.0, 10000.0, 200.0, 60.0)
        plant.reset()
        assert plant.last_state is None

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
        assert state.cdu_return_temperature_c == plant.cdus[0].state.return_temperature_c
        assert state.tower_return_temperature_c == plant.tower.state.return_temperature_c
        assert state.tower_supply_temperature_c == plant.tower.state.supply_temperature_c
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


def _object_plant_step(
    config: CoolingConfig,
    cdus: list[CDU],
    tower: CoolingTower,
    it_power_kw: float,
    loss_power_kw: float,
    dt_s: float,
) -> tuple[float, float]:
    """Reference: the plant step composed from the CDU/tower ``step`` objects."""
    it_power_kw = max(0.0, it_power_kw)
    loss_power_kw = max(0.0, loss_power_kw)
    total_heat_kw = it_power_kw + loss_power_kw
    liquid_heat_kw = total_heat_kw * (1.0 - config.air_cooled_fraction)
    air_heat_kw = total_heat_kw * config.air_cooled_fraction
    heat_to_facility_kw = 0.0
    if cdus:
        per_cdu_heat = liquid_heat_kw / len(cdus)
        for cdu in cdus:
            cdu.step(per_cdu_heat, dt_s)
            heat_to_facility_kw += cdu.heat_to_facility_kw()
    crac_power_kw = air_heat_kw / config.crac_cop if air_heat_kw > 0 else 0.0
    facility_heat_kw = heat_to_facility_kw + air_heat_kw + crac_power_kw
    tower_state = tower.step(facility_heat_kw, dt_s)
    pump_power_kw = config.pump_power_fraction * total_heat_kw
    cooling_power_kw = pump_power_kw + tower_state.fan_power_kw + crac_power_kw
    overhead_kw = loss_power_kw + cooling_power_kw
    if it_power_kw > 0:
        pue = (it_power_kw + overhead_kw) / it_power_kw
    elif overhead_kw > 0:
        pue = float("inf")
    else:
        pue = 1.0
    return cooling_power_kw, pue


class TestScalarPlantMatchesObjectSteps:
    """CoolingPlant.step equals stepping the CDU and tower objects, exactly."""

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
        ],
        ids=["liquid", "hybrid", "air_only", "small_loops"],
    )
    def test_random_power_and_dt_series(self, config):
        rng = random.Random(20261017)
        plant = CoolingPlant(config)
        cdus = [CDU(config) for _ in range(config.cdu_count)]
        tower = CoolingTower(config)
        now = 0.0
        for _ in range(400):
            it_power_kw = rng.choice([0.0, rng.uniform(0.0, 30000.0), -5.0])
            loss_power_kw = rng.choice([0.0, rng.uniform(0.0, 900.0)])
            dt_s = rng.choice([15.0, 15.0 * rng.randint(2, 400), rng.uniform(0.1, 600.0)])
            got = plant.step(now, it_power_kw, loss_power_kw, dt_s)
            want = _object_plant_step(config, cdus, tower, it_power_kw, loss_power_kw, dt_s)
            assert got == want
            for plant_cdu, cdu in zip(plant.cdus, cdus):
                assert plant_cdu.state == cdu.state
            assert plant.tower.state == tower.state
            now += dt_s
