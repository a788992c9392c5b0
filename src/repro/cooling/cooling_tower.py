"""Evaporative cooling-tower model.

The cooling towers reject the facility loop's heat to ambient. The water
returning *to* the towers (the "cooling tower return temperature" plotted in
Fig. 6 of the paper) rises with the facility loop heat load; the towers cool
it back down to the ambient wet-bulb temperature plus an approach that grows
with load. Tower fan power is modelled as a load-dependent fraction of the
rejected heat, contributing to PUE.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import CoolingConfig
from .cdu import WATER_CP, lag_fraction


@dataclass
class CoolingTowerState:
    """State of the cooling-tower loop at a point in time."""

    #: Temperature of water arriving at the towers (hot side), Celsius.
    return_temperature_c: float
    #: Temperature of water leaving the towers (cold side), Celsius.
    supply_temperature_c: float
    #: Heat rejected to ambient, kW.
    heat_rejected_kw: float
    #: Tower fan power, kW.
    fan_power_kw: float


class CoolingTower:
    """Facility water loop + evaporative towers (lumped)."""

    def __init__(self, config: CoolingConfig) -> None:
        self.config = config
        self.flow_kg_per_s = config.facility_flow_kg_per_s
        self.thermal_mass_j_per_k = config.facility_thermal_mass_j_per_k
        #: Time constant of both loop-temperature lags, s.
        self.tau_s = self.thermal_mass_j_per_k / (self.flow_kg_per_s * WATER_CP)
        self._return_temperature_c = config.facility_supply_temperature_c
        self._supply_temperature_c = config.facility_supply_temperature_c
        self._heat_rejected_kw = 0.0
        self._fan_power_kw = 0.0

    @property
    def state(self) -> CoolingTowerState:
        """Current tower-loop state."""
        return CoolingTowerState(
            return_temperature_c=self._return_temperature_c,
            supply_temperature_c=self._supply_temperature_c,
            heat_rejected_kw=self._heat_rejected_kw,
            fan_power_kw=self._fan_power_kw,
        )

    def steady_state_return_c(self, heat_load_kw: float) -> float:
        """Return temperature for a constant heat load (steady state)."""
        delta_t = (heat_load_kw * 1000.0) / (self.flow_kg_per_s * WATER_CP)
        return self._supply_temperature_c + delta_t

    def approach_c(self, heat_load_kw: float) -> float:
        """Load-dependent approach above ambient wet bulb (K)."""
        config = self.config
        return config.tower_approach_c + config.tower_range_coefficient * heat_load_kw * 1000.0

    def advance(self, heat_load_kw: float, dt_s: float) -> float:
        """Advance the facility loop by ``dt_s`` seconds under ``heat_load_kw``.

        Returns the tower fan power (kW); :meth:`step` is the same update
        returning the full :class:`CoolingTowerState`.
        """
        heat_load_kw = max(0.0, heat_load_kw)
        config = self.config

        # Cold-side (tower supply) temperature: wet bulb + approach, but never
        # below the configured facility supply setpoint.
        supply_target = max(
            config.facility_supply_temperature_c,
            config.ambient_wet_bulb_c + self.approach_c(heat_load_kw),
        )

        # Hot-side (tower return) temperature relaxes towards supply + dT.
        alpha = lag_fraction(dt_s, self.tau_s)

        delta_t = (heat_load_kw * 1000.0) / (self.flow_kg_per_s * WATER_CP)
        return_target = supply_target + delta_t

        self._supply_temperature_c += alpha * (supply_target - self._supply_temperature_c)
        self._return_temperature_c += alpha * (return_target - self._return_temperature_c)
        self._heat_rejected_kw = heat_load_kw
        fan_power_kw = config.fan_power_fraction * heat_load_kw
        self._fan_power_kw = fan_power_kw
        return fan_power_kw

    def step(self, heat_load_kw: float, dt_s: float) -> CoolingTowerState:
        """Advance the facility loop by ``dt_s`` seconds under ``heat_load_kw``."""
        self.advance(heat_load_kw, dt_s)
        return self.state

    def reset(self) -> None:
        """Reset both loop temperatures to the facility supply setpoint."""
        self._return_temperature_c = self.config.facility_supply_temperature_c
        self._supply_temperature_c = self.config.facility_supply_temperature_c
        self._heat_rejected_kw = 0.0
        self._fan_power_kw = 0.0
