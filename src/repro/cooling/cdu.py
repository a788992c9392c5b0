"""Cooling distribution unit (CDU) model.

Each CDU runs a secondary (compute) water loop through the cold plates of its
racks and exchanges heat with the facility (primary) loop through a liquid-
to-liquid heat exchanger. The model is a lumped thermal capacitance: the
secondary return temperature follows the instantaneous heat load through a
first-order lag determined by the loop's thermal mass and flow rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import CoolingConfig

#: Specific heat capacity of water, J/(kg*K).
WATER_CP = 4186.0


def lag_fraction(dt_s: float, tau_s: float) -> float:
    """Share of the gap to its target a first-order lag closes in ``dt_s``.

    ``1 - exp(-dt_s / tau_s)`` (``1.0`` for a massless loop). Every loop of
    the plant relaxes by ``x += lag_fraction(dt_s, tau_s) * (target - x)``;
    because the factors compose exactly across substeps, a coalesced step
    lands where the dense steps it replaces would.
    """
    return 1.0 - pow(2.718281828459045, -dt_s / tau_s) if tau_s > 0 else 1.0


@dataclass
class CDUState:
    """Thermal state of one CDU at a point in time."""

    supply_temperature_c: float
    return_temperature_c: float
    heat_load_kw: float

    @property
    def delta_t(self) -> float:
        """Temperature rise across the compute loop (K)."""
        return self.return_temperature_c - self.supply_temperature_c


class CDU:
    """One cooling distribution unit (secondary loop + heat exchanger).

    Parameters
    ----------
    config:
        Plant-level cooling configuration (flow per CDU, thermal mass,
        nominal supply temperature).
    effectiveness:
        Heat-exchanger effectiveness (fraction of the maximum possible heat
        transfer to the facility loop actually achieved).
    """

    def __init__(self, config: CoolingConfig, *, effectiveness: float = 0.9) -> None:
        self.config = config
        self.effectiveness = effectiveness
        self.flow_kg_per_s = config.secondary_flow_kg_per_s_per_cdu
        self.thermal_mass_j_per_k = config.cdu_thermal_mass_j_per_k
        #: Time constant of the return-temperature lag, s.
        self.tau_s = self.thermal_mass_j_per_k / (self.flow_kg_per_s * WATER_CP)
        self._return_temperature_c = config.supply_temperature_c
        self._heat_load_kw = 0.0

    @property
    def state(self) -> CDUState:
        """Current thermal state."""
        return CDUState(
            supply_temperature_c=self.config.supply_temperature_c,
            return_temperature_c=self._return_temperature_c,
            heat_load_kw=self._heat_load_kw,
        )

    def steady_state_return_c(self, heat_load_kw: float) -> float:
        """Return temperature the loop would settle at for a constant load."""
        delta_t = (heat_load_kw * 1000.0) / (self.flow_kg_per_s * WATER_CP)
        return self.config.supply_temperature_c + delta_t

    def step(self, heat_load_kw: float, dt_s: float) -> CDUState:
        """Advance the CDU by ``dt_s`` seconds under ``heat_load_kw`` of heat.

        The return temperature relaxes exponentially towards its steady-state
        value with time constant ``thermal_mass / (flow * cp)``.
        """
        heat_load_kw = max(0.0, heat_load_kw)
        target = self.steady_state_return_c(heat_load_kw)
        alpha = lag_fraction(dt_s, self.tau_s)
        self._return_temperature_c += alpha * (target - self._return_temperature_c)
        self._heat_load_kw = heat_load_kw
        return self.state

    def heat_to_facility_kw(self) -> float:
        """Heat transferred to the facility loop this step (kW)."""
        return self.effectiveness * self._heat_load_kw + (1.0 - self.effectiveness) * 0.0

    def reset(self) -> None:
        """Reset the loop to the nominal supply temperature with zero load."""
        self._return_temperature_c = self.config.supply_temperature_c
        self._heat_load_kw = 0.0
