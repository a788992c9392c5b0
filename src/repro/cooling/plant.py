"""Central energy plant: CDU loops + facility loop and cooling towers + PUE.

One :class:`CoolingPlant` holds the three loop temperatures the model
needs and advances them in :meth:`CoolingPlant.step`:

* the **CDU return** temperature. Each cooling distribution unit runs a
  secondary (compute) water loop through the cold plates of its racks and
  passes a fixed share of its heat (the heat exchanger's effectiveness,
  0.9) to the facility loop. The CDUs are identical, start at the supply
  setpoint and always share the liquid-cooled heat evenly, so they always
  hold one return temperature;
* the **tower supply** and **tower return** temperatures of the facility
  loop. Evaporative towers cool the water to the ambient wet bulb plus a
  load-dependent approach (never below the facility setpoint); the water
  returning to them (the "cooling tower return temperature" of Fig. 6 of
  the paper) runs the loop's temperature rise above that.

Every loop is a lumped thermal mass: its temperature relaxes towards its
steady-state target through a first-order lag (:func:`lag_fraction`). The
plant reports cooling power (pumps, tower fans and — for the air-cooled
fraction of the load — CRAC compressor power) and power usage
effectiveness

    PUE = (IT power + losses + cooling power) / IT power.

Cooling power and PUE, like the loops' targets, depend on the load (IT
power and losses) alone, never on the loop temperatures, and the lag
factors on the step length alone. So a step evaluates the load-dependent
part only when the load differs from the previous step's and the lag
factors only when the step length does; the three temperatures relax on
every step.

The paper's Frontier twin reports an average PUE around 1.06; the defaults
here land in that neighbourhood at high load and rise at low load, which is
the qualitative behaviour the what-if studies rely on. At exactly zero IT
power the ratio is unbounded: the plant reports PUE = ``float("inf")`` when
any overhead (loss or cooling) power remains, and 1.0 only when the whole
facility is drawing nothing. Fully air-cooled plants (``cdu_count == 0``,
which :class:`~repro.config.CoolingConfig` requires to come with
``air_cooled_fraction == 1.0``) are supported: all heat is removed by the
CRACs on the facility loop and the CDU return temperature stays at the
nominal supply setpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..config import CoolingConfig
from ..devtools import hot_path

#: Specific heat capacity of water, J/(kg*K).
WATER_CP = 4186.0

#: Heat-exchanger effectiveness of a CDU: the share of its secondary loop's
#: heat it passes to the facility loop.
_CDU_EFFECTIVENESS = 0.9


def lag_fraction(dt_s: float, tau_s: float) -> float:
    """Share of the gap to its target a first-order lag closes in ``dt_s``.

    ``1 - exp(-dt_s / tau_s)`` (``1.0`` for a massless loop). Every loop of
    the plant relaxes by ``x += lag_fraction(dt_s, tau_s) * (target - x)``;
    because the factors compose exactly across substeps, a coalesced step
    lands where the dense steps it replaces would.
    """
    return 1.0 - pow(2.718281828459045, -dt_s / tau_s) if tau_s > 0 else 1.0


@dataclass(frozen=True)
class CoolingPlantState:
    """Plant-level cooling state at one simulation time."""

    time_s: float
    it_power_kw: float
    loss_power_kw: float
    cooling_power_kw: float
    pue: float
    cdu_return_temperature_c: float
    tower_return_temperature_c: float
    tower_supply_temperature_c: float


def power_usage_effectiveness(it_power_kw: float, overhead_kw: float) -> float:
    """PUE = (IT + overhead) / IT, with the zero-IT conventions.

    Overhead power with zero IT power makes the ratio unbounded: report
    ``inf`` rather than the 1.0 floor, which would silently understate idle
    overhead in any downstream aggregate. 1.0 only when nothing is drawn.
    """
    if it_power_kw > 0:
        return (it_power_kw + overhead_kw) / it_power_kw
    if overhead_kw > 0:
        return math.inf
    return 1.0


class CoolingPlant:
    """Transient lumped cooling model for the whole data centre.

    :meth:`step` advances the three loop temperatures and returns the two
    numbers the statistics need; :attr:`last_state` expands the latest
    step into a :class:`CoolingPlantState` only when asked.
    """

    def __init__(self, config: CoolingConfig) -> None:
        self.config = config
        # Mass flow times heat capacity (W/K) of one CDU loop and of the
        # facility loop; each loop's lag time constant is its thermal mass
        # over that.
        self._cdu_flow_cp = config.secondary_flow_kg_per_s_per_cdu * WATER_CP
        self._cdu_tau_s = config.cdu_thermal_mass_j_per_k / self._cdu_flow_cp
        self._tower_flow_cp = config.facility_flow_kg_per_s * WATER_CP
        self._tower_tau_s = config.facility_thermal_mass_j_per_k / self._tower_flow_cp
        self._cdu_return_c = config.supply_temperature_c
        self._tower_return_c = config.facility_supply_temperature_c
        self._tower_supply_c = config.facility_supply_temperature_c
        #: The load the load-dependent outputs below were evaluated for;
        #: NaN, which equals no load, until the first step evaluates them.
        self._it_power_kw = math.nan
        self._loss_power_kw = math.nan
        self._cdu_target_c = config.supply_temperature_c
        self._supply_target_c = config.facility_supply_temperature_c
        self._return_target_c = config.facility_supply_temperature_c
        self._cooling_power_kw = 0.0
        self._pue = 1.0
        #: The step length the two lag factors were evaluated for (NaN
        #: likewise).
        self._dt_s = math.nan
        self._cdu_alpha = 0.0
        self._tower_alpha = 0.0
        #: ``now`` of the latest :meth:`step`; :attr:`last_state` expands
        #: it with the outputs above on demand.
        self._now: float | None = None

    @property
    def last_state(self) -> CoolingPlantState | None:
        """The most recent plant state, if :meth:`step` has been called.

        Built on each access from the latest step's outputs and the loops'
        current temperatures; the step itself never allocates one.
        """
        if self._now is None:
            return None
        return CoolingPlantState(
            time_s=self._now,
            it_power_kw=self._it_power_kw,
            loss_power_kw=self._loss_power_kw,
            cooling_power_kw=self._cooling_power_kw,
            pue=self._pue,
            cdu_return_temperature_c=self._cdu_return_c,
            tower_return_temperature_c=self._tower_return_c,
            tower_supply_temperature_c=self._tower_supply_c,
        )

    @hot_path
    def step(
        self,
        now: float,
        it_power_kw: float,
        loss_power_kw: float,
        dt_s: float,
    ) -> tuple[float, float]:
        """Advance the cooling plant by one simulation step.

        Returns ``(cooling_power_kw, pue)``; :attr:`last_state` has the
        full picture. Both, and the loops' targets, are evaluated only
        when the load differs from the previous step's, and the lag
        factors only when ``dt_s`` does; the temperatures relax on every
        call.

        Parameters
        ----------
        now:
            Simulation time of the step (seconds); only recorded for
            :attr:`last_state`.
        it_power_kw:
            IT (compute) power during the step, kW. All of it is assumed to
            become heat.
        loss_power_kw:
            Electrical conversion losses during the step, kW; these dissipate
            in the machine room as well and must be removed by the plant.
        dt_s:
            Step length in seconds.
        """
        it_power_kw = max(0.0, it_power_kw)
        loss_power_kw = max(0.0, loss_power_kw)
        # Exact identity on purpose: the outputs are functions of these
        # floats alone, so equal floats give the same doubles, and a
        # tolerance would hold on to the outputs of a load that moved.
        if (
            it_power_kw != self._it_power_kw  # repro-lint: disable=float-compare
            or loss_power_kw != self._loss_power_kw  # repro-lint: disable=float-compare
        ):
            self._set_load(it_power_kw, loss_power_kw)
        if dt_s != self._dt_s:  # repro-lint: disable=float-compare
            self._dt_s = dt_s
            self._cdu_alpha = lag_fraction(dt_s, self._cdu_tau_s)
            self._tower_alpha = lag_fraction(dt_s, self._tower_tau_s)
        # Without CDUs the target stays at the supply setpoint, where the
        # return starts, so this leaves the return there.
        self._cdu_return_c += self._cdu_alpha * (self._cdu_target_c - self._cdu_return_c)
        alpha = self._tower_alpha
        self._tower_supply_c += alpha * (self._supply_target_c - self._tower_supply_c)
        self._tower_return_c += alpha * (self._return_target_c - self._tower_return_c)
        self._now = now
        return self._cooling_power_kw, self._pue

    def _set_load(self, it_power_kw: float, loss_power_kw: float) -> None:
        """Evaluate the loops' targets, cooling power and PUE at a new load
        (both powers already clamped at zero)."""
        self._it_power_kw = it_power_kw
        self._loss_power_kw = loss_power_kw
        total_heat_kw = it_power_kw + loss_power_kw

        # A fully air-cooled plant (cdu_count == 0) is forced to
        # air_cooled_fraction == 1.0 by CoolingConfig validation, so the
        # liquid share is zero exactly when there are no CDUs to take it.
        config = self.config
        liquid_heat_kw = total_heat_kw * (1.0 - config.air_cooled_fraction)
        air_heat_kw = total_heat_kw * config.air_cooled_fraction

        # CDU loops: each takes an even share of the liquid-cooled heat.
        heat_to_facility_kw = 0.0
        cdu_count = config.cdu_count
        if cdu_count:
            per_cdu_heat_kw = liquid_heat_kw / cdu_count
            self._cdu_target_c = config.supply_temperature_c + (
                per_cdu_heat_kw * 1000.0
            ) / self._cdu_flow_cp
            heat_to_facility_kw = cdu_count * (_CDU_EFFECTIVENESS * per_cdu_heat_kw)

        # Air-cooled heat is removed by CRACs, whose condenser heat also ends
        # up on the facility loop.
        crac_power_kw = air_heat_kw / config.crac_cop if air_heat_kw > 0 else 0.0
        facility_heat_kw = heat_to_facility_kw + air_heat_kw + crac_power_kw

        # Facility loop: the towers cool to wet bulb + approach (which grows
        # with load), never below the supply setpoint; the return runs the
        # loop's temperature rise above the supply.
        supply_target_c = max(
            config.facility_supply_temperature_c,
            config.ambient_wet_bulb_c
            + (
                config.tower_approach_c
                + config.tower_range_coefficient * facility_heat_kw * 1000.0
            ),
        )
        self._supply_target_c = supply_target_c
        self._return_target_c = supply_target_c + (
            facility_heat_kw * 1000.0
        ) / self._tower_flow_cp
        fan_power_kw = config.fan_power_fraction * facility_heat_kw

        pump_power_kw = config.pump_power_fraction * total_heat_kw
        cooling_power_kw = pump_power_kw + fan_power_kw + crac_power_kw
        self._cooling_power_kw = cooling_power_kw
        self._pue = power_usage_effectiveness(
            it_power_kw, loss_power_kw + cooling_power_kw
        )
