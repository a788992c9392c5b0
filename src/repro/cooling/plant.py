"""Central energy plant: CDUs + cooling towers + PUE.

The plant composes the per-CDU secondary loops with the facility loop and
the cooling towers and produces the facility-level quantities the DCDT
reports: cooling power (pumps, tower fans, and — for the air-cooled fraction
of the load — CRAC compressor power) and power usage effectiveness

    PUE = (IT power + losses + cooling power) / IT power.

The paper's Frontier twin reports an average PUE around 1.06; the defaults
here land in that neighbourhood at high load and rise at low load, which is
the qualitative behaviour the what-if studies rely on. At exactly zero IT
power the ratio is unbounded: the plant reports PUE = ``float("inf")`` when
any overhead (loss or cooling) power remains, and 1.0 only when the whole
facility is drawing nothing. Fully air-cooled plants (``cdu_count == 0``,
which :class:`~repro.config.CoolingConfig` requires to come with
``air_cooled_fraction == 1.0``) are supported: all heat is removed by the
CRACs on the facility loop and the CDU return temperature is reported at
the nominal supply setpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..config import CoolingConfig
from ..devtools import hot_path
from .cdu import CDU, lag_fraction
from .cooling_tower import CoolingTower


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

    @property
    def total_facility_power_kw(self) -> float:
        """Total power drawn by the data centre (IT + losses + cooling), kW."""
        return self.it_power_kw + self.loss_power_kw + self.cooling_power_kw


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

    The plant owns its CDUs and tower; :meth:`step` advances their
    temperatures and returns the two numbers the statistics need, and
    :attr:`last_state` expands the latest step into a
    :class:`CoolingPlantState` only when asked.
    """

    def __init__(self, config: CoolingConfig) -> None:
        self.config = config
        self.cdus = [CDU(config) for _ in range(config.cdu_count)]
        self.tower = CoolingTower(config)
        #: ``(now, it_power_kw, loss_power_kw, cooling_power_kw, pue)`` of
        #: the latest :meth:`step`; :attr:`last_state` expands it on demand.
        self._last: tuple[float, float, float, float, float] | None = None

    @property
    def last_state(self) -> CoolingPlantState | None:
        """The most recent plant state, if :meth:`step` has been called.

        Built on each access from the latest step's outputs and the loops'
        current temperatures; the step itself never allocates one.
        """
        if self._last is None:
            return None
        now, it_power_kw, loss_power_kw, cooling_power_kw, pue = self._last
        cdus = self.cdus
        tower = self.tower
        return CoolingPlantState(
            time_s=now,
            it_power_kw=it_power_kw,
            loss_power_kw=loss_power_kw,
            cooling_power_kw=cooling_power_kw,
            pue=pue,
            # With no CDUs the secondary loop does not exist; report the
            # nominal supply temperature rather than dividing by zero.
            cdu_return_temperature_c=(
                sum(cdu._return_temperature_c for cdu in cdus) / len(cdus)
                if cdus
                else self.config.supply_temperature_c
            ),
            tower_return_temperature_c=tower._return_temperature_c,
            tower_supply_temperature_c=tower._supply_temperature_c,
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
        full picture.

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

        Same arithmetic as stepping every :class:`CDU` and the
        :class:`CoolingTower` through their own ``step`` methods, without
        building their state objects.
        """
        it_power_kw = max(0.0, it_power_kw)
        loss_power_kw = max(0.0, loss_power_kw)
        total_heat_kw = it_power_kw + loss_power_kw

        # A fully air-cooled plant (cdu_count == 0) is forced to
        # air_cooled_fraction == 1.0 by CoolingConfig validation, so the
        # liquid share is zero exactly when there are no CDUs to take it.
        config = self.config
        liquid_heat_kw = total_heat_kw * (1.0 - config.air_cooled_fraction)
        air_heat_kw = total_heat_kw * config.air_cooled_fraction

        # Secondary loops: split the liquid-cooled heat evenly across CDUs.
        # They are homogeneous, so the first one's steady-state target, lag
        # factor and effectiveness hold for all of them.
        heat_to_facility_kw = 0.0
        cdus = self.cdus
        if cdus:
            first = cdus[0]
            per_cdu_heat_kw = max(0.0, liquid_heat_kw / len(cdus))
            target_c = first.steady_state_return_c(per_cdu_heat_kw)
            alpha = lag_fraction(dt_s, first.tau_s)
            transfer_kw = first.effectiveness * per_cdu_heat_kw
            for cdu in cdus:
                cdu._return_temperature_c += alpha * (
                    target_c - cdu._return_temperature_c
                )
                cdu._heat_load_kw = per_cdu_heat_kw
                heat_to_facility_kw += transfer_kw

        # Air-cooled heat is removed by CRACs, whose condenser heat also ends
        # up on the facility loop.
        crac_power_kw = air_heat_kw / config.crac_cop if air_heat_kw > 0 else 0.0
        facility_heat_kw = heat_to_facility_kw + air_heat_kw + crac_power_kw
        fan_power_kw = self.tower.advance(facility_heat_kw, dt_s)

        pump_power_kw = config.pump_power_fraction * total_heat_kw
        cooling_power_kw = pump_power_kw + fan_power_kw + crac_power_kw
        pue = power_usage_effectiveness(it_power_kw, loss_power_kw + cooling_power_kw)
        self._last = (now, it_power_kw, loss_power_kw, cooling_power_kw, pue)
        return cooling_power_kw, pue

    def reset(self) -> None:
        """Reset all loops to their nominal temperatures."""
        for cdu in self.cdus:
            cdu.reset()
        self.tower.reset()
        self._last = None
