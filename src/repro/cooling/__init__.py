"""Cooling-plant substrate.

A lumped-parameter transient replacement for the Modelica thermo-fluid model
of ExaDigiT (Kumar et al. / Greenwood et al.): heat generated by the IT load
is carried by CDU secondary loops into a facility water loop and rejected by
evaporative cooling towers. The model exposes the quantities the paper plots
in Fig. 6 — cooling-tower return temperature and PUE — and responds to IT
power with first-order thermal lags, so scheduling-induced power swings show
up as delayed, smoothed temperature swings.
"""

from .cdu import CDU, CDUState
from .cooling_tower import CoolingTower, CoolingTowerState
from .plant import CoolingPlant, CoolingPlantState, power_usage_effectiveness

__all__ = [
    "CDU",
    "CDUState",
    "CoolingTower",
    "CoolingTowerState",
    "CoolingPlant",
    "CoolingPlantState",
    "power_usage_effectiveness",
]
