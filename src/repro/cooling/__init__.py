"""Cooling-plant substrate.

A lumped-parameter transient replacement for the Modelica thermo-fluid model
of ExaDigiT (Kumar et al. / Greenwood et al.): heat generated by the IT load
is carried by CDU secondary loops into a facility water loop and rejected by
evaporative cooling towers. :class:`CoolingPlant` holds the loops' three
temperatures (CDU return, tower supply, tower return) and exposes the
quantities the paper plots in Fig. 6 — cooling-tower return temperature and
PUE. It responds to IT power with first-order thermal lags, so
scheduling-induced power swings show up as delayed, smoothed temperature
swings.
"""

from .plant import CoolingPlant, CoolingPlantState, power_usage_effectiveness

__all__ = [
    "CoolingPlant",
    "CoolingPlantState",
    "power_usage_effectiveness",
]
