"""Electrical conversion-loss model.

Follows the structure of the dynamic power-conversion modelling used by RAPS
(Wojda et al.): compute power passes through an in-rack DC/DC stage ("sivoc")
and a rack rectification stage (AC→DC), each with a load-dependent efficiency
curve, plus a small constant switchgear/transformer loss. Efficiency rises
from its idle value to its peak value with load following a saturating curve,
which reproduces the characteristic behaviour that losses are a *larger
fraction* of power at low load — one reason scheduling-induced load smoothing
changes total energy, not just its timing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config import PowerLossConfig
from ..exceptions import ConfigurationError
from ..units import is_zero_kw


@dataclass(frozen=True)
class LossBreakdown:
    """Per-stage loss breakdown for one evaluation (all in kilowatts)."""

    compute_power_kw: float
    sivoc_loss_kw: float
    rectifier_loss_kw: float
    switchgear_loss_kw: float

    @property
    def total_loss_kw(self) -> float:
        """Sum of all conversion losses (kW)."""
        return self.sivoc_loss_kw + self.rectifier_loss_kw + self.switchgear_loss_kw

    @property
    def facility_power_kw(self) -> float:
        """Power drawn from the facility feed (compute + losses, kW)."""
        return self.compute_power_kw + self.total_loss_kw

    @property
    def efficiency(self) -> float:
        """End-to-end electrical efficiency (compute / facility).

        A plant drawing (numerically) no facility power is defined as
        lossless; :func:`repro.units.is_zero_kw` guards the division
        instead of an exact ``== 0.0``, so the branch cannot flip when a
        summation reordering perturbs the last ULP.
        """
        if is_zero_kw(self.facility_power_kw):
            return 1.0
        return self.compute_power_kw / self.facility_power_kw


class ConversionLossModel:
    """Load-dependent conversion losses between facility feed and silicon."""

    def __init__(self, config: PowerLossConfig, *, peak_compute_power_kw: float) -> None:
        if peak_compute_power_kw <= 0:
            raise ConfigurationError("peak_compute_power_kw must be positive")
        self.config = config
        self.peak_compute_power_kw = peak_compute_power_kw

    # -- efficiency curves ------------------------------------------------------

    def _stage_efficiency(
        self, load_fraction: float | np.ndarray, idle_eff: float, peak_eff: float
    ) -> float | np.ndarray:
        """Saturating efficiency curve eta(load) = peak - (peak-idle)*exp(-k*load)."""
        load = np.clip(load_fraction, 0.0, 1.5)
        k = 8.0  # reaches ~99.97 % of peak efficiency at full load
        return peak_eff - (peak_eff - idle_eff) * np.exp(-k * load)

    def sivoc_efficiency(self, load_fraction: float | np.ndarray) -> float | np.ndarray:
        """In-rack DC/DC stage efficiency at the given load fraction."""
        return self._stage_efficiency(
            load_fraction,
            self.config.sivoc_efficiency_idle,
            self.config.sivoc_efficiency_peak,
        )

    def rectifier_efficiency(self, load_fraction: float | np.ndarray) -> float | np.ndarray:
        """Rectifier stage efficiency at the given load fraction."""
        return self._stage_efficiency(
            load_fraction,
            self.config.rectifier_efficiency_idle,
            self.config.rectifier_efficiency_peak,
        )

    # -- evaluation ---------------------------------------------------------------

    def _stage_losses_kw(self, compute_power_kw: float) -> tuple[float, float, float]:
        """``(sivoc, rectifier, switchgear)`` losses in kW, on plain floats.

        The scalar form of the :meth:`_stage_efficiency` curves — the same
        load clamp, saturating stages and per-stage input back-calculation —
        with ``math.exp`` instead of a numpy ufunc on a 0-d value.
        ``compute_power_kw`` must already be clamped at zero.
        """
        load = compute_power_kw / self.peak_compute_power_kw
        decay = math.exp(-8.0 * min(load, 1.5))
        config = self.config
        sivoc_peak = config.sivoc_efficiency_peak
        sivoc_eff = sivoc_peak - (sivoc_peak - config.sivoc_efficiency_idle) * decay
        sivoc_input = compute_power_kw / sivoc_eff
        rect_peak = config.rectifier_efficiency_peak
        rect_eff = rect_peak - (rect_peak - config.rectifier_efficiency_idle) * decay
        rect_input = sivoc_input / rect_eff
        return (
            sivoc_input - compute_power_kw,
            rect_input - sivoc_input,
            rect_input * config.switchgear_loss_fraction,
        )

    def total_loss_kw(self, compute_power_kw: float) -> float:
        """Total conversion loss (kW) at ``compute_power_kw``, as a plain float.

        Equals ``evaluate(compute_power_kw).total_loss_kw`` — same stages,
        same left-associated sum — without building a
        :class:`LossBreakdown`; the engine calls this once per step.
        """
        sivoc, rectifier, switchgear = self._stage_losses_kw(max(0.0, compute_power_kw))
        return sivoc + rectifier + switchgear

    def evaluate(self, compute_power_kw: float) -> LossBreakdown:
        """Compute the loss breakdown for a given instantaneous compute power."""
        compute_power_kw = max(0.0, float(compute_power_kw))
        sivoc, rectifier, switchgear = self._stage_losses_kw(compute_power_kw)
        return LossBreakdown(
            compute_power_kw=compute_power_kw,
            sivoc_loss_kw=sivoc,
            rectifier_loss_kw=rectifier,
            switchgear_loss_kw=switchgear,
        )

    def facility_power_kw(self, compute_power_kw: float) -> float:
        """Convenience wrapper returning only the facility-side power (kW)."""
        return self.evaluate(compute_power_kw).facility_power_kw
