"""Electrical conversion-loss model.

Follows the structure of the dynamic power-conversion modelling used by RAPS
(Wojda et al.): compute power passes through an in-rack DC/DC stage ("sivoc")
and a rack rectification stage (AC→DC), each with a load-dependent efficiency
curve, plus a small constant switchgear/transformer loss. Efficiency rises
from its idle value to its peak value with load following a saturating curve,
which reproduces the characteristic behaviour that losses are a *larger
fraction* of power at low load — one reason scheduling-induced load smoothing
changes total energy, not just its timing. :meth:`ConversionLossModel.total_loss_kw`
is the model's one evaluation; the power aggregator calls it each time it
composes a system sample.
"""

from __future__ import annotations

import math

from ..config import PowerLossConfig
from ..exceptions import ConfigurationError


class ConversionLossModel:
    """Load-dependent conversion losses between facility feed and silicon."""

    def __init__(self, config: PowerLossConfig, *, peak_compute_power_kw: float) -> None:
        if peak_compute_power_kw <= 0:
            raise ConfigurationError("peak_compute_power_kw must be positive")
        self.config = config
        self.peak_compute_power_kw = peak_compute_power_kw

    def total_loss_kw(self, compute_power_kw: float) -> float:
        """Total conversion loss (kW) at ``compute_power_kw``, as a plain float.

        Negative compute power counts as zero. Each stage's efficiency
        follows ``eta(load) = peak - (peak - idle) * exp(-8 * load)`` of the
        load fraction ``compute / peak_compute`` (capped at 1.5; the curve
        reaches ~99.97 % of peak at full load). The DC/DC stage draws
        ``compute / eta_sivoc``, the rectifier that over ``eta_rectifier``,
        and switchgear loses a fixed fraction of the rectifier's draw; the
        result is the sum of the three stage losses.
        """
        compute_power_kw = max(0.0, compute_power_kw)
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
            (sivoc_input - compute_power_kw)
            + (rect_input - sivoc_input)
            + rect_input * config.switchgear_loss_fraction
        )
