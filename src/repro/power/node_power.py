"""Per-node power from component utilization.

The node power model is a linear component model: each CPU socket and GPU
contributes its idle power plus a utilization-proportional dynamic share, the
memory subsystem contributes a bandwidth-proportional dynamic share, and the
node baseboard (fans, NIC, VRM overhead) contributes a constant. This is the
level of fidelity RAPS uses for job-trace replay; datasets that carry
measured node power bypass the model entirely (the recorded trace wins).
"""

from __future__ import annotations

import numpy as np

from ..config import NodePowerConfig, SystemConfig


class NodePowerModel:
    """Compute node power in watts from utilization fractions."""

    def __init__(self, config: NodePowerConfig) -> None:
        self.config = config
        # Hoisted per-component dynamic ranges: the subtraction results are
        # identical to inlining them (same IEEE operation, computed once),
        # so evaluation stays bit-for-bit compatible while the hot path
        # sheds two subtractions and four attribute lookups per call.
        self._cpu_dynamic_w = config.cpu_max_w - config.cpu_idle_w
        self._gpu_dynamic_w = config.gpu_max_w - config.gpu_idle_w

    def power(
        self, cpu_util: float, gpu_util: float = 0.0, mem_util: float = 0.0
    ) -> float:
        """Node power (watts) for the given utilization fractions.

        Inputs outside [0, 1] are clipped. Takes Python floats: each clip
        is two comparisons, which return what ``min(max(x, 0.0), 1.0)``
        returns (``-0.0`` and NaN pass through) at a quarter of its cost.
        :meth:`power_array` is the same expression over arrays.
        """
        cfg = self.config
        cpu = 0.0 if cpu_util < 0.0 else 1.0 if cpu_util > 1.0 else cpu_util
        gpu = 0.0 if gpu_util < 0.0 else 1.0 if gpu_util > 1.0 else gpu_util
        mem = 0.0 if mem_util < 0.0 else 1.0 if mem_util > 1.0 else mem_util
        return (
            cfg.idle_w
            + cfg.cpus_per_node * (cfg.cpu_idle_w + cpu * self._cpu_dynamic_w)
            + cfg.gpus_per_node * (cfg.gpu_idle_w + gpu * self._gpu_dynamic_w)
            + mem * cfg.mem_dynamic_w
        )

    def power_array(
        self, cpu_util: np.ndarray, gpu_util: np.ndarray, mem_util: np.ndarray
    ) -> np.ndarray:
        """Vectorised :meth:`power` over float64 utilization arrays.

        Evaluates :meth:`power`'s expression in the same order, one IEEE
        operation per element for each scalar one, so every element equals
        the scalar result bit for bit; the tests hold it to that.
        """
        cfg = self.config
        cpu = np.minimum(np.maximum(cpu_util, 0.0), 1.0)
        gpu = np.minimum(np.maximum(gpu_util, 0.0), 1.0)
        mem = np.minimum(np.maximum(mem_util, 0.0), 1.0)
        power_w: np.ndarray = (
            cfg.idle_w
            + cfg.cpus_per_node * (cfg.cpu_idle_w + cpu * self._cpu_dynamic_w)
            + cfg.gpus_per_node * (cfg.gpu_idle_w + gpu * self._gpu_dynamic_w)
            + mem * cfg.mem_dynamic_w
        )
        return power_w

    @property
    def idle_power(self) -> float:
        """Power of an idle node (watts)."""
        return self.config.min_w

    @property
    def max_power(self) -> float:
        """Power of a fully loaded node (watts)."""
        return self.config.max_w


def system_idle_power_kw(system: SystemConfig, *, include_down: bool = False) -> float:
    """Idle IT power of the whole system in kilowatts.

    Down nodes are assumed powered off unless ``include_down`` is set.
    """
    total_w = 0.0
    for partition in system.partitions:
        nodes = partition.node_count
        if not include_down:
            nodes = int(round(nodes * (1.0 - system.down_node_fraction)))
        total_w += nodes * partition.node_power.min_w
    return total_w / 1000.0
