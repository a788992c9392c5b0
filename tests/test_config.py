"""Tests for system configuration dataclasses and the built-in registry."""

from __future__ import annotations

import math

import pytest

from repro.config import (
    CoolingConfig,
    NodePowerConfig,
    PartitionConfig,
    PowerLossConfig,
    SystemConfig,
    available_systems,
    get_system_config,
    register_system_config,
)
from repro.exceptions import ConfigurationError

from helpers import idle_floor_kw


def _node(**overrides):
    defaults = dict(
        idle_w=100.0,
        cpu_idle_w=50.0,
        cpu_max_w=200.0,
        gpu_idle_w=20.0,
        gpu_max_w=300.0,
        mem_dynamic_w=40.0,
        cpus_per_node=2,
        gpus_per_node=4,
    )
    defaults.update(overrides)
    return NodePowerConfig(**defaults)


class TestNodePowerConfig:
    def test_max_and_min_w(self):
        node = _node()
        assert node.max_w == pytest.approx(100 + 2 * 200 + 4 * 300 + 40)
        assert node.min_w == pytest.approx(100 + 2 * 50 + 4 * 20)
        assert node.max_w > node.min_w

    def test_rejects_negative_idle(self):
        with pytest.raises(ConfigurationError):
            _node(idle_w=-1.0)

    def test_rejects_cpu_max_below_idle(self):
        with pytest.raises(ConfigurationError):
            _node(cpu_max_w=10.0, cpu_idle_w=50.0)

    def test_rejects_negative_counts(self):
        with pytest.raises(ConfigurationError):
            _node(gpus_per_node=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("idle_w", math.nan),
            ("idle_w", math.inf),
            ("cpu_idle_w", -50.0),
            ("cpu_max_w", math.nan),
            ("gpu_idle_w", -1.0),
            ("gpu_max_w", math.inf),
            ("mem_dynamic_w", -100.0),
            ("mem_dynamic_w", math.nan),
            ("cpus_per_node", 2.5),
            ("gpus_per_node", True),
        ],
    )
    def test_rejects_non_finite_negative_or_fractional(self, field, value):
        # A NaN idle power would run to a NaN energy and PUE without an error.
        with pytest.raises(ConfigurationError, match=field):
            _node(**{field: value})


class TestPowerLossConfig:
    def test_defaults_valid(self):
        cfg = PowerLossConfig()
        assert 0 < cfg.rectifier_efficiency_idle < cfg.rectifier_efficiency_peak <= 1

    def test_rejects_efficiency_above_one(self):
        with pytest.raises(ConfigurationError):
            PowerLossConfig(rectifier_efficiency_peak=1.2)

    def test_rejects_large_switchgear_loss(self):
        with pytest.raises(ConfigurationError):
            PowerLossConfig(switchgear_loss_fraction=0.6)


class TestCoolingConfig:
    def test_defaults_valid(self):
        cfg = CoolingConfig()
        assert cfg.cdu_count > 0

    def test_allows_zero_cdus_for_air_cooled_plants(self):
        assert CoolingConfig(cdu_count=0, air_cooled_fraction=1.0).cdu_count == 0

    def test_rejects_negative_cdus(self):
        with pytest.raises(ConfigurationError):
            CoolingConfig(cdu_count=-1)

    def test_rejects_bad_air_fraction(self):
        with pytest.raises(ConfigurationError):
            CoolingConfig(air_cooled_fraction=1.5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("supply_temperature_c", math.nan),
            ("ambient_wet_bulb_c", -math.inf),
            ("cdu_count", 2.5),
            ("cdu_thermal_mass_j_per_k", -1.0),
            ("facility_thermal_mass_j_per_k", math.inf),
            ("secondary_flow_kg_per_s_per_cdu", math.nan),
            ("facility_flow_kg_per_s", math.inf),
            ("tower_approach_c", -4.0),
            ("tower_range_coefficient", math.nan),
            # A negative fraction gives negative cooling power and a PUE below 1.
            ("pump_power_fraction", -0.5),
            ("fan_power_fraction", math.nan),
            ("crac_cop", math.nan),
            ("crac_cop", math.inf),
        ],
    )
    def test_rejects_non_finite_negative_or_fractional(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            CoolingConfig(**{field: value})

    def test_zero_thermal_mass_is_a_massless_loop(self):
        assert CoolingConfig(cdu_thermal_mass_j_per_k=0.0).cdu_thermal_mass_j_per_k == 0.0


class TestSystemConfig:
    def _system(self, partitions=None, **overrides):
        if partitions is None:
            partitions = (
                PartitionConfig("cpu", 10, _node(gpus_per_node=0)),
                PartitionConfig("gpu", 20, _node()),
            )
        defaults = dict(name="testsys", description="test", partitions=partitions)
        defaults.update(overrides)
        return SystemConfig(**defaults)

    def test_total_nodes(self):
        assert self._system().total_nodes == 30

    def test_partition_of_node(self):
        system = self._system()
        assert system.partition_of_node(0).name == "cpu"
        assert system.partition_of_node(9).name == "cpu"
        assert system.partition_of_node(10).name == "gpu"
        assert system.partition_of_node(29).name == "gpu"

    def test_partition_of_node_out_of_range(self):
        with pytest.raises(ConfigurationError):
            self._system().partition_of_node(30)
        with pytest.raises(ConfigurationError):
            self._system().partition_of_node(-1)

    def test_partition_node_range(self):
        system = self._system()
        assert system.partition_node_range("cpu") == range(0, 10)
        assert system.partition_node_range("gpu") == range(10, 30)
        with pytest.raises(ConfigurationError):
            system.partition_node_range("nope")

    def test_duplicate_partition_names_rejected(self):
        partitions = (
            PartitionConfig("batch", 4, _node()),
            PartitionConfig("batch", 4, _node()),
        )
        with pytest.raises(ConfigurationError):
            self._system(partitions=partitions)

    def test_requires_partitions(self):
        with pytest.raises(ConfigurationError):
            self._system(partitions=())

    def test_peak_exceeds_idle_power(self):
        system = self._system()
        assert system.peak_system_power_kw > idle_floor_kw(system) > 0

    def test_with_overrides(self):
        base = self._system()
        modified = base.with_overrides(down_node_fraction=0.1)
        assert modified.down_node_fraction == pytest.approx(0.1)
        assert base.down_node_fraction == 0.0

    def test_down_node_fraction_validation(self):
        with pytest.raises(ConfigurationError):
            self._system(down_node_fraction=1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("timestep_s", math.nan),
            ("timestep_s", math.inf),
            ("trace_quantum_s", math.nan),
            ("trace_quantum_s", math.inf),
        ],
    )
    def test_with_overrides_rejects_non_finite_numbers(self, field, value):
        # A what-if override must fail here, not as a bare ValueError mid-run.
        with pytest.raises(ConfigurationError, match=field):
            self._system().with_overrides(**{field: value})

    @pytest.mark.parametrize("count", [2.5, True])
    def test_partition_node_count_must_be_an_integer(self, count):
        with pytest.raises(ConfigurationError, match="node_count"):
            PartitionConfig("batch", count, _node())


class TestRegistry:
    @pytest.mark.parametrize(
        "name,nodes",
        [
            ("frontier", 9600),
            ("marconi100", 980),
            ("fugaku", 158_976),
            ("lassen", 792),
            ("adastra", 356),
            ("tiny", 32),
        ],
    )
    def test_builtin_systems_match_table1(self, name, nodes):
        config = get_system_config(name)
        assert config.total_nodes == nodes

    def test_case_insensitive_lookup(self):
        assert get_system_config("Frontier").total_nodes == 9600

    def test_unknown_system(self):
        with pytest.raises(ConfigurationError):
            get_system_config("does-not-exist")

    def test_available_systems_sorted(self):
        systems = available_systems()
        assert list(systems) == sorted(systems)
        assert "frontier" in systems

    def test_register_duplicate_rejected(self):
        config = get_system_config("tiny")
        with pytest.raises(ConfigurationError):
            register_system_config(config)

    def test_register_overwrite_allowed(self):
        config = get_system_config("tiny")
        register_system_config(config, overwrite=True)
        assert get_system_config("tiny") is config

    def test_frontier_has_cooling_model(self):
        assert get_system_config("frontier").has_cooling_model

    def test_marconi_has_no_cooling_model(self):
        assert not get_system_config("marconi100").has_cooling_model

    def test_schedulers_match_table1(self):
        assert get_system_config("fugaku").scheduler_name == "fujitsu_tcs"
        assert get_system_config("lassen").scheduler_name == "lsf"
        assert get_system_config("marconi100").scheduler_name == "slurm"
