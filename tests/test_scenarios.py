"""Scenario subsystem: spec round-trip, registry, compiler, presets."""

import json

import pytest

from repro.config import ExperimentConfig, FaultConfig, WorkloadConfig
from repro.scenarios import (
    SCENARIOS,
    ScenarioSpec,
    TOPOLOGY_PRESETS,
    all_scenarios,
    build_topology,
    get_scenario,
    register,
    scenario_names,
)
from repro.simulator import EdgeFederation, HOST_CLASSES

REQUIRED_SCENARIOS = {
    "paper-default",
    "fault-free",
    "hetero-fleet",
    "correlated-rack",
    "cascading-overload",
    "network-partition",
    "flash-crowd",
    "diurnal-load",
}


class TestRegistry:
    def test_at_least_eight_builtins(self):
        assert len(scenario_names()) >= 8

    def test_required_catalog_present(self):
        assert REQUIRED_SCENARIOS <= set(scenario_names())

    def test_names_match_keys(self):
        for name, spec in SCENARIOS.items():
            assert spec.name == name

    def test_get_unknown_raises_with_catalog(self):
        with pytest.raises(KeyError, match="paper-default"):
            get_scenario("no-such-world")

    def test_register_rejects_duplicates(self):
        spec = get_scenario("paper-default")
        with pytest.raises(ValueError, match="already registered"):
            register(spec)

    def test_register_overwrite(self):
        spec = get_scenario("paper-default")
        assert register(spec, overwrite=True) is spec

    def test_all_scenarios_sorted(self):
        assert [s.name for s in all_scenarios()] == scenario_names()

    def test_every_builtin_documented_in_package_docstring(self):
        import repro.scenarios as pkg

        for name in scenario_names():
            assert f"``{name}``" in pkg.__doc__

    def test_hetero_fleet_is_heterogeneous(self):
        classes = {name for name, _ in get_scenario("hetero-fleet").fleet}
        assert len(classes) > 1


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(REQUIRED_SCENARIOS) + ["skewed-hub"])
    def test_to_from_dict_identity(self, name):
        spec = get_scenario(name)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_dict_is_json_serialisable(self):
        for spec in all_scenarios():
            payload = json.dumps(spec.to_dict())
            assert ScenarioSpec.from_dict(json.loads(payload)) == spec

    def test_from_dict_minimal_entry_uses_defaults(self):
        spec = ScenarioSpec.from_dict({"name": "minimal", "description": "d"})
        reference = ScenarioSpec(name="minimal", description="d")
        assert spec == reference
        assert spec.fleet  # default Pi fleet, not an empty tuple

    def test_from_dict_rejects_unknown_fields(self):
        data = get_scenario("paper-default").to_dict()
        data["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            ScenarioSpec.from_dict(data)


class TestValidation:
    def test_unknown_host_class(self):
        with pytest.raises(ValueError, match="unknown host class"):
            ScenarioSpec(name="bad", description="", fleet=(("cray", 2),))

    def test_empty_fleet(self):
        with pytest.raises(ValueError, match="empty fleet"):
            ScenarioSpec(name="bad", description="", fleet=())

    def test_infeasible_leis(self):
        with pytest.raises(ValueError, match="n_leis"):
            ScenarioSpec(
                name="bad", description="",
                fleet=(("pi4b-4gb", 4),), n_leis=3,
            )

    def test_group_size_exceeding_fleet(self):
        with pytest.raises(ValueError, match="correlated_group_size"):
            ScenarioSpec(
                name="bad", description="",
                fleet=(("pi4b-4gb", 4),), n_leis=2,
                faults=FaultConfig(
                    correlated_rate=0.5, correlated_group_size=9
                ),
            )

    def test_unknown_topology_preset(self):
        with pytest.raises(ValueError, match="topology preset"):
            ScenarioSpec(name="bad", description="", topology="ring")

    def test_qos_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="alpha"):
            ScenarioSpec(name="bad", description="", alpha=0.7, beta=0.5)

    def test_fault_config_field_validation(self):
        with pytest.raises(ValueError, match="partition_fraction"):
            FaultConfig(partition_rate=0.5, partition_fraction=1.5)
        with pytest.raises(ValueError, match="partition_fraction"):
            FaultConfig(partition_rate=0.5, partition_fraction=0.0)
        with pytest.raises(ValueError, match="correlated_group_size"):
            FaultConfig(correlated_rate=0.5, correlated_group_size=0)
        with pytest.raises(ValueError, match="non-negative"):
            FaultConfig(surge_rate=-1.0)
        with pytest.raises(ValueError, match="surge_multiplier"):
            FaultConfig(surge_rate=0.5, surge_multiplier=0.5)
        with pytest.raises(ValueError, match="cascade_probability"):
            FaultConfig(cascade_probability=1.5)

    def test_workload_diurnal_validation(self):
        with pytest.raises(ValueError, match="diurnal_amplitude"):
            WorkloadConfig(diurnal_amplitude=1.0)
        with pytest.raises(ValueError, match="diurnal_period"):
            WorkloadConfig(diurnal_period=0.0)


class TestCompiler:
    def test_compile_produces_experiment_config(self):
        spec = get_scenario("paper-default")
        config = spec.compile(seed=11)
        assert isinstance(config, ExperimentConfig)
        assert config.seed == 11
        assert config.n_intervals == spec.n_intervals
        assert config.federation.n_hosts == spec.n_hosts
        assert config.federation.n_leis == spec.n_leis
        assert config.faults == spec.faults
        assert config.workload == spec.workload

    def test_compile_interval_override(self):
        config = get_scenario("paper-default").compile(seed=0, n_intervals=7)
        assert config.n_intervals == 7

    def test_compile_plumbs_fleet(self):
        spec = get_scenario("hetero-fleet")
        config = spec.compile()
        assert config.federation.fleet == spec.fleet
        federation = EdgeFederation(config)
        names = [h.spec.name for h in federation.hosts]
        expected = []
        for class_name, count in spec.fleet:
            expected.extend([HOST_CLASSES[class_name].name] * count)
        assert names == expected

    def test_every_builtin_compiles_and_boots(self):
        for spec in all_scenarios():
            config = spec.compile(seed=1, n_intervals=2)
            federation = EdgeFederation(config, topology=build_topology(spec))
            assert len(federation.hosts) == spec.n_hosts

    def test_with_overrides(self):
        spec = get_scenario("paper-default")
        bigger = spec.with_overrides(n_intervals=50)
        assert bigger.n_intervals == 50
        assert bigger.name == spec.name


class TestTopologyPresets:
    def test_presets_enumerated(self):
        assert set(TOPOLOGY_PRESETS) == {"balanced", "skewed"}

    def test_balanced_matches_initial_topology(self):
        from repro.simulator import initial_topology

        spec = get_scenario("paper-default")
        assert build_topology(spec) == initial_topology(spec.n_hosts, spec.n_leis)

    def test_skewed_concentrates_workers(self):
        spec = get_scenario("skewed-hub")
        topo = build_topology(spec)
        sizes = topo.lei_sizes()
        heavy = max(sizes.values())
        assert heavy > min(sizes.values())
        # Every host is attached despite the skew.
        assert topo.attached == frozenset(range(spec.n_hosts))
