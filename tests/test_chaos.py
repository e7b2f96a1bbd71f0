"""Chaos-schedule DSL, fault-model registry and scenario fuzzer."""

import json

import numpy as np
import pytest

from repro.chaos import (
    ArrivalSurge,
    ChaosEvent,
    ChaosSchedule,
    FederationPartition,
    LinkDegrade,
    NodeRecover,
    ScheduledFaultModel,
    ZoneBlackout,
    shrink_schedule,
)
from repro.chaos.fuzz import (
    FuzzConfig,
    fuzz_scenario_name,
    run_fuzz,
    sample_schedule,
    schedule_stream,
)
from repro.config import FaultConfig
from repro.scenarios import get_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.simulator import make_pi_cluster
from repro.simulator.faults import (
    FAULT_MODELS,
    AttackEvent,
    FaultInjector,
    build_fault_models,
    validate_fault_model_names,
)
from repro.simulator.topology import initial_topology

FLEET = (("pi4b-8gb", 4), ("pi4b-4gb", 4))


def _spec(**overrides):
    defaults = dict(name="chaos-test", description="test world", fleet=FLEET,
                    n_leis=2)
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def _drill_schedule():
    return ChaosSchedule((
        ZoneBlackout(start=4, duration=2, zone=1, zone_size=4),
        LinkDegrade(start=6, duration=3, hosts=(0, 1), intensity=0.6),
        FederationPartition(start=10, duration=2, fraction=0.3),
        ArrivalSurge(start=13, duration=2, multiplier=3.0),
        NodeRecover(start=16, duration=1, hosts=(4, 5)),
    ))


class TestChaosEvents:
    def test_base_event_is_abstract(self):
        with pytest.raises(TypeError, match="registered kind"):
            ChaosEvent(start=1, duration=1)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            ZoneBlackout(start=1, duration=0)

    def test_start_is_one_based(self):
        with pytest.raises(ValueError, match="start"):
            ArrivalSurge(start=0, duration=1)

    def test_non_integer_interval_fields_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            ZoneBlackout(start=1.5, duration=1)

    def test_hosts_normalised_sorted_deduplicated(self):
        event = LinkDegrade(start=1, duration=1, hosts=(3, 1, 3, 2))
        assert event.hosts == (1, 2, 3)

    def test_empty_hosts_rejected(self):
        with pytest.raises(ValueError, match="at least one host"):
            NodeRecover(start=1, duration=1, hosts=())

    def test_node_recover_is_instantaneous(self):
        with pytest.raises(ValueError, match="duration must be 1"):
            NodeRecover(start=1, duration=2, hosts=(0,))

    def test_partition_fraction_bounds(self):
        with pytest.raises(ValueError, match="fraction"):
            FederationPartition(start=1, duration=1, fraction=1.0)

    def test_surge_multiplier_bounds(self):
        with pytest.raises(ValueError, match="multiplier"):
            ArrivalSurge(start=1, duration=1, multiplier=0.5)

    def test_from_dict_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown chaos event kind"):
            ChaosEvent.from_dict({"kind": "meteor_strike", "start": 1,
                                  "duration": 1})

    def test_from_dict_unknown_field(self):
        with pytest.raises(ValueError, match="unknown zone_blackout fields"):
            ChaosEvent.from_dict({"kind": "zone_blackout", "start": 1,
                                  "duration": 1, "zzz": 3})

    def test_window_half_open(self):
        event = ZoneBlackout(start=4, duration=2)
        assert not event.active(3)
        assert event.active(4) and event.active(5)
        assert not event.active(6)


class TestChaosSchedule:
    def test_dict_roundtrip(self):
        schedule = _drill_schedule()
        assert ChaosSchedule.from_dict(schedule.to_dict()) == schedule

    def test_rows_roundtrip(self):
        schedule = _drill_schedule()
        assert ChaosSchedule.from_rows(schedule.to_rows()) == schedule

    def test_json_roundtrip(self):
        schedule = _drill_schedule()
        rebuilt = ChaosSchedule.from_dict(
            json.loads(schedule.canonical_json())
        )
        assert rebuilt.content_hash() == schedule.content_hash()

    def test_canonical_order_independent_of_input_order(self):
        events = _drill_schedule().events
        reordered = ChaosSchedule(tuple(reversed(events)))
        assert reordered == _drill_schedule()
        assert reordered.content_hash() == _drill_schedule().content_hash()

    def test_same_kind_scope_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlapping zone_blackout"):
            ChaosSchedule((
                ZoneBlackout(start=4, duration=3, zone=0),
                ZoneBlackout(start=5, duration=2, zone=0),
            ))
        with pytest.raises(ValueError, match="overlapping link_degrade"):
            ChaosSchedule((
                LinkDegrade(start=1, duration=4, hosts=(0, 1)),
                LinkDegrade(start=2, duration=1, hosts=(1, 5)),
            ))
        with pytest.raises(ValueError, match="overlapping federation_partition"):
            ChaosSchedule((
                FederationPartition(start=1, duration=3, fraction=0.3),
                FederationPartition(start=2, duration=1, fraction=0.5),
            ))

    def test_disjoint_or_different_kinds_compose(self):
        ChaosSchedule((
            ZoneBlackout(start=4, duration=2, zone=0),
            ZoneBlackout(start=6, duration=2, zone=0),   # adjacent, not overlapping
            ZoneBlackout(start=4, duration=2, zone=1),   # different zone
            LinkDegrade(start=4, duration=2, hosts=(0,)),  # different kind
        ))

    def test_validate_for_rejects_out_of_range_hosts(self):
        with pytest.raises(ValueError, match="out of range"):
            ChaosSchedule((
                LinkDegrade(start=1, duration=1, hosts=(99,)),
            )).validate_for(8)
        with pytest.raises(ValueError, match="outside"):
            ChaosSchedule((
                ZoneBlackout(start=1, duration=1, zone=5, zone_size=4),
            )).validate_for(8)

    def test_spec_validates_schedule_against_fleet(self):
        schedule = ChaosSchedule((
            NodeRecover(start=1, duration=1, hosts=(12,)),
        ))
        with pytest.raises(ValueError, match="out of range"):
            _spec(chaos=schedule)

    def test_spec_rejects_chaos_rows_on_fault_config(self):
        rows = _drill_schedule().to_rows()
        with pytest.raises(ValueError, match="not on FaultConfig.chaos"):
            _spec(faults=FaultConfig(chaos=rows))

    def test_spec_roundtrip_with_chaos(self):
        spec = _spec(chaos=_drill_schedule())
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_compile_threads_rows_into_fault_config(self):
        spec = _spec(chaos=_drill_schedule())
        config = spec.compile(seed=7, n_intervals=20)
        assert config.faults.chaos == _drill_schedule().to_rows()
        names = [m.name for m in build_fault_models(config.faults)]
        assert names[-1] == "chaos"


class TestScheduledFaultModel:
    def _harness(self, rate=0.0):
        hosts = make_pi_cluster(8, 4)
        topology = initial_topology(8, 2)
        injector = FaultInjector(
            FaultConfig(rate=rate), np.random.default_rng(5)
        )
        return hosts, topology, injector

    def test_sample_consumes_no_rng(self):
        hosts, topology, injector = self._harness()
        model = _drill_schedule().compile()
        assert isinstance(model, ScheduledFaultModel)
        before = injector.rng.bit_generator.state
        for interval in range(1, 20):
            model.sample(interval, topology, hosts, injector)
        assert injector.rng.bit_generator.state == before

    def test_blackout_targets_live_zone_hosts(self):
        hosts, topology, injector = self._harness()
        model = _drill_schedule().compile()
        events = model.sample(4, topology, hosts, injector)
        blackout = [e for e in events if e.attack_type == "zone_blackout"]
        assert sorted(e.target for e in blackout) == [4, 5, 6, 7]
        assert all(e.model == "chaos" for e in events)

    def test_partition_set_resolved_once_and_reasserted(self):
        hosts, topology, injector = self._harness()
        model = _drill_schedule().compile()
        first = model.sample(10, topology, hosts, injector)
        severed = sorted(
            e.target for e in first
            if e.attack_type == "federation_partition"
        )
        assert severed  # 0.3 of 8 live hosts -> 2 severed
        hosts[severed[0]].crash(60.0)  # a severed host dies mid-window
        second = model.sample(11, topology, hosts, injector)
        assert sorted(
            e.target for e in second
            if e.attack_type == "federation_partition"
        ) == severed

    def test_arrival_multiplier_window(self):
        hosts, topology, injector = self._harness()
        model = _drill_schedule().compile()
        # Engine order: arrivals for t are drawn after sample(t-1).
        model.sample(12, topology, hosts, injector)
        assert model.arrival_multiplier() == pytest.approx(3.0)  # t=13
        model.sample(14, topology, hosts, injector)
        assert model.arrival_multiplier() == pytest.approx(1.0)  # t=15

    def test_node_recover_clears_active_attacks(self):
        hosts, topology, injector = self._harness()
        injector.models = [_drill_schedule().compile()]
        injector._active[4] = [["cpu", 0.9, 3]]
        injector.inject(16, topology, hosts)
        assert 4 not in injector._active

    def test_chaos_does_not_perturb_stochastic_models(self):
        config = FaultConfig(rate=0.5)
        plain = FaultInjector(config, np.random.default_rng(11))
        hosts, topology, _ = self._harness()
        baseline = [
            plain.inject(t, topology, make_pi_cluster(8, 4))
            for t in range(1, 6)
        ]
        chained = FaultInjector(
            config, np.random.default_rng(11),
            models=build_fault_models(config) + [_drill_schedule().compile()],
        )
        with_chaos = [
            chained.inject(t, topology, make_pi_cluster(8, 4))
            for t in range(1, 6)
        ]
        for plain_events, chaos_events in zip(baseline, with_chaos):
            stochastic = [e for e in chaos_events if e.model != "chaos"]
            assert stochastic == plain_events


class TestFaultModelRegistry:
    def test_five_models_registered_in_historical_order(self):
        assert list(FAULT_MODELS) == [
            "poisson", "correlated", "cascade", "partition", "surge",
        ]

    def test_unknown_name_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown fault model"):
            validate_fault_model_names(("poisson", "nope"))

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            validate_fault_model_names(("poisson", "poisson"))

    def test_spec_rejects_unknown_model_name_at_construction(self):
        with pytest.raises(ValueError, match="unknown fault model"):
            _spec(faults=FaultConfig(models=("typo",)))

    def test_auto_mode_matches_rate_gating(self):
        config = FaultConfig(rate=0.5, surge_rate=0.2, surge_multiplier=2.0)
        assert [m.name for m in build_fault_models(config)] == [
            "poisson", "surge",
        ]

    def test_explicit_names_build_in_given_order_ignoring_gates(self):
        config = FaultConfig(rate=0.0, models=("surge", "poisson"))
        assert [m.name for m in build_fault_models(config)] == [
            "surge", "poisson",
        ]

    def test_attack_event_requires_model_attribution(self):
        with pytest.raises(TypeError):
            AttackEvent(1, 0, "cpu_overload", "cpu", 0.5, 1)


class TestFuzzer:
    TINY = dict(scenario="paper-default", model="DYVERSE", budget=2,
                n_seeds=1, seed=9, n_intervals=6, max_events=3,
                threshold=0.0)

    def test_schedule_stream_deterministic(self):
        config = FuzzConfig(**self.TINY)
        first = schedule_stream(config, 8, 6)
        second = schedule_stream(config, 8, 6)
        assert [s.content_hash() for s in first] == [
            s.content_hash() for s in second
        ]

    def test_different_seeds_differ(self):
        a = schedule_stream(FuzzConfig(**self.TINY), 8, 12)
        b = schedule_stream(
            FuzzConfig(**dict(self.TINY, seed=10)), 8, 12
        )
        assert [s.content_hash() for s in a] != [s.content_hash() for s in b]

    def test_sampled_schedules_validate_for_fleet(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            schedule = sample_schedule(rng, 8, 12, 4)
            schedule.validate_for(8)
            assert 1 <= len(schedule) <= 4

    def test_shrink_is_greedy_minimal(self):
        schedule = _drill_schedule()

        def fails(candidate):
            return any(
                isinstance(e, ZoneBlackout) for e in candidate.events
            )

        shrunk = shrink_schedule(schedule, fails)
        assert len(shrunk) == 1
        (event,) = shrunk.events
        assert isinstance(event, ZoneBlackout)
        assert event.duration == 1  # halved from 2

    def test_run_fuzz_deterministic_with_shrinking(self):
        config = FuzzConfig(**self.TINY)
        first = run_fuzz(config)
        second = run_fuzz(config)
        assert json.dumps(first.to_payload(), sort_keys=True) == \
            json.dumps(second.to_payload(), sort_keys=True)
        # threshold 0 makes every strictly-degrading schedule a cliff;
        # paired seeds make a no-op schedule score exactly 0.
        for outcome in first.outcomes:
            assert outcome.cliff == (outcome.score >= 0.0)
            assert outcome.scenario == fuzz_scenario_name(
                "paper-default", outcome.schedule
            )

    def test_baseline_self_delta_is_zero(self):
        config = FuzzConfig(**dict(self.TINY, budget=1))
        result = run_fuzz(config)
        # The baseline compared with itself must score exactly zero --
        # paired seeds, bit-identical records.
        from repro.chaos.fuzz import cliff_score

        assert cliff_score(
            result.base_metrics, result.base_metrics, 6 * 300.0
        ) == 0.0

    def test_fuzz_serial_matches_fleet(self):
        serial = run_fuzz(FuzzConfig(**dict(self.TINY, shrink=False)))
        fleet = run_fuzz(FuzzConfig(**dict(
            self.TINY, shrink=False, mode="fleet", workers=2,
        )))
        strip = ("mode", "workers")
        a, b = serial.to_payload(), fleet.to_payload()
        for payload in (a, b):
            for key in strip:
                payload["config"].pop(key)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestChaosDrillScenario:
    def test_catalog_has_chaos_drill(self):
        spec = get_scenario("chaos-drill")
        assert spec.chaos is not None
        assert len(spec.chaos) == 5
        spec.chaos.validate_for(spec.n_hosts)

    def test_chaos_drill_runs_and_attributes_events(self):
        from repro.experiments.campaign import (
            CampaignConfig,
            plan_tasks,
            run_cell,
        )
        from repro.experiments.calibration import build_model

        config = CampaignConfig(
            scenarios=("chaos-drill",), models=("DYVERSE",),
            n_seeds=1, n_intervals=8,
        )
        (task,) = plan_tasks(config)
        record = run_cell(
            task,
            lambda cfg, run_seed: build_model(task.model, None, cfg),
        )
        assert record.scenario == "chaos-drill"
        assert set(record.metrics) == {
            "energy_kwh", "response_time_s", "slo_violation_rate",
            "completed_tasks", "downtime_s",
        }
