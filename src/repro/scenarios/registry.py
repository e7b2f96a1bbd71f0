"""Named scenario registry and the built-in catalog.

``register`` adds a :class:`~repro.scenarios.spec.ScenarioSpec` under
its name; ``get_scenario`` / ``scenario_names`` / ``all_scenarios``
look the catalog up.  The built-ins cover the regimes the CAROL
evaluation and the resilient-edge-federation literature call for:
the paper's own setup, a fault-free control, heterogeneous fleets,
correlated rack outages, cascading overloads, network partitions,
flash crowds and diurnal load.  See the package docstring of
:mod:`repro.scenarios` for the one-line catalog.

Built-in scenarios default to CI-scale fleets (8-10 hosts, 20
intervals) so campaigns over many (scenario, model, seed) cells stay
tractable; ``spec.with_overrides`` scales any of them up.
"""

from __future__ import annotations

from typing import Dict, List

from ..chaos.schedule import (
    ArrivalSurge,
    ChaosSchedule,
    FederationPartition,
    LinkDegrade,
    NodeRecover,
    ZoneBlackout,
)
from ..config import FaultConfig, WorkloadConfig
from .spec import ScenarioSpec

__all__ = [
    "register",
    "get_scenario",
    "scenario_names",
    "all_scenarios",
    "SCENARIOS",
]

#: The registry: scenario name -> spec.
SCENARIOS: Dict[str, ScenarioSpec] = {}


def register(spec: ScenarioSpec, overwrite: bool = False) -> ScenarioSpec:
    """Add ``spec`` to the registry; returns it for chaining."""
    if not overwrite and spec.name in SCENARIOS:
        raise ValueError(
            f"scenario {spec.name!r} already registered "
            "(pass overwrite=True to replace it)"
        )
    SCENARIOS[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look a scenario up by name with a helpful error."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {scenario_names()}"
        ) from None


def scenario_names() -> List[str]:
    """Registered scenario names, sorted."""
    return sorted(SCENARIOS)


def all_scenarios() -> List[ScenarioSpec]:
    """Registered specs in name order."""
    return [SCENARIOS[name] for name in scenario_names()]


# ----------------------------------------------------------------------
# Built-in catalog
# ----------------------------------------------------------------------

#: The paper's CI-scale fleet: half 8 GB Pis (broker-capable), half 4 GB.
_PI_FLEET = (("pi4b-8gb", 4), ("pi4b-4gb", 4))

register(ScenarioSpec(
    name="paper-default",
    description=(
        "The paper's evaluation setup at CI scale: homogeneous Pi fleet, "
        "AIoT workloads at Poisson(1.2), uniform resource attacks at "
        "rate 0.5 (§IV-C/F)."
    ),
    fleet=_PI_FLEET,
    n_leis=2,
    workload=WorkloadConfig(suite="aiot", arrival_rate=1.2),
    faults=FaultConfig(rate=0.5),
    tags=("paper", "baseline"),
))

register(ScenarioSpec(
    name="fault-free",
    description=(
        "Control run with fault injection disabled; isolates scheduling "
        "and workload effects from resilience behaviour."
    ),
    fleet=_PI_FLEET,
    n_leis=2,
    workload=WorkloadConfig(suite="aiot", arrival_rate=1.2),
    faults=FaultConfig(rate=0.0),
    tags=("control",),
))

register(ScenarioSpec(
    name="hetero-fleet",
    description=(
        "Heterogeneous federation mixing a Xeon edge server, NUC mini "
        "PCs and Pi workers; capacity and power draw differ by an order "
        "of magnitude across classes."
    ),
    fleet=(("xeon", 1), ("nuc", 3), ("pi4b-8gb", 2), ("pi4b-4gb", 4)),
    n_leis=2,
    workload=WorkloadConfig(suite="aiot", arrival_rate=1.6),
    faults=FaultConfig(rate=0.5),
    tags=("heterogeneous",),
))

register(ScenarioSpec(
    name="correlated-rack",
    description=(
        "Rack-level correlated outages: group attacks hit whole "
        "four-host racks at once on top of a thinned background Poisson "
        "process (shared power/switch failure domains)."
    ),
    fleet=_PI_FLEET,
    n_leis=2,
    workload=WorkloadConfig(suite="aiot", arrival_rate=1.2),
    faults=FaultConfig(
        rate=0.2, correlated_rate=0.3, correlated_group_size=4
    ),
    tags=("correlated", "faults"),
))

register(ScenarioSpec(
    name="cascading-overload",
    description=(
        "Failure cascades: each neighbour of a failed host inherits an "
        "overload spike with probability 0.5, so single outages can "
        "snowball across an LEI."
    ),
    fleet=_PI_FLEET,
    n_leis=2,
    workload=WorkloadConfig(suite="aiot", arrival_rate=1.2),
    faults=FaultConfig(
        rate=0.4, cascade_probability=0.5, cascade_intensity=0.9
    ),
    tags=("cascade", "faults"),
))

register(ScenarioSpec(
    name="network-partition",
    description=(
        "Partition events sever ~35% of the live fleet for two "
        "intervals via saturating network contention; the survivors "
        "must rebuild the broker graph."
    ),
    fleet=_PI_FLEET,
    n_leis=2,
    workload=WorkloadConfig(suite="aiot", arrival_rate=1.2),
    faults=FaultConfig(
        rate=0.2, partition_rate=0.15, partition_fraction=0.35,
        partition_duration=2,
    ),
    tags=("partition", "faults"),
))

register(ScenarioSpec(
    name="flash-crowd",
    description=(
        "Gateway-side arrival surges: flash-crowd events multiply the "
        "task arrival rate 4x for two intervals, overloading the "
        "federation from the workload side."
    ),
    fleet=_PI_FLEET,
    n_leis=2,
    workload=WorkloadConfig(suite="aiot", arrival_rate=1.0),
    faults=FaultConfig(
        rate=0.3, surge_rate=0.15, surge_multiplier=4.0, surge_duration=2
    ),
    tags=("surge", "workload"),
))

register(ScenarioSpec(
    name="diurnal-load",
    description=(
        "Day/night arrival curve: sinusoidal modulation (amplitude 0.8, "
        "12-interval period) over the AIoT mix with moderate faults; "
        "stresses adaptation to slow, predictable non-stationarity."
    ),
    fleet=_PI_FLEET,
    n_leis=2,
    workload=WorkloadConfig(
        suite="aiot", arrival_rate=1.2,
        diurnal_amplitude=0.8, diurnal_period=12.0,
    ),
    faults=FaultConfig(rate=0.3),
    tags=("diurnal", "workload"),
))

register(ScenarioSpec(
    name="chaos-drill",
    description=(
        "Scripted game-day drill: a declarative chaos schedule blacks "
        "out the second rack, degrades the first rack's links, severs a "
        "partition, surges arrivals 3x and then repairs the blacked-out "
        "zone -- every perturbation timed, deterministic and replayable."
    ),
    fleet=_PI_FLEET,
    n_leis=2,
    workload=WorkloadConfig(suite="aiot", arrival_rate=1.2),
    faults=FaultConfig(rate=0.2),
    chaos=ChaosSchedule((
        ZoneBlackout(start=4, duration=2, zone=1, zone_size=4),
        LinkDegrade(start=6, duration=3, hosts=(0, 1), intensity=0.6),
        FederationPartition(start=10, duration=2, fraction=0.3),
        ArrivalSurge(start=13, duration=2, multiplier=3.0),
        NodeRecover(start=16, duration=1, hosts=(4, 5, 6, 7)),
    )),
    tags=("chaos", "faults"),
))

register(ScenarioSpec(
    name="skewed-hub",
    description=(
        "Skewed starting topology: half of all workers sit under one "
        "hub broker, so the initial graph is already imbalanced and "
        "hub failures orphan most of the fleet."
    ),
    fleet=_PI_FLEET,
    n_leis=2,
    topology="skewed",
    workload=WorkloadConfig(suite="aiot", arrival_rate=1.2),
    faults=FaultConfig(rate=0.5),
    tags=("topology",),
))
