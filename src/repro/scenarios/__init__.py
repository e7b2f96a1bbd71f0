"""``repro.scenarios`` -- declarative scenario catalog for the CAROL repro.

CAROL's claim is resilience under *non-stationary, diverse* failure and
workload regimes; this package makes those regimes first-class.  A
:class:`ScenarioSpec` declares one world (fleet composition, topology
preset, fault campaign, workload mix, QoS weights), round-trips through
``to_dict`` / ``from_dict`` and compiles to the
:class:`~repro.config.ExperimentConfig` the simulator already runs --
so every scenario uses the same engine code path as the paper's
experiments.  The :mod:`~repro.experiments.campaign` runner fans
scenario x model x seed grids across worker processes.

Built-in catalog (``python -m repro scenarios list``):

==================  ====================================================
``paper-default``   The paper's §IV-C/F evaluation setup at CI scale:
                    homogeneous Pi fleet, AIoT Poisson(1.2) arrivals,
                    uniform resource attacks at rate 0.5.
``fault-free``      Control run with fault injection disabled.
``hetero-fleet``    Xeon + NUC + Pi federation; capacity and power draw
                    differ by an order of magnitude across host classes.
``correlated-rack`` Rack-level correlated group attacks (whole four-host
                    racks hit at once) over a thinned Poisson background.
``cascading-overload``  Neighbours of failed hosts inherit overload
                    spikes with probability 0.5; outages can snowball.
``network-partition``  Partition events sever ~35% of the live fleet
                    for two intervals; survivors rebuild the topology.
``flash-crowd``     Gateway-side surges multiply the arrival rate 4x
                    for two intervals (workload-side overload).
``diurnal-load``    Sinusoidal day/night arrival curve (amplitude 0.8,
                    12-interval period) with moderate faults.
``skewed-hub``      Skewed starting topology: half the workers under
                    one hub broker, so hub failures orphan the fleet.
``chaos-drill``     Scripted :mod:`repro.chaos` schedule over a light
                    Poisson background: zone blackout, link degrade,
                    federation partition, arrival surge, then recovery
                    -- all five event kinds in one deterministic run.
==================  ====================================================

Quickstart::

    from repro.scenarios import get_scenario, build_topology
    from repro.simulator import EdgeFederation

    spec = get_scenario("correlated-rack")
    config = spec.compile(seed=1)
    federation = EdgeFederation(config, topology=build_topology(spec))

New scenarios are plain data::

    from repro.scenarios import ScenarioSpec, register

    register(ScenarioSpec(name="my-world", description="...",
                          fleet=(("nuc", 2), ("pi4b-4gb", 4)), n_leis=2))
"""

from .registry import (
    SCENARIOS,
    all_scenarios,
    get_scenario,
    register,
    scenario_names,
)
from .spec import ScenarioSpec, TOPOLOGY_PRESETS, build_topology

__all__ = [
    "ScenarioSpec",
    "TOPOLOGY_PRESETS",
    "build_topology",
    "register",
    "get_scenario",
    "scenario_names",
    "all_scenarios",
    "SCENARIOS",
]
