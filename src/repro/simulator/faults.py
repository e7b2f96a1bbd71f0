"""Fault-injection module (§IV-F) with pluggable fault models.

The paper's injector reimplements the observable behaviour of the
container-cloud fault injector of Ye et al.: four attack types --
**CPU overload** (hog application), **RAM contention** (continuous
read/write), **Disk attack** (IOZone-style bandwidth consumption) and
**DDOS attack** (HTTP connection floods contending the NIC) -- arriving
as a Poisson process with rate ``lambda_f = 0.5`` per interval, the
attack drawn uniformly at random.  That process is
:class:`PoissonAttackModel` here.

Scenario diversity demands richer failure regimes, so the injector now
drives a list of :class:`FaultModel` plugins:

* :class:`CorrelatedGroupAttackModel` -- rack-level correlated attacks:
  one event stresses a whole contiguous block of hosts simultaneously
  (shared power feed / top-of-rack switch failure domain).
* :class:`CascadeAttackModel` -- overload cascades: neighbours of a
  host that failed last interval inherit part of its load and may be
  driven over the failure threshold themselves.
* :class:`PartitionFaultModel` -- network partitions: a fraction of the
  live fleet is cut off at once, manifesting (per the paper's §III-A
  fault class) as saturating network contention on the severed group.
* :class:`ArrivalSurgeModel` -- gateway-side flash crowds: no host is
  attacked, but the task arrival rate is multiplied for a few
  intervals, overloading the federation from the workload side.

Every host-directed attack manifests as resource over-utilisation on
its target (the paper restricts attention to exactly this fault class,
§III-A); a node whose utilisation crosses the failure threshold becomes
byzantine-unresponsive and must reboot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from ..config import FaultConfig
from .host import RESOURCES, Host
from .topology import Topology

__all__ = [
    "AttackEvent",
    "FaultModel",
    "FAULT_MODELS",
    "register_fault_model",
    "validate_fault_model_names",
    "PoissonAttackModel",
    "CorrelatedGroupAttackModel",
    "CascadeAttackModel",
    "PartitionFaultModel",
    "ArrivalSurgeModel",
    "build_fault_models",
    "FaultInjector",
]

#: Resource axis stressed by each attack type.
ATTACK_AXIS = {
    "cpu_overload": "cpu",
    "ram_contention": "ram",
    "disk_attack": "disk",
    "ddos_attack": "net",
}

#: Injected extra utilisation range per attack (fraction of capacity).
ATTACK_INTENSITY = {
    "cpu_overload": (0.5, 1.1),
    "ram_contention": (0.5, 1.0),
    "disk_attack": (0.6, 1.3),
    "ddos_attack": (0.6, 1.3),
}

#: Net-axis load placed on every host severed by a partition; above any
#: sane failure threshold, so the group reliably drops out together.
PARTITION_INTENSITY = 2.0


@dataclass(frozen=True)
class AttackEvent:
    """One injected fault event.

    ``target`` is a host id, or ``-1`` for fleet-wide events (arrival
    surges) that stress no individual node.  ``model`` names the fault
    model that produced the event, letting analyses separate the
    baseline Poisson process from scenario-specific campaigns.
    """

    interval: int
    target: int
    attack_type: str
    axis: str
    intensity: float
    #: Number of intervals the synthetic load persists.
    duration: int
    #: Which fault model produced the event.  Required: every emitter
    #: must attribute its events, so telemetry never misfiles a
    #: partition or surge under the Poisson baseline.
    model: str


class FaultModel:
    """One source of fault events; the injector drives a list of these.

    Models share the injector's RNG and are sampled in registration
    order, keeping a run's random stream deterministic for a fixed
    model list.  ``sample`` may inspect the injector (e.g. for the
    neighbours of recently failed hosts); ``decay`` ages any internal
    state once per interval; ``arrival_multiplier`` lets workload-side
    models modulate the gateway arrival process.

    Registered models (see :func:`register_fault_model`) additionally
    implement two classmethods consumed by :func:`build_fault_models`:
    ``enabled(config)`` says whether a :class:`FaultConfig` switches
    the model on in auto mode, and ``from_config(config, broker_bias)``
    constructs an instance from that config unconditionally.
    """

    name = "fault"

    def sample(
        self,
        interval: int,
        topology: Topology,
        hosts: Sequence[Host],
        injector: "FaultInjector",
    ) -> List[AttackEvent]:
        return []

    def decay(self) -> None:
        """Advance internal state by one interval."""

    def arrival_multiplier(self) -> float:
        """Factor applied to the gateway arrival rate this interval."""
        return 1.0

    @classmethod
    def enabled(cls, config: FaultConfig) -> bool:
        """Whether ``config`` switches this model on in auto mode."""
        raise NotImplementedError(f"{cls.__name__} defines no enabled()")

    @classmethod
    def from_config(
        cls, config: FaultConfig, broker_bias: float = 0.6
    ) -> "FaultModel":
        """Construct an instance from ``config`` (unconditionally)."""
        raise NotImplementedError(f"{cls.__name__} defines no from_config()")


#: Named fault-model registry: ``name`` -> model class.  Insertion
#: order is sampling order in auto mode: poisson, correlated, cascade,
#: partition, surge.  Reordering it changes every run's random stream.
FAULT_MODELS: Dict[str, type] = {}


def register_fault_model(cls: type) -> type:
    """Class decorator: add a :class:`FaultModel` subclass by name.

    Specs reference these names declaratively through
    ``FaultConfig.models``; unknown or duplicate names fail loudly at
    registration / spec-compile time rather than mid-run.
    """
    name = getattr(cls, "name", "")
    if not name or name == FaultModel.name:
        raise ValueError(f"{cls.__name__} must declare a distinct name")
    existing = FAULT_MODELS.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"fault model {name!r} already registered by {existing.__name__}"
        )
    FAULT_MODELS[name] = cls
    return cls


def validate_fault_model_names(names: Sequence[str]) -> None:
    """Reject unknown or duplicate fault-model names, loudly.

    Called from ``ScenarioSpec.__post_init__`` so a typo in a spec's
    ``faults.models`` surfaces when the spec is built, not halfway
    through a campaign.
    """
    seen = set()
    for name in names:
        if name not in FAULT_MODELS:
            raise ValueError(
                f"unknown fault model {name!r}; "
                f"registered: {sorted(FAULT_MODELS)}"
            )
        if name in seen:
            raise ValueError(f"duplicate fault model {name!r}")
        seen.add(name)


def _live_hosts(topology: Topology, hosts: Sequence[Host]) -> List[int]:
    return [h.host_id for h in hosts if h.alive and h.host_id in topology.attached]


@register_fault_model
class PoissonAttackModel(FaultModel):
    """The paper's baseline process: independent uniform attacks.

    ``broker_bias`` is the probability that an attack targets a broker
    rather than an arbitrary host; the paper's experiments direct
    attacks so as to cause *broker* byzantine failures, which this
    reproduces while still exercising worker-failure paths.
    """

    name = "poisson"

    def __init__(
        self,
        rate: float,
        attack_types: Sequence[str],
        broker_bias: float = 0.6,
    ) -> None:
        if rate < 0:
            raise ValueError("rate must be non-negative")
        if not 0.0 <= broker_bias <= 1.0:
            raise ValueError("broker_bias must be in [0, 1]")
        self.rate = rate
        self.attack_types = tuple(attack_types)
        self.broker_bias = broker_bias

    @classmethod
    def enabled(cls, config: FaultConfig) -> bool:
        return config.rate > 0

    @classmethod
    def from_config(cls, config, broker_bias=0.6):
        return cls(config.rate, config.attack_types, broker_bias)

    def sample(self, interval, topology, hosts, injector):
        rng = injector.rng
        events: List[AttackEvent] = []
        n_attacks = int(rng.poisson(self.rate))
        live = _live_hosts(topology, hosts)
        if not live:
            return events
        live_brokers = [h for h in live if h in topology.brokers]
        for _ in range(n_attacks):
            attack_type = str(rng.choice(self.attack_types))
            axis = ATTACK_AXIS[attack_type]
            low, high = ATTACK_INTENSITY[attack_type]
            intensity = float(rng.uniform(low, high))
            if live_brokers and rng.random() < self.broker_bias:
                target = int(rng.choice(live_brokers))
            else:
                target = int(rng.choice(live))
            duration = int(rng.integers(1, 3))  # 1 or 2 intervals
            events.append(AttackEvent(
                interval, target, attack_type, axis, intensity, duration,
                model=self.name,
            ))
        return events


@register_fault_model
class CorrelatedGroupAttackModel(FaultModel):
    """Rack-level correlated attacks.

    Hosts are grouped into contiguous racks of ``group_size`` by id
    (fleet compositions lay same-class hosts out contiguously, so a
    rack is also physically meaningful).  One event draws a single
    attack type and intensity and applies it to every live host of a
    randomly chosen rack -- the shared-failure-domain outages (power
    feed, top-of-rack switch) stressed by the resilient-edge-federation
    literature.
    """

    name = "correlated"

    def __init__(
        self,
        rate: float,
        group_size: int,
        attack_types: Sequence[str],
    ) -> None:
        if rate < 0:
            raise ValueError("rate must be non-negative")
        if group_size < 1:
            raise ValueError("group_size must be >= 1")
        self.rate = rate
        self.group_size = group_size
        self.attack_types = tuple(attack_types)

    @classmethod
    def enabled(cls, config: FaultConfig) -> bool:
        return config.correlated_rate > 0

    @classmethod
    def from_config(cls, config, broker_bias=0.6):
        return cls(
            config.correlated_rate,
            config.correlated_group_size,
            config.attack_types,
        )

    def sample(self, interval, topology, hosts, injector):
        rng = injector.rng
        events: List[AttackEvent] = []
        n_events = int(rng.poisson(self.rate))
        if n_events == 0:
            return events
        live = _live_hosts(topology, hosts)
        if not live:
            return events
        for _ in range(n_events):
            attack_type = str(rng.choice(self.attack_types))
            axis = ATTACK_AXIS[attack_type]
            low, high = ATTACK_INTENSITY[attack_type]
            # One draw shared by the whole rack: the point of correlation.
            intensity = float(rng.uniform(low, high))
            duration = int(rng.integers(1, 3))
            anchor = int(rng.choice(live))
            rack = anchor // self.group_size
            targets = [h for h in live if h // self.group_size == rack]
            for target in targets:
                events.append(AttackEvent(
                    interval, target, attack_type, axis, intensity, duration,
                    model=self.name,
                ))
        return events


@register_fault_model
class CascadeAttackModel(FaultModel):
    """Overload cascades triggered by neighbour failure.

    When a host fails, its topology neighbours (its broker, its LEI's
    workers, or the remaining broker clique) absorb its orphaned load
    and retry traffic; with probability ``probability`` each neighbour
    is hit by an extra utilisation spike the following interval, which
    can snowball into multi-interval cascading outages -- the failure
    mode the confidence-aware repair loop must damp rather than amplify.
    """

    name = "cascade"

    #: Resource axes a cascade spike can land on (orphaned compute /
    #: state re-replication / retry traffic).
    CASCADE_AXES = ("cpu", "ram", "net")

    def __init__(self, probability: float, intensity: float = 0.8) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if intensity < 0:
            raise ValueError("intensity must be non-negative")
        self.probability = probability
        self.intensity = intensity

    @classmethod
    def enabled(cls, config: FaultConfig) -> bool:
        return config.cascade_probability > 0

    @classmethod
    def from_config(cls, config, broker_bias=0.6):
        return cls(config.cascade_probability, config.cascade_intensity)

    def sample(self, interval, topology, hosts, injector):
        rng = injector.rng
        events: List[AttackEvent] = []
        candidates = sorted(injector.recent_failure_neighbors)
        if not candidates:
            return events
        live = set(_live_hosts(topology, hosts))
        for target in candidates:
            if target not in live:
                continue
            if rng.random() >= self.probability:
                continue
            axis = str(rng.choice(self.CASCADE_AXES))
            intensity = float(self.intensity * rng.uniform(0.8, 1.2))
            events.append(AttackEvent(
                interval, target, "cascade_overload", axis, intensity,
                duration=1, model=self.name,
            ))
        return events


@register_fault_model
class PartitionFaultModel(FaultModel):
    """Network partition events.

    A partition severs a random ``fraction`` of the live fleet from the
    rest of the federation for ``duration`` intervals.  Within the
    paper's fault class (resource over-utilisation, §III-A) this
    manifests as saturating network contention on every severed host:
    heartbeats and data transfers time out, the quorum marks the group
    failed, and the resilience model must rebuild the topology from the
    surviving side.
    """

    name = "partition"

    def __init__(self, rate: float, fraction: float, duration: int = 2) -> None:
        if rate < 0:
            raise ValueError("rate must be non-negative")
        if not 0.0 < fraction < 1.0:
            raise ValueError("fraction must be in (0, 1)")
        if duration < 1:
            raise ValueError("duration must be >= 1")
        self.rate = rate
        self.fraction = fraction
        self.duration = duration

    @classmethod
    def enabled(cls, config: FaultConfig) -> bool:
        return config.partition_rate > 0

    @classmethod
    def from_config(cls, config, broker_bias=0.6):
        return cls(
            config.partition_rate,
            config.partition_fraction,
            config.partition_duration,
        )

    def sample(self, interval, topology, hosts, injector):
        rng = injector.rng
        events: List[AttackEvent] = []
        n_events = int(rng.poisson(self.rate))
        if n_events == 0:
            return events
        live = _live_hosts(topology, hosts)
        for _ in range(n_events):
            if len(live) < 2:
                break
            k = max(1, min(int(round(self.fraction * len(live))), len(live) - 1))
            severed = rng.choice(np.asarray(live), size=k, replace=False)
            for target in sorted(int(h) for h in severed):
                events.append(AttackEvent(
                    interval, target, "network_partition", "net",
                    PARTITION_INTENSITY, duration=self.duration,
                    model=self.name,
                ))
        return events


@register_fault_model
class ArrivalSurgeModel(FaultModel):
    """Gateway-side flash crowds.

    A surge event sampled in interval ``t`` multiplies the task arrival
    rate in intervals ``t+1 .. t+duration`` (interval ``t``'s arrivals
    are already drawn when faults are sampled); concurrent surges
    compound.  No host is attacked directly; the federation is
    overloaded through its front door, the workload regime the
    flash-crowd scenarios study.
    """

    name = "surge"

    def __init__(self, rate: float, multiplier: float, duration: int = 1) -> None:
        if rate < 0:
            raise ValueError("rate must be non-negative")
        if multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if duration < 1:
            raise ValueError("duration must be >= 1")
        self.rate = rate
        self.multiplier = multiplier
        self.duration = duration
        #: Active surges as ``[multiplier, remaining_intervals]``.
        self._active: List[List[float]] = []

    @classmethod
    def enabled(cls, config: FaultConfig) -> bool:
        return config.surge_rate > 0

    @classmethod
    def from_config(cls, config, broker_bias=0.6):
        return cls(
            config.surge_rate, config.surge_multiplier, config.surge_duration
        )

    def sample(self, interval, topology, hosts, injector):
        rng = injector.rng
        events: List[AttackEvent] = []
        n_events = int(rng.poisson(self.rate))
        for _ in range(n_events):
            # +1 because the injection interval's decay consumes one
            # tick before the first post-event arrival draw reads us.
            self._active.append([self.multiplier, float(self.duration) + 1.0])
            events.append(AttackEvent(
                interval, -1, "arrival_surge", "arrival",
                self.multiplier, duration=self.duration, model=self.name,
            ))
        return events

    def decay(self) -> None:
        self._active = [
            [m, ttl - 1.0] for m, ttl in self._active if ttl > 1.0
        ]

    def arrival_multiplier(self) -> float:
        factor = 1.0
        for multiplier, _ttl in self._active:
            factor *= multiplier
        return factor


def build_fault_models(
    config: FaultConfig, broker_bias: float = 0.6
) -> List[FaultModel]:
    """Instantiate the fault models a :class:`FaultConfig` calls for.

    With ``config.models`` empty (**auto mode**, the historical
    behaviour) every registered model whose ``enabled(config)`` says so
    is built, in registry order -- a stock config enables only the
    paper's Poisson process, scenario configs switch on the richer
    campaigns through their rate fields.  With ``config.models`` set,
    exactly those models are built, in the order named, regardless of
    rate gating; unknown names raise.

    If ``config.chaos`` carries compiled schedule rows (see
    :meth:`repro.chaos.schedule.ChaosSchedule.to_rows`), the schedule's
    deterministic :class:`~repro.chaos.schedule.ScheduledFaultModel` is
    appended **last** -- it consumes no RNG, so its position cannot
    perturb the stochastic models' shared random stream.
    """
    models: List[FaultModel] = []
    names = tuple(getattr(config, "models", ()) or ())
    if names:
        validate_fault_model_names(names)
        for name in names:
            models.append(FAULT_MODELS[name].from_config(config, broker_bias))
    else:
        for cls in FAULT_MODELS.values():
            if cls.enabled(config):
                models.append(cls.from_config(config, broker_bias))
    chaos_rows = tuple(getattr(config, "chaos", ()) or ())
    if chaos_rows:
        # Deferred import: repro.chaos depends on this module.
        from ..chaos.schedule import ChaosSchedule

        models.append(ChaosSchedule.from_rows(chaos_rows).compile())
    return models


class FaultInjector:
    """Samples fault events from its models and applies them to hosts.

    Parameters
    ----------
    config:
        Fault process parameters (rates, recovery bounds, threshold).
    rng:
        Random source shared by all models (sampled in model order, so
        a fixed model list keeps runs deterministic).
    broker_bias:
        Broker-targeting probability of the baseline Poisson model.
    models:
        Explicit fault-model list; defaults to
        :func:`build_fault_models` derived from ``config``.
    """

    def __init__(
        self,
        config: FaultConfig,
        rng: np.random.Generator,
        broker_bias: float = 0.6,
        models: Optional[Sequence[FaultModel]] = None,
    ) -> None:
        if not 0.0 <= broker_bias <= 1.0:
            raise ValueError("broker_bias must be in [0, 1]")
        self.config = config
        self.rng = rng
        self.broker_bias = broker_bias
        self.models: List[FaultModel] = (
            list(models) if models is not None
            else build_fault_models(config, broker_bias)
        )
        #: Active attacks, target -> list of (axis, intensity, ttl).
        self._active: Dict[int, List[List]] = {}
        self.history: List[AttackEvent] = []
        #: Live neighbours of hosts that failed in the last interval,
        #: consumed by cascade models.
        self.recent_failure_neighbors: Set[int] = set()

    # ------------------------------------------------------------------
    def inject(self, interval: int, topology: Topology, hosts: Sequence[Host]) -> List[AttackEvent]:
        """Sample this interval's fault events and register them."""
        events: List[AttackEvent] = []
        for model in self.models:
            events.extend(model.sample(interval, topology, hosts, self))
        for event in events:
            self.history.append(event)
            if event.target >= 0 and event.axis in RESOURCES:
                self._active.setdefault(event.target, []).append(
                    [event.axis, event.intensity, event.duration]
                )
        # Cascade triggers are consumed once, by the interval after the
        # failure; clearing here keeps a single outage from re-firing.
        self.recent_failure_neighbors = set()
        return events

    def arrival_multiplier(self) -> float:
        """Combined workload-side multiplier of all active fault events."""
        factor = 1.0
        for model in self.models:
            factor *= model.arrival_multiplier()
        return factor

    def apply_loads(self, hosts: Sequence[Host]) -> None:
        """Write current attack loads into ``host.fault_load``."""
        for host in hosts:
            load = {axis: 0.0 for axis in host.fault_load}
            for axis, intensity, _ttl in self._active.get(host.host_id, []):
                load[axis] += intensity
            host.fault_load = load

    def decay(self) -> None:
        """Age active attacks by one interval; expired ones vanish."""
        for target in list(self._active):
            remaining = []
            for axis, intensity, ttl in self._active[target]:
                if ttl > 1:
                    remaining.append([axis, intensity, ttl - 1])
            if remaining:
                self._active[target] = remaining
            else:
                del self._active[target]
        for model in self.models:
            model.decay()

    def clear_host(self, host_id: int) -> None:
        """Drop attacks on a host (it rebooted to a clean snapshot)."""
        self._active.pop(host_id, None)

    def draw_recovery_seconds(self) -> float:
        """Reboot duration for a crashed node (1-5 minutes, §IV-I)."""
        low, high = self.config.recovery_seconds
        return float(self.rng.uniform(low, high))

    def check_failures(self, hosts: Sequence[Host], topology: Topology) -> List[int]:
        """Crash hosts whose utilisation exceeds the failure threshold.

        Returns the ids of hosts that became unresponsive.  Utilisation
        must already have been computed for the interval.  The topology
        neighbours of every newly failed host are recorded for the
        cascade models to sample next interval.
        """
        failed = []
        threshold = self.config.failure_threshold
        for host in hosts:
            if not host.alive or host.host_id not in topology.attached:
                continue
            if host.is_overloaded(threshold):
                host.crash(self.draw_recovery_seconds())
                self.clear_host(host.host_id)
                failed.append(host.host_id)
        neighbors: Set[int] = set()
        for host_id in failed:
            if host_id in topology.brokers:
                neighbors.update(topology.lei(host_id))
                neighbors.update(topology.brokers - {host_id})
            elif host_id in topology.assignment:
                neighbors.add(topology.assignment[host_id])
        self.recent_failure_neighbors = neighbors - set(failed)
        return failed
