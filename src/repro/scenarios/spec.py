"""Declarative scenario specifications and their compiler.

A :class:`ScenarioSpec` is the single declarative object describing one
world the reproduction can simulate: fleet composition (which host
classes, how many), topology preset, fault campaign, workload mix and
QoS weights.  Specs are frozen, serialise losslessly through
``to_dict`` / ``from_dict`` (so catalogs can live in JSON) and compile
to the :class:`~repro.config.ExperimentConfig` the simulator and
experiment runner already consume -- scenarios add no second code path
through the engine, only a declarative front end.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, Optional, Tuple

from ..chaos.schedule import ChaosSchedule
from ..config import (
    ExperimentConfig,
    FaultConfig,
    FederationConfig,
    WorkloadConfig,
)
from ..simulator.faults import validate_fault_model_names
from ..simulator.host import HOST_CLASSES
from ..simulator.topology import Topology, initial_topology

__all__ = ["ScenarioSpec", "TOPOLOGY_PRESETS", "build_topology"]

#: Known topology presets (see :func:`build_topology`).
TOPOLOGY_PRESETS = ("balanced", "skewed")


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, declarative simulation world.

    Parameters mirror the layers they configure: ``fleet`` / ``n_leis``
    / ``topology`` shape the federation, ``workload`` the arrival
    process, ``faults`` the failure campaign, ``alpha`` / ``beta`` the
    QoS objective (eq. 7).  ``n_intervals`` is the scenario's default
    evaluation length; campaign runs may override it at compile time.
    """

    name: str
    description: str
    #: Host-class composition as ``(class, count)`` pairs, in rack order.
    fleet: Tuple[Tuple[str, int], ...] = (("pi4b-8gb", 4), ("pi4b-4gb", 4))
    n_leis: int = 2
    topology: str = "balanced"
    interval_seconds: float = 300.0
    link_mbps: float = 1000.0
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    alpha: float = 0.5
    beta: float = 0.5
    n_intervals: int = 20
    tags: Tuple[str, ...] = ()
    #: Optional declarative chaos schedule layered on top of ``faults``
    #: (compiled to a deterministic fault model at ``compile`` time).
    chaos: Optional[ChaosSchedule] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a non-empty name")
        if not self.fleet:
            raise ValueError(f"scenario {self.name!r} declares an empty fleet")
        for entry in self.fleet:
            if len(entry) != 2:
                raise ValueError(
                    f"scenario {self.name!r}: fleet entries must be "
                    f"(host_class, count), got {entry!r}"
                )
            class_name, count = entry
            if class_name not in HOST_CLASSES:
                raise ValueError(
                    f"scenario {self.name!r}: unknown host class "
                    f"{class_name!r}; known: {sorted(HOST_CLASSES)}"
                )
            if int(count) < 1:
                raise ValueError(
                    f"scenario {self.name!r}: host class {class_name!r} "
                    f"count must be >= 1, got {count}"
                )
        n_hosts = self.n_hosts
        if n_hosts < 2:
            raise ValueError(
                f"scenario {self.name!r}: fleet holds {n_hosts} hosts; need >= 2"
            )
        if not 1 <= self.n_leis <= n_hosts // 2:
            raise ValueError(
                f"scenario {self.name!r}: n_leis={self.n_leis} infeasible "
                f"for a {n_hosts}-host fleet"
            )
        if self.topology not in TOPOLOGY_PRESETS:
            raise ValueError(
                f"scenario {self.name!r}: unknown topology preset "
                f"{self.topology!r}; known: {TOPOLOGY_PRESETS}"
            )
        if self.faults.correlated_group_size > n_hosts:
            raise ValueError(
                f"scenario {self.name!r}: correlated_group_size="
                f"{self.faults.correlated_group_size} exceeds the "
                f"{n_hosts}-host fleet"
            )
        if abs(self.alpha + self.beta - 1.0) > 1e-9:
            raise ValueError(
                f"scenario {self.name!r}: alpha + beta must equal 1 (eq. 7)"
            )
        if self.n_intervals < 1:
            raise ValueError(
                f"scenario {self.name!r}: n_intervals must be >= 1"
            )
        if self.faults.models:
            # Fail at spec-construction time, not mid-campaign.
            try:
                validate_fault_model_names(self.faults.models)
            except ValueError as exc:
                raise ValueError(f"scenario {self.name!r}: {exc}") from None
        if self.faults.chaos:
            raise ValueError(
                f"scenario {self.name!r}: set the chaos schedule on the "
                "spec's `chaos` field, not on FaultConfig.chaos (the spec "
                "compiles it down; two sources of truth would drift)"
            )
        if self.chaos is not None:
            if not isinstance(self.chaos, ChaosSchedule):
                raise ValueError(
                    f"scenario {self.name!r}: chaos must be a ChaosSchedule, "
                    f"got {type(self.chaos).__name__}"
                )
            try:
                self.chaos.validate_for(n_hosts)
            except ValueError as exc:
                raise ValueError(f"scenario {self.name!r}: {exc}") from None

    # ------------------------------------------------------------------
    # Derived shape
    # ------------------------------------------------------------------
    @property
    def n_hosts(self) -> int:
        return sum(int(count) for _, count in self.fleet)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data (JSON-compatible) representation."""
        data = asdict(self)
        data["fleet"] = [list(entry) for entry in self.fleet]
        data["tags"] = list(self.tags)
        data["workload"] = asdict(self.workload)
        data["faults"] = asdict(self.faults)
        data["faults"]["attack_types"] = list(self.faults.attack_types)
        data["faults"]["recovery_seconds"] = list(self.faults.recovery_seconds)
        data["faults"]["models"] = list(self.faults.models)
        # Specs never carry FaultConfig.chaos rows (enforced above).
        data["faults"]["chaos"] = []
        # asdict recursion drops the events' `kind` discriminator; use
        # the schedule's own lossless form.
        data["chaos"] = self.chaos.to_dict() if self.chaos is not None else None
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict` (validates on construction)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown ScenarioSpec fields: {sorted(unknown)}")
        kwargs = dict(data)
        # Omitted keys keep their dataclass defaults -- a minimal JSON
        # entry {"name": ..., "description": ...} is a valid scenario.
        if "fleet" in data:
            kwargs["fleet"] = tuple(
                (str(name), int(count)) for name, count in data["fleet"]
            )
        if "tags" in data:
            kwargs["tags"] = tuple(data["tags"])
        if isinstance(data.get("workload"), dict):
            kwargs["workload"] = WorkloadConfig(**data["workload"])
        if isinstance(data.get("faults"), dict):
            faults = dict(data["faults"])
            if "attack_types" in faults:
                faults["attack_types"] = tuple(faults["attack_types"])
            if "recovery_seconds" in faults:
                faults["recovery_seconds"] = tuple(faults["recovery_seconds"])
            if "models" in faults:
                faults["models"] = tuple(faults["models"])
            if "chaos" in faults:
                faults["chaos"] = tuple(tuple(row) for row in faults["chaos"])
            kwargs["faults"] = FaultConfig(**faults)
        if data.get("chaos"):
            kwargs["chaos"] = ChaosSchedule.from_dict(data["chaos"])
        elif "chaos" in kwargs:
            kwargs["chaos"] = None
        return cls(**kwargs)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(
        self,
        seed: int = 0,
        n_intervals: Optional[int] = None,
    ) -> ExperimentConfig:
        """Compile to the :class:`ExperimentConfig` the runner consumes.

        ``seed`` and (optionally) ``n_intervals`` are the per-run knobs
        a campaign grid varies; everything else is the scenario's
        declarative identity.
        """
        n_large = sum(
            count for class_name, count in self.fleet
            if class_name != "pi4b-4gb"
        )
        federation = FederationConfig(
            n_hosts=self.n_hosts,
            n_leis=self.n_leis,
            n_large_hosts=n_large,
            interval_seconds=self.interval_seconds,
            link_mbps=self.link_mbps,
            fleet=self.fleet,
        )
        faults = self.faults
        if self.chaos is not None and len(self.chaos):
            # The schedule travels as plain rows so the compiled config
            # stays picklable and hashable across process/fleet workers.
            faults = replace(faults, chaos=self.chaos.to_rows())
        return ExperimentConfig(
            federation=federation,
            workload=self.workload,
            faults=faults,
            n_intervals=self.n_intervals if n_intervals is None else n_intervals,
            alpha=self.alpha,
            beta=self.beta,
            seed=seed,
        )

    def with_overrides(self, **changes: Any) -> "ScenarioSpec":
        """A copy with ``changes`` applied (dataclasses.replace sugar)."""
        return replace(self, **changes)


def build_topology(spec: ScenarioSpec) -> Topology:
    """Instantiate a scenario's topology preset.

    ``balanced`` is the paper's starting topology: the first ``n_leis``
    hosts are brokers with workers dealt round-robin.  ``skewed`` keeps
    the same brokers but concentrates roughly half of all workers under
    the first broker, modelling a federation that has grown around one
    dominant site -- a harsher starting point for load-balancing
    resilience models.
    """
    if spec.topology == "balanced":
        return initial_topology(spec.n_hosts, spec.n_leis)
    if spec.topology == "skewed":
        n_hosts, n_leis = spec.n_hosts, spec.n_leis
        brokers = list(range(n_leis))
        workers = list(range(n_leis, n_hosts))
        heavy = workers[: len(workers) // 2 + 1]
        rest = workers[len(heavy):]
        assignment = {worker: brokers[0] for worker in heavy}
        if n_leis > 1:
            for offset, worker in enumerate(rest):
                assignment[worker] = brokers[1 + offset % (n_leis - 1)]
        else:
            for worker in rest:
                assignment[worker] = brokers[0]
        return Topology(n_hosts, brokers, assignment)
    raise ValueError(f"unknown topology preset {spec.topology!r}")
