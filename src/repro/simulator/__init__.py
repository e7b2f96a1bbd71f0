"""``repro.simulator`` -- COSCO-style co-simulator of an edge federation.

Substitutes the paper's 16-node Raspberry-Pi testbed:
heterogeneous Pi-4B host models with measured power curves, a broker-
worker topology over LEIs, distance-derived network latencies, mobile
gateways, DeFog/AIoTBench workload generators, the four-attack fault
injector, quorum failure detection, reboot recovery and a GOBI-style
underlying scheduler, all driven in five-minute scheduling intervals.
"""

from .detection import DetectionProtocol, FailureReport
from .engine import EdgeFederation, SystemView
from .faults import (
    FAULT_MODELS,
    ArrivalSurgeModel,
    AttackEvent,
    CascadeAttackModel,
    CorrelatedGroupAttackModel,
    FaultInjector,
    FaultModel,
    PartitionFaultModel,
    PoissonAttackModel,
    build_fault_models,
    register_fault_model,
    validate_fault_model_names,
)
from .gateway import Gateway, GatewayFleet
from .host import HOST_CLASSES, Host, HostSpec, RESOURCES, make_fleet, make_pi_cluster
from .metrics import (
    IntervalMetrics,
    M_FEATURES,
    RunMetrics,
    S_FEATURES,
    encode_host_metrics,
    encode_schedule,
)
from .network import NetworkModel
from .power import (
    InterpolatedPowerModel,
    NUC_POWER,
    PI4B_POWER,
    XEON_POWER,
)
from .recovery import ensure_brokered, reattach_recovered, strip_failed
from .scheduler import (
    GOBIScheduler,
    SchedulingDecision,
)
from .task import Task, TaskSpec
from .topology import Topology, initial_topology
from .trace import Trace, TraceSample, collect_trace
from .workloads import (
    AIOT_PROFILES,
    ApplicationProfile,
    DEFOG_PROFILES,
    WorkloadGenerator,
    make_aiot_generator,
    make_defog_generator,
    make_generator,
)

__all__ = [
    "EdgeFederation",
    "SystemView",
    "DetectionProtocol",
    "FailureReport",
    "FaultInjector",
    "FaultModel",
    "PoissonAttackModel",
    "CorrelatedGroupAttackModel",
    "CascadeAttackModel",
    "PartitionFaultModel",
    "ArrivalSurgeModel",
    "FAULT_MODELS",
    "register_fault_model",
    "validate_fault_model_names",
    "build_fault_models",
    "AttackEvent",
    "Gateway",
    "GatewayFleet",
    "Host",
    "HostSpec",
    "HOST_CLASSES",
    "RESOURCES",
    "make_pi_cluster",
    "make_fleet",
    "IntervalMetrics",
    "RunMetrics",
    "M_FEATURES",
    "S_FEATURES",
    "encode_host_metrics",
    "encode_schedule",
    "NetworkModel",
    "InterpolatedPowerModel",
    "PI4B_POWER",
    "NUC_POWER",
    "XEON_POWER",
    "ensure_brokered",
    "reattach_recovered",
    "strip_failed",
    "SchedulingDecision",
    "GOBIScheduler",
    "Task",
    "TaskSpec",
    "Topology",
    "initial_topology",
    "Trace",
    "TraceSample",
    "collect_trace",
    "WorkloadGenerator",
    "ApplicationProfile",
    "DEFOG_PROFILES",
    "AIOT_PROFILES",
    "make_defog_generator",
    "make_aiot_generator",
    "make_generator",
]
