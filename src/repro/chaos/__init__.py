"""``repro.chaos`` -- declarative chaos schedules.

:mod:`repro.chaos.schedule` holds the chaos-schedule DSL: frozen,
serialisable :class:`ChaosEvent` records composed into a
:class:`ChaosSchedule` that compiles to a deterministic, RNG-free
:class:`ScheduledFaultModel` behind the existing
:class:`~repro.simulator.faults.FaultModel` contract.  Scenarios carry
a schedule in ``FaultConfig.chaos`` (the ``chaos-drill`` catalog entry
fires all five event kinds).
"""

from .schedule import (
    CHAOS_MODEL_NAME,
    EVENT_KINDS,
    ArrivalSurge,
    ChaosEvent,
    ChaosSchedule,
    FederationPartition,
    LinkDegrade,
    NodeRecover,
    ScheduledFaultModel,
    ZoneBlackout,
    register_event_kind,
)

__all__ = [
    "CHAOS_MODEL_NAME",
    "EVENT_KINDS",
    "register_event_kind",
    "ChaosEvent",
    "ZoneBlackout",
    "LinkDegrade",
    "NodeRecover",
    "FederationPartition",
    "ArrivalSurge",
    "ChaosSchedule",
    "ScheduledFaultModel",
]
