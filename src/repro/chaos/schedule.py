"""The declarative chaos-schedule DSL and its compiled fault model.

A :class:`ChaosSchedule` is a timed, composable perturbation script: a
tuple of frozen :class:`ChaosEvent` records (zone blackouts, link
degradation, node recoveries, federation partitions, arrival surges),
each with a ``start`` interval and a ``duration`` in intervals.  Like
:class:`~repro.scenarios.spec.ScenarioSpec`, schedules validate on
construction and serialise losslessly through ``to_dict`` /
``from_dict``, so a schedule can live in JSON and a run is replayed
from ``(seed, schedule_json)`` alone.

``compile()`` turns a schedule into a :class:`ScheduledFaultModel`
sitting behind the existing :class:`~repro.simulator.faults.FaultModel`
``sample`` / ``decay`` / ``arrival_multiplier`` contract.  The
compiled model is **deterministic and RNG-free**: every emitted
:class:`~repro.simulator.faults.AttackEvent` is a pure function of the
interval clock, the schedule, and the live-host set.  Because it never
touches the injector's shared RNG, appending a chaos model to a
scenario's fault-model list cannot perturb the random streams of the
stochastic models sampled before it -- which is what preserves the
serial == pool == fleet bit-identity contract for free (see
``docs/architecture.md``).

Event semantics (intervals are 1-based, windows half-open
``[start, start + duration)``):

* ``zone_blackout`` -- every live host of one contiguous id zone is
  driven over the failure threshold for each interval of the window
  (shared power-feed / top-of-rack failure domain).  Hosts that reboot
  mid-window are hit again: the blackout outlasts individual reboots.
* ``link_degrade`` -- the listed hosts take sub-critical network
  contention for the window: degraded, not necessarily dead.
* ``node_recover`` -- instantaneous (duration 1): the listed hosts'
  active attacks are cleared at ``start``, as if rebooted to a clean
  snapshot; emits record-only events on a non-resource axis.
* ``federation_partition`` -- a fraction of the fleet is severed: the
  cut set is resolved **once**, at ``start``, as the last ``k`` live
  hosts in id order (``k`` clamped to ``[1, live - 1]``), then
  re-asserted every window interval so rebooting severed hosts stay
  cut off until the window closes.
* ``arrival_surge`` -- no host is attacked; the gateway arrival rate
  is multiplied for every interval of the window.

Overlap rule: two events of the **same kind** whose windows intersect
and whose scopes collide (same zone, a shared host, any two
partitions, any two surges) are rejected at construction -- their
composed effect would be ambiguous.  Different kinds compose freely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, FrozenSet, List, Sequence, Tuple, Type

from ..simulator.faults import (
    PARTITION_INTENSITY,
    AttackEvent,
    FaultModel,
    _live_hosts,
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

#: ``AttackEvent.model`` attribution of every schedule-emitted event.
CHAOS_MODEL_NAME = "chaos"

#: Registered event kinds: ``kind`` string -> event class (the
#: ``from_dict`` dispatch table, mirroring the fault-model registry).
EVENT_KINDS: Dict[str, Type["ChaosEvent"]] = {}


def register_event_kind(cls: Type["ChaosEvent"]) -> Type["ChaosEvent"]:
    """Class decorator: add a :class:`ChaosEvent` subclass by its kind."""
    if not cls.kind:
        raise ValueError(f"{cls.__name__} declares no event kind")
    existing = EVENT_KINDS.get(cls.kind)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"chaos event kind {cls.kind!r} already registered "
            f"by {existing.__name__}"
        )
    EVENT_KINDS[cls.kind] = cls
    return cls


def _attack(
    interval: int,
    target: int,
    kind: str,
    axis: str,
    intensity: float,
    duration: int = 1,
) -> AttackEvent:
    return AttackEvent(
        interval, target, kind, axis, intensity, duration,
        model=CHAOS_MODEL_NAME,
    )


def _host_tuple(value: Sequence[int], kind: str) -> Tuple[int, ...]:
    """Normalise a host list: sorted, deduplicated, non-negative ints."""
    hosts = []
    for host in value:
        if isinstance(host, bool) or not isinstance(host, int):
            raise ValueError(
                f"{kind}: host ids must be integers, got {host!r}"
            )
        if host < 0:
            raise ValueError(f"{kind}: host id {host} must be >= 0")
        hosts.append(int(host))
    if not hosts:
        raise ValueError(f"{kind}: needs at least one host id")
    return tuple(sorted(set(hosts)))


@dataclass(frozen=True)
class ChaosEvent:
    """One timed perturbation: base fields shared by every kind.

    ``start`` is the first interval the event is active (1-based, like
    the engine's interval clock); the window is half-open,
    ``[start, start + duration)``.  Subclasses add their kind-specific
    parameters and implement :meth:`events_for`.
    """

    kind: ClassVar[str] = ""

    start: int
    duration: int

    def __post_init__(self) -> None:
        if not self.kind:
            raise TypeError(
                "ChaosEvent is abstract; construct a registered kind "
                f"({sorted(EVENT_KINDS)})"
            )
        for name in ("start", "duration"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(
                    f"{self.kind}: {name}={value!r} must be an integer "
                    "number of intervals"
                )
        if self.start < 1:
            raise ValueError(
                f"{self.kind}: start={self.start} must be >= 1 "
                "(the engine's interval clock is 1-based)"
            )
        if self.duration < 1:
            raise ValueError(
                f"{self.kind}: duration={self.duration} must be >= 1 "
                "(a zero-duration event would never fire)"
            )

    # -- window ----------------------------------------------------------
    @property
    def end(self) -> int:
        """One past the last active interval (half-open window)."""
        return self.start + self.duration

    def active(self, interval: int) -> bool:
        return self.start <= interval < self.end

    def overlaps(self, other: "ChaosEvent") -> bool:
        return self.start < other.end and other.start < self.end

    # -- contract for subclasses ----------------------------------------
    def scope(self) -> FrozenSet[object]:
        """Scope atoms; same-kind events sharing one may not overlap."""
        return frozenset()

    def validate_for(self, n_hosts: int) -> None:
        """Raise when the event cannot apply to an ``n_hosts`` fleet."""

    def events_for(
        self, interval: int, live: Sequence[int], injector, state: dict
    ) -> List[AttackEvent]:
        """This interval's emitted attack events (pure; no RNG)."""
        return []

    # -- serialisation ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form: ``kind`` discriminator + every field."""
        data: Dict[str, Any] = {"kind": self.kind}
        for spec in fields(self):
            value = getattr(self, spec.name)
            data[spec.name] = list(value) if isinstance(value, tuple) else value
        return data

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "ChaosEvent":
        """Inverse of :meth:`to_dict`, dispatching on ``kind``."""
        kind = data.get("kind")
        cls = EVENT_KINDS.get(kind)
        if cls is None:
            raise ValueError(
                f"unknown chaos event kind {kind!r}; "
                f"registered: {sorted(EVENT_KINDS)}"
            )
        known = {spec.name for spec in fields(cls)}
        unknown = set(data) - known - {"kind"}
        if unknown:
            raise ValueError(
                f"unknown {kind} fields: {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        kwargs = {key: value for key, value in data.items() if key != "kind"}
        if "hosts" in kwargs:
            kwargs["hosts"] = tuple(kwargs["hosts"])
        return cls(**kwargs)


@register_event_kind
@dataclass(frozen=True)
class ZoneBlackout(ChaosEvent):
    """Contiguous host zone driven over the failure threshold."""

    kind: ClassVar[str] = "zone_blackout"

    #: Zone index; the zone covers host ids
    #: ``[zone * zone_size, (zone + 1) * zone_size)``.
    zone: int = 0
    zone_size: int = 4
    #: Injected load on the blacked-out hosts (>= any sane failure
    #: threshold, so the zone reliably drops out together).
    intensity: float = 2.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.zone < 0:
            raise ValueError(f"{self.kind}: zone must be >= 0")
        if self.zone_size < 1:
            raise ValueError(f"{self.kind}: zone_size must be >= 1")
        if self.intensity <= 0:
            raise ValueError(f"{self.kind}: intensity must be positive")

    def scope(self) -> FrozenSet[object]:
        lo = self.zone * self.zone_size
        return frozenset(range(lo, lo + self.zone_size))

    def validate_for(self, n_hosts: int) -> None:
        if self.zone * self.zone_size >= n_hosts:
            raise ValueError(
                f"{self.kind}: zone {self.zone} (zone_size "
                f"{self.zone_size}) lies outside a {n_hosts}-host fleet"
            )

    def events_for(self, interval, live, injector, state):
        if not self.active(interval):
            return []
        lo = self.zone * self.zone_size
        hi = lo + self.zone_size
        return [
            _attack(interval, host, self.kind, "cpu", self.intensity)
            for host in live
            if lo <= host < hi
        ]


@register_event_kind
@dataclass(frozen=True)
class LinkDegrade(ChaosEvent):
    """Sub-critical network contention on the listed hosts."""

    kind: ClassVar[str] = "link_degrade"

    hosts: Tuple[int, ...] = ()
    #: Net-axis load; below 1.0 degrades, above it can crash.
    intensity: float = 0.7

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "hosts", _host_tuple(self.hosts, self.kind))
        if self.intensity <= 0:
            raise ValueError(f"{self.kind}: intensity must be positive")

    def scope(self) -> FrozenSet[object]:
        return frozenset(self.hosts)

    def validate_for(self, n_hosts: int) -> None:
        if self.hosts[-1] >= n_hosts:
            raise ValueError(
                f"{self.kind}: host {self.hosts[-1]} out of range for a "
                f"{n_hosts}-host fleet"
            )

    def events_for(self, interval, live, injector, state):
        if not self.active(interval):
            return []
        targets = set(self.hosts)
        return [
            _attack(interval, host, self.kind, "net", self.intensity)
            for host in live
            if host in targets
        ]


@register_event_kind
@dataclass(frozen=True)
class NodeRecover(ChaosEvent):
    """Instantaneous repair: clear the listed hosts' active attacks."""

    kind: ClassVar[str] = "node_recover"

    hosts: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "hosts", _host_tuple(self.hosts, self.kind))
        if self.duration != 1:
            raise ValueError(
                f"{self.kind}: duration must be 1 (recovery is "
                "instantaneous; schedule several events to repeat it)"
            )

    def scope(self) -> FrozenSet[object]:
        return frozenset(self.hosts)

    def validate_for(self, n_hosts: int) -> None:
        if self.hosts[-1] >= n_hosts:
            raise ValueError(
                f"{self.kind}: host {self.hosts[-1]} out of range for a "
                f"{n_hosts}-host fleet"
            )

    def events_for(self, interval, live, injector, state):
        if interval != self.start:
            return []
        events = []
        for host in self.hosts:
            injector.clear_host(host)
            # "recover" is not a resource axis, so the injector records
            # the event without registering any load.
            events.append(_attack(interval, host, self.kind, "recover", 0.0))
        return events


@register_event_kind
@dataclass(frozen=True)
class FederationPartition(ChaosEvent):
    """A fraction of the live fleet severed for the window."""

    kind: ClassVar[str] = "federation_partition"

    #: Fraction of the live fleet cut off, in (0, 1); the severed set
    #: is the last ``k`` live hosts in id order, resolved at ``start``.
    fraction: float = 0.35

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.fraction < 1.0:
            raise ValueError(
                f"{self.kind}: fraction={self.fraction} must be in (0, 1) "
                "(a partition cuts off part of the fleet, never none or "
                "all of it)"
            )

    def scope(self) -> FrozenSet[object]:
        # Any two overlapping partitions are ambiguous.
        return frozenset({"partition"})

    def events_for(self, interval, live, injector, state):
        if not self.active(interval):
            return []
        severed = state.get(self)
        if severed is None:
            if len(live) < 2:
                severed = ()
            else:
                k = max(
                    1,
                    min(int(round(self.fraction * len(live))), len(live) - 1),
                )
                severed = tuple(sorted(live)[-k:])
            state[self] = severed
        return [
            _attack(interval, host, self.kind, "net", PARTITION_INTENSITY)
            for host in severed
        ]


@register_event_kind
@dataclass(frozen=True)
class ArrivalSurge(ChaosEvent):
    """Gateway arrival rate multiplied for the window; no host attacked."""

    kind: ClassVar[str] = "arrival_surge"

    multiplier: float = 2.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.multiplier < 1.0:
            raise ValueError(
                f"{self.kind}: multiplier={self.multiplier} must be >= 1 "
                "(a surge amplifies arrivals)"
            )

    def scope(self) -> FrozenSet[object]:
        return frozenset({"surge"})

    def events_for(self, interval, live, injector, state):
        # The multiplier itself is applied by the model's
        # arrival_multiplier(); this is the record-only announcement.
        if interval != self.start:
            return []
        return [
            _attack(
                interval, -1, self.kind, "arrival", self.multiplier,
                duration=self.duration,
            )
        ]


def _event_sort_key(event: ChaosEvent) -> Tuple:
    return (
        event.start,
        event.kind,
        event.duration,
        json.dumps(event.to_dict(), sort_keys=True),
    )


@dataclass(frozen=True)
class ChaosSchedule:
    """An ordered, validated composition of :class:`ChaosEvent` records.

    Events are canonicalised to a fixed order at construction, so two
    schedules with the same events serialise to the same bytes and
    embed as the same ``FaultConfig.chaos`` rows -- hence the same
    config hash.
    """

    events: Tuple[ChaosEvent, ...] = ()

    def __post_init__(self) -> None:
        events = tuple(self.events)
        for event in events:
            if not isinstance(event, ChaosEvent) or not event.kind:
                raise ValueError(
                    f"schedule entries must be chaos events, got {event!r}"
                )
        events = tuple(sorted(events, key=_event_sort_key))
        object.__setattr__(self, "events", events)
        for index, first in enumerate(events):
            for second in events[index + 1:]:
                if first.kind != second.kind:
                    continue
                if first.overlaps(second) and first.scope() & second.scope():
                    raise ValueError(
                        f"overlapping {first.kind} events: intervals "
                        f"[{first.start}, {first.end}) and "
                        f"[{second.start}, {second.end}) share scope -- "
                        "their composed effect would be ambiguous"
                    )

    def __len__(self) -> int:
        return len(self.events)

    # -- validation ------------------------------------------------------
    def validate_for(self, n_hosts: int) -> None:
        """Check every event against a concrete fleet size."""
        for event in self.events:
            event.validate_for(n_hosts)

    # -- serialisation ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {"events": [event.to_dict() for event in self.events]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ChaosSchedule":
        unknown = set(data) - {"events"}
        if unknown:
            raise ValueError(
                f"unknown ChaosSchedule fields: {sorted(unknown)}"
            )
        return cls(tuple(
            ChaosEvent.from_dict(entry) for entry in data.get("events", ())
        ))

    # -- the FaultConfig embedding --------------------------------------
    def to_rows(self) -> Tuple[Tuple, ...]:
        """Canonical plain-data rows for ``FaultConfig.chaos``.

        Each row is ``(kind, start, duration, ((param, value), ...))``
        with params sorted by name -- hashable, picklable and
        structurally checkable without importing this package (see
        :class:`repro.config.FaultConfig`).
        """
        rows = []
        for event in self.events:
            params = []
            for spec in fields(event):
                if spec.name in ("start", "duration"):
                    continue
                params.append((spec.name, getattr(event, spec.name)))
            rows.append((
                event.kind, event.start, event.duration,
                tuple(sorted(params)),
            ))
        return tuple(rows)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "ChaosSchedule":
        """Inverse of :meth:`to_rows` (validates on construction)."""
        events = []
        for row in rows:
            if len(row) != 4:
                raise ValueError(
                    f"chaos row must be (kind, start, duration, params), "
                    f"got {row!r}"
                )
            kind, start, duration, params = row
            data: Dict[str, Any] = {
                "kind": kind, "start": start, "duration": duration,
            }
            for name, value in params:
                data[str(name)] = value
            events.append(ChaosEvent.from_dict(data))
        return cls(tuple(events))

    # -- compilation -----------------------------------------------------
    def compile(self) -> "ScheduledFaultModel":
        """The deterministic fault model replaying this schedule."""
        return ScheduledFaultModel(self)


class ScheduledFaultModel(FaultModel):
    """Replays a :class:`ChaosSchedule` behind the ``FaultModel`` contract.

    **RNG-free by design**: ``sample`` never touches ``injector.rng``,
    so appending this model to a scenario's list leaves every
    stochastic model's random stream untouched -- chaos schedules
    compose with the existing fault campaigns without perturbing them,
    and the cross-mode bit-identity contract holds unchanged.

    The engine draws interval ``t``'s arrivals *before* sampling
    interval ``t``'s faults, so ``arrival_multiplier`` is evaluated
    for ``last_sampled + 1`` -- exactly the interval whose arrivals
    are about to be drawn.  That makes a surge window ``[start, end)``
    cover precisely the arrivals of those intervals.
    """

    name = CHAOS_MODEL_NAME

    def __init__(self, schedule: ChaosSchedule) -> None:
        self.schedule = schedule
        self._last_sampled = 0
        #: Partition events resolve their severed set once, at their
        #: start interval; resolved sets are cached here per event.
        self._partition_state: Dict[ChaosEvent, Tuple[int, ...]] = {}

    def sample(self, interval, topology, hosts, injector):
        self._last_sampled = interval
        live = _live_hosts(topology, hosts)
        events: List[AttackEvent] = []
        for event in self.schedule.events:
            events.extend(
                event.events_for(interval, live, injector,
                                 self._partition_state)
            )
        return events

    def arrival_multiplier(self) -> float:
        current = self._last_sampled + 1
        factor = 1.0
        for event in self.schedule.events:
            if isinstance(event, ArrivalSurge) and event.active(current):
                factor *= event.multiplier
        return factor
