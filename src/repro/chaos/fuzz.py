"""Seeded scenario fuzzer: hunt QoS cliffs with random chaos schedules.

The fuzzer samples random :class:`~repro.chaos.schedule.ChaosSchedule`
instances for a base scenario's fleet composition from a
``SeedSequence``-derived stream, evaluates each one through the
existing campaign machinery (serial, process pool or fleet -- the
fuzzer is mode-agnostic because every evaluation is just a campaign),
scores the QoS delta against the unperturbed baseline, and shrinks any
cliff-triggering schedule to a 1-minimal failing event list via
:func:`repro.chaos.shrink.shrink_schedule`.

Reproducibility contract
------------------------

* The schedule stream is a pure function of ``(seed, budget,
  fleet shape, horizon, max_events)`` -- two invocations with the same
  :class:`FuzzConfig` sample byte-identical schedules.
* Every evaluation is a **single-scenario campaign** with the fuzz
  config's ``(seed, n_seeds)``.  ``plan_tasks`` derives per-cell seeds
  from ``SeedSequence(seed).spawn(n_cells)`` -- independent of the
  scenario *name* -- so the baseline, every candidate and every shrink
  probe run under identical per-seed streams: paired-seed comparisons
  for free.
* Candidate scenarios are **content-addressed**
  (``fuzz/<base>/<schedule-hash>``), making the campaign-store corpus
  sound: re-running a fuzz seed against the same store replays cached
  records instead of re-simulating, and any reported schedule replays
  from ``(seed, schedule_json)`` alone.
* Campaign records are bit-identical across execution modes, so the
  scores -- and therefore the shrunk minimal schedules -- are the same
  whether the fuzzer drove a serial loop or a fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..experiments.campaign import CampaignConfig, run_campaign
from ..scenarios import get_scenario, register, unregister
from ..scenarios.spec import ScenarioSpec
from .schedule import (
    ArrivalSurge,
    ChaosSchedule,
    FederationPartition,
    LinkDegrade,
    NodeRecover,
    ZoneBlackout,
)
from .shrink import shrink_schedule

__all__ = [
    "SCHEDULE_ENTROPY",
    "FuzzConfig",
    "FuzzOutcome",
    "FuzzResult",
    "sample_schedule",
    "fuzz_scenario_name",
    "register_fuzz_scenario",
    "evaluation_campaign_config",
    "cliff_score",
    "run_fuzz",
]

#: Domain-separation constant mixed into the schedule ``SeedSequence``
#: so the fuzzer's stream never collides with campaign cell seeds
#: derived from the same user seed.
SCHEDULE_ENTROPY = 0xC4A05


@dataclass(frozen=True)
class FuzzConfig:
    """One fuzzing session: base scenario, budget, seeds, execution."""

    #: Base catalog scenario whose fleet the schedules perturb.
    scenario: str = "paper-default"
    #: Resilience model under test.  DYVERSE by default: a cheap
    #: trained-asset-free heuristic, so fuzzing sweeps stay fast.
    model: str = "DYVERSE"
    #: Number of random schedules to sample and evaluate.
    budget: int = 16
    #: Seeds per evaluation cell (paired across all evaluations).
    n_seeds: int = 1
    #: Root seed: schedules AND campaign cell seeds derive from it.
    seed: int = 0
    #: Evaluation horizon; ``None`` uses the scenario's default.
    n_intervals: Optional[int] = None
    #: Maximum events per sampled schedule.
    max_events: int = 4
    #: QoS-delta score at or above which a schedule counts as a cliff.
    threshold: float = 0.05
    #: Shrink cliff-triggering schedules to 1-minimal form.
    shrink: bool = True
    #: Execution plumbing, passed straight to the campaign configs.
    mode: str = "process"
    workers: int = 1
    service_addr: str = ""
    auth_token: str = ""
    store: str = "memory"
    store_path: str = ""

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.max_events < 1:
            raise ValueError("max_events must be >= 1")
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")
        if self.n_intervals is not None and self.n_intervals < 1:
            raise ValueError("n_intervals must be >= 1")


@dataclass(frozen=True)
class FuzzOutcome:
    """One evaluated schedule: identity, score and (maybe) shrink."""

    index: int
    scenario: str
    schedule: ChaosSchedule
    metrics: Dict[str, float]
    score: float
    cliff: bool
    shrunk: Optional[ChaosSchedule] = None
    shrunk_scenario: str = ""
    shrunk_score: float = 0.0

    def to_payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "index": self.index,
            "scenario": self.scenario,
            "schedule": self.schedule.to_dict(),
            "schedule_hash": self.schedule.content_hash(),
            "metrics": dict(self.metrics),
            "score": self.score,
            "cliff": self.cliff,
        }
        if self.shrunk is not None:
            payload["shrunk"] = {
                "scenario": self.shrunk_scenario,
                "schedule": self.shrunk.to_dict(),
                "schedule_hash": self.shrunk.content_hash(),
                "score": self.shrunk_score,
                "n_events": len(self.shrunk),
            }
        return payload


@dataclass(frozen=True)
class FuzzResult:
    """A full fuzzing session's outcomes, baseline first."""

    config: FuzzConfig
    base_metrics: Dict[str, float]
    outcomes: Tuple[FuzzOutcome, ...]
    #: Oracle evaluations actually simulated (cache misses).
    evaluations: int = 0

    @property
    def cliffs(self) -> List[FuzzOutcome]:
        """Cliff-triggering outcomes, worst first."""
        return sorted(
            (o for o in self.outcomes if o.cliff),
            key=lambda o: (-o.score, o.index),
        )

    def to_payload(self) -> Dict[str, object]:
        return {
            "config": {
                "scenario": self.config.scenario,
                "model": self.config.model,
                "budget": self.config.budget,
                "n_seeds": self.config.n_seeds,
                "seed": self.config.seed,
                "n_intervals": self.config.n_intervals,
                "max_events": self.config.max_events,
                "threshold": self.config.threshold,
                "shrink": self.config.shrink,
                "mode": self.config.mode,
                "workers": self.config.workers,
                # auth_token is intentionally absent: fuzz reports are
                # shared artifacts and must never carry credentials.
            },
            "base_metrics": dict(self.base_metrics),
            "outcomes": [o.to_payload() for o in self.outcomes],
            "n_cliffs": sum(1 for o in self.outcomes if o.cliff),
            "evaluations": self.evaluations,
        }


# ----------------------------------------------------------------------
# Schedule sampling
# ----------------------------------------------------------------------

_KINDS = (
    "zone_blackout",
    "link_degrade",
    "node_recover",
    "federation_partition",
    "arrival_surge",
)


def _sample_event(
    rng: np.random.Generator, kind: str, n_hosts: int, horizon: int
):
    start = int(rng.integers(1, horizon + 1))
    max_duration = max(1, min(horizon // 3, horizon + 1 - start))
    duration = int(rng.integers(1, max_duration + 1))
    if kind == "zone_blackout":
        zone_size = 4 if n_hosts >= 4 else n_hosts
        zone = int(rng.integers(0, max(1, n_hosts // zone_size)))
        return ZoneBlackout(
            start=start, duration=duration, zone=zone, zone_size=zone_size
        )
    if kind == "link_degrade":
        k = int(rng.integers(1, max(2, n_hosts // 2) + 1))
        hosts = tuple(
            int(h) for h in rng.choice(n_hosts, size=k, replace=False)
        )
        intensity = round(float(rng.uniform(0.3, 0.9)), 4)
        return LinkDegrade(
            start=start, duration=duration, hosts=hosts, intensity=intensity
        )
    if kind == "node_recover":
        k = int(rng.integers(1, max(2, n_hosts // 2) + 1))
        hosts = tuple(
            int(h) for h in rng.choice(n_hosts, size=k, replace=False)
        )
        return NodeRecover(start=start, duration=1, hosts=hosts)
    if kind == "federation_partition":
        fraction = round(float(rng.uniform(0.2, 0.6)), 4)
        return FederationPartition(
            start=start, duration=duration, fraction=fraction
        )
    if kind == "arrival_surge":
        multiplier = round(float(rng.uniform(2.0, 6.0)), 4)
        return ArrivalSurge(
            start=start, duration=duration, multiplier=multiplier
        )
    raise ValueError(f"unknown event kind {kind!r}")


def sample_schedule(
    rng: np.random.Generator,
    n_hosts: int,
    horizon: int,
    max_events: int,
) -> ChaosSchedule:
    """Draw one random valid schedule for an ``n_hosts`` fleet.

    Events are drawn one at a time; a draw that would violate the
    schedule invariants (same-kind scope overlap) is discarded, which
    keeps sampling deterministic -- rejection consumes no extra
    randomness beyond the rejected draw itself.
    """
    n_events = int(rng.integers(1, max_events + 1))
    events: List = []
    for _ in range(n_events):
        kind = str(rng.choice(_KINDS))
        candidate = _sample_event(rng, kind, n_hosts, horizon)
        try:
            ChaosSchedule(tuple(events) + (candidate,))
        except ValueError:
            continue
        events.append(candidate)
    if not events:
        # Every draw collided; keep the first alone (always valid).
        events.append(_sample_event(rng, str(rng.choice(_KINDS)),
                                    n_hosts, horizon))
    return ChaosSchedule(tuple(events))


def schedule_stream(config: FuzzConfig, n_hosts: int, horizon: int):
    """The session's schedules, one per budget slot (deterministic)."""
    root = np.random.SeedSequence([int(config.seed), SCHEDULE_ENTROPY])
    return [
        sample_schedule(
            np.random.default_rng(child), n_hosts, horizon, config.max_events
        )
        for child in root.spawn(config.budget)
    ]


# ----------------------------------------------------------------------
# Evaluation oracle
# ----------------------------------------------------------------------

def fuzz_scenario_name(base: str, schedule: ChaosSchedule) -> str:
    """Content-addressed name: same schedule, same identity, any run."""
    return f"fuzz/{base}/{schedule.short_id()}"


def register_fuzz_scenario(
    base_spec: ScenarioSpec, schedule: ChaosSchedule
) -> str:
    """Register (idempotently) the base spec perturbed by ``schedule``."""
    name = fuzz_scenario_name(base_spec.name, schedule)
    register(
        base_spec.with_overrides(
            name=name,
            description=(
                f"fuzzed chaos variant of {base_spec.name!r} "
                f"({len(schedule)} events, {schedule.short_id()})"
            ),
            chaos=schedule,
            tags=tuple(base_spec.tags) + ("fuzz",),
        ),
        overwrite=True,
    )
    return name


def evaluation_campaign_config(
    config: FuzzConfig, scenario: str
) -> CampaignConfig:
    """The single-scenario campaign evaluating one (maybe fuzzed) spec.

    Single-scenario on purpose: per-cell seeds depend only on
    ``(seed, n_cells)``, so every oracle call runs paired seeds.
    """
    return CampaignConfig(
        scenarios=(scenario,),
        models=(config.model,),
        n_seeds=config.n_seeds,
        workers=config.workers,
        seed=config.seed,
        n_intervals=config.n_intervals,
        mode=config.mode,
        service_addr=config.service_addr,
        shared_assets=(config.mode == "fleet"),
        auth_token=config.auth_token,
        store=config.store,
        store_path=config.store_path,
    )


def cliff_score(
    base: Dict[str, float],
    perturbed: Dict[str, float],
    horizon_seconds: float,
) -> float:
    """Scalar QoS-degradation score of a schedule vs the baseline.

    Additive mix of the three cliff surfaces, each normalised to a
    comparable scale: the SLO-violation-rate delta (already in [0, 1]),
    half the relative response-time regression, and the downtime delta
    as a fraction of total fleet-time.  Zero for a no-op schedule
    (paired seeds make the comparison exact); ``threshold`` cuts cliffs
    out of this score.
    """
    slo = perturbed["slo_violation_rate"] - base["slo_violation_rate"]
    resp = (
        perturbed["response_time_s"] - base["response_time_s"]
    ) / max(base["response_time_s"], 1e-9)
    down = (
        perturbed["downtime_s"] - base["downtime_s"]
    ) / max(horizon_seconds, 1e-9)
    return float(slo + 0.5 * resp + down)


# ----------------------------------------------------------------------
# The fuzzing session
# ----------------------------------------------------------------------

def run_fuzz(
    config: FuzzConfig,
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzResult:
    """Sample, evaluate, score and shrink; returns the full session.

    ``progress`` (e.g. ``print``) receives one line per milestone;
    the function itself never writes to stdout.
    """
    say = progress or (lambda _line: None)
    base_spec = get_scenario(config.scenario)
    horizon = (
        config.n_intervals if config.n_intervals is not None
        else base_spec.n_intervals
    )
    horizon_seconds = horizon * base_spec.interval_seconds

    schedules = schedule_stream(config, base_spec.n_hosts, horizon)

    #: Oracle cache: schedule content hash -> mean metrics.  Makes
    #: repeated shrink probes free and deduplicates identical samples.
    cache: Dict[str, Dict[str, float]] = {}
    counter = {"evaluations": 0}

    def evaluate(schedule: Optional[ChaosSchedule]) -> Dict[str, float]:
        if schedule is None:
            scenario = config.scenario
            key = ""
        else:
            scenario = register_fuzz_scenario(base_spec, schedule)
            key = schedule.content_hash()
        try:
            if key in cache:
                return cache[key]
            counter["evaluations"] += 1
            result = run_campaign(
                evaluation_campaign_config(config, scenario)
            )
            metrics = result.mean_metrics(scenario, config.model)
            cache[key] = metrics
            return metrics
        finally:
            # Ephemeral registrants leave the catalog as they found
            # it; only the campaign run above needs the name resolvable.
            if schedule is not None:
                unregister(scenario)

    base_metrics = evaluate(None)
    say(
        f"baseline {config.scenario!r} x{config.n_seeds} seeds: "
        f"slo={base_metrics['slo_violation_rate']:.4f} "
        f"resp={base_metrics['response_time_s']:.1f}s"
    )

    def fails(schedule: ChaosSchedule) -> bool:
        metrics = evaluate(schedule)
        return (
            cliff_score(base_metrics, metrics, horizon_seconds)
            >= config.threshold
        )

    outcomes: List[FuzzOutcome] = []
    for index, schedule in enumerate(schedules):
        metrics = evaluate(schedule)
        score = cliff_score(base_metrics, metrics, horizon_seconds)
        cliff = score >= config.threshold
        shrunk = None
        shrunk_name = ""
        shrunk_score = 0.0
        say(
            f"[{index + 1}/{config.budget}] "
            f"{fuzz_scenario_name(config.scenario, schedule)} "
            f"events={len(schedule)} score={score:+.4f}"
            f"{' CLIFF' if cliff else ''}"
        )
        if cliff and config.shrink:
            shrunk = shrink_schedule(schedule, fails)
            shrunk_name = fuzz_scenario_name(config.scenario, shrunk)
            shrunk_score = cliff_score(
                base_metrics, evaluate(shrunk), horizon_seconds
            )
            say(
                f"    shrunk {len(schedule)} -> {len(shrunk)} events "
                f"({shrunk_name}, score={shrunk_score:+.4f})"
            )
        outcomes.append(FuzzOutcome(
            index=index,
            scenario=fuzz_scenario_name(config.scenario, schedule),
            schedule=schedule,
            metrics=metrics,
            score=score,
            cliff=cliff,
            shrunk=shrunk,
            shrunk_scenario=shrunk_name,
            shrunk_score=shrunk_score,
        ))

    return FuzzResult(
        config=config,
        base_metrics=base_metrics,
        outcomes=tuple(outcomes),
        evaluations=counter["evaluations"],
    )
