"""CAROL: the Confidence-Aware Resilience model (Algorithm 2).

Per scheduling interval:

1. start from the engine's topology initialisation (line 4);
2. for each failed broker, apply a random node-shift and run tabu
   search over the node-shift neighbourhood, scoring candidates with
   the GON surrogate through the QoS objective (lines 5-8);
3. when no broker failed, bank the interval's datapoint in the running
   dataset Γ (line 10);
4. compute the confidence ``C = D(M_t, S_t, G_t)``, update the POT
   threshold and fine-tune the GON on Γ only when ``C`` dips below it
   (lines 11-16) -- the parsimonious fine-tuning that gives CAROL its
   low overheads.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np

from ..simulator.detection import FailureReport
from ..telemetry import MetricsRegistry, merge_snapshots
from ..simulator.engine import SystemView
from ..simulator.metrics import IntervalMetrics
from ..simulator.topology import Topology
from .features import GONInput, from_interval
from .gon import GONDiscriminator
from .interface import ResilienceModel
from .nodeshift import neighbours, random_node_shift, reassignment_neighbours
from .objectives import QoSObjective
from .pot import PeakOverThreshold
from .scoring import LocalScorer, SurrogateScorer
from .tabu import batched_objective, tabu_search
from .training import TrainingConfig

__all__ = ["CAROLConfig", "CAROL"]


@dataclass(frozen=True)
class CAROLConfig:
    """CAROL hyper-parameters (paper values as defaults)."""

    #: Surrogate ascent step size, gamma of eq. 1 (paper's best: 1e-3;
    #: one decade higher here -- see TrainingConfig.generation_gamma).
    gamma: float = 1e-2
    #: Ascent iterations per surrogate evaluation during the search.
    surrogate_steps: int = 8
    #: Tabu list size L (paper: 100, Fig. 6c).
    tabu_size: int = 100
    #: Tabu iterations / non-improving patience per failed broker.
    tabu_iterations: int = 4
    tabu_patience: int = 2
    #: Neighbourhood subsample per tabu iteration (tractability bound;
    #: the full neighbourhood is evaluated when smaller than this).
    neighbourhood_sample: int = 24
    #: POT risk and calibration (§III-B).
    pot_risk: float = 2e-2
    pot_calibration: int = 20
    #: Running-dataset capacity and the minimum needed to fine-tune.
    buffer_capacity: int = 200
    min_buffer: int = 8
    #: Fine-tuning passes over Γ per trigger.
    fine_tune_iterations: int = 2
    #: Per-interval topology maintenance (§V-C: "allowing node-shift at
    #: each interval"): on failure-free intervals, up to this many
    #: cheap worker-reassignment candidates are scored against the
    #: incumbent.  0 disables maintenance (strict failure-only repair).
    maintenance_candidates: int = 6
    #: Capacity of the persistent surrogate-score cache (entries).  The
    #: cache is keyed on ``(canonical_key, metrics-hash)`` and survives
    #: across scheduling intervals between fine-tunes; FIFO eviction
    #: bounds its footprint.  0 disables caching entirely.
    score_cache_capacity: int = 4096
    seed: int = 0


@dataclass
class CAROLDiagnostics:
    """Telemetry for the Fig. 2 confidence/threshold visualisation,
    plus the persistent surrogate-cache counters.

    The integer counters live on a per-instance
    :class:`~repro.telemetry.MetricsRegistry` (under ``carol.cache.*``
    and ``carol.fine_tunes``); the legacy attribute reads
    (``cache_hits`` etc.) and the :meth:`counters` keys are preserved
    as aliases.  This registry is deterministic bookkeeping that feeds
    ``RunRecord.diagnostics``, so it stays enabled regardless of the
    process-wide telemetry toggle.
    """

    confidences: List[float] = field(default_factory=list)
    thresholds: List[float] = field(default_factory=list)
    fine_tuned: List[bool] = field(default_factory=list)
    #: Surrogate ascents actually run per interval (cache misses).
    tabu_evaluations: List[int] = field(default_factory=list)
    #: Per-instance registry backing the integer counters.
    telemetry: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: Rolling hash over every repair choice and POT gate outcome --
    #: the decision-parity surface scorer backends are gated on.
    _decision_hash: object = field(
        default_factory=lambda: hashlib.blake2b(digest_size=8), repr=False
    )

    def note_decision(self, kind: str, payload: object) -> None:
        """Fold one decision into the rolling digest.

        ``kind`` tags the decision site (``"repair"``, ``"preventive"``,
        ``"fine_tune"``); ``payload`` is its outcome -- a chosen
        topology's ``canonical_key()`` or the POT gate's bool.  Two runs
        made identical decisions in identical order iff their digests
        match, which is exactly the assertion the kernel-vs-oracle parity
        gate needs without shipping every topology in the record.
        """
        self._decision_hash.update(kind.encode())
        self._decision_hash.update(repr(payload).encode())

    @property
    def decision_digest(self) -> str:
        """Hex digest of all decisions so far (stable across reads)."""
        return self._decision_hash.copy().hexdigest()

    @property
    def cache_hits(self) -> int:
        """Lookups answered by the persistent cross-interval cache."""
        return self.telemetry.counter("carol.cache.hits").value

    @property
    def cache_misses(self) -> int:
        """Lookups that had to run a fresh eq.-1 ascent."""
        return self.telemetry.counter("carol.cache.misses").value

    @property
    def cache_evictions(self) -> int:
        """Entries dropped -- capacity FIFO plus generation flushes."""
        return self.telemetry.counter("carol.cache.evictions").value

    @property
    def n_fine_tunes(self) -> int:
        return sum(self.fine_tuned)

    @property
    def cache_hit_rate(self) -> float:
        """Hits over all lookups since construction (0.0 when idle)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def counters(self) -> dict:
        """The integer telemetry as a plain dict (campaign records).

        Legacy key names -- the registry view of the same values uses
        the namespaced ``carol.*`` metric names.
        """
        return {
            "n_fine_tunes": self.n_fine_tunes,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "decision_digest": self.decision_digest,
        }


class CAROL(ResilienceModel):
    """Confidence-aware resilience model over a trained GON."""

    name = "CAROL"

    def __init__(
        self,
        model: GONDiscriminator,
        alpha: float = 0.5,
        beta: float = 0.5,
        config: Optional[CAROLConfig] = None,
        scorer: Optional[SurrogateScorer] = None,
    ) -> None:
        self.model = model
        self.config = config or CAROLConfig()
        self.objective = QoSObjective(alpha, beta)
        self.pot = PeakOverThreshold(
            risk=self.config.pot_risk,
            calibration_size=self.config.pot_calibration,
        )
        self.rng = np.random.default_rng(self.config.seed)
        # Γ ring buffer: deque(maxlen=...) evicts the oldest datapoint
        # in O(1) instead of the O(n) list.pop(0).
        self.buffer: Deque[GONInput] = deque(maxlen=self.config.buffer_capacity)
        self.diagnostics = CAROLDiagnostics()
        #: Execution backend for GON evaluations; the default runs
        #: in-process, ``repro.serving.FleetScorer`` routes ascents to
        #: a shared cross-federation scoring service.
        self.scorer: SurrogateScorer = (
            scorer if scorer is not None else LocalScorer(model)
        )
        # Persistent surrogate cache: (canonical_key, metrics-hash) ->
        # (objective value, predicted M*).  Entries survive across
        # scheduling intervals and are flushed only when fine-tuning
        # actually changes the model (scorer generation bump).
        self._score_cache: "OrderedDict[tuple, Tuple[float, np.ndarray]]" = (
            OrderedDict()
        )
        self._cache_generation = self.scorer.generation
        # What :meth:`memory_bytes` (run twice per interval) reports
        # without walking the cache: a running total of the cached M*
        # bytes, kept on insert, eviction and flush, and the GON's
        # footprint, fixed because its parameter shapes are.
        self._cache_bytes = 0
        self._model_bytes = self.model.footprint_bytes()
        self._training_config = TrainingConfig(
            generation_gamma=self.config.gamma,
            generation_steps=self.config.surrogate_steps,
            seed=self.config.seed,
        )

    # ------------------------------------------------------------------
    # Persistent surrogate-score cache
    # ------------------------------------------------------------------
    def _context_hash(self, metrics: np.ndarray, schedule: np.ndarray) -> bytes:
        """Digest of the ascent context (warm start ``M`` and ``S``).

        Together with a topology's canonical key this pins down every
        input of the eq.-1 ascent, so equal keys guarantee equal scores
        and cached entries are exact, not approximations.
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(repr(metrics.shape).encode())
        digest.update(metrics.tobytes())
        digest.update(schedule.tobytes())
        return digest.digest()

    def _invalidate_score_cache(self) -> None:
        """Flush every entry (the model changed: scores are stale)."""
        self.diagnostics.telemetry.counter("carol.cache.evictions").add(
            len(self._score_cache)
        )
        self._score_cache.clear()
        self._cache_bytes = 0
        self._cache_generation = self.scorer.generation

    def surrogate_scores(
        self,
        candidates: Sequence[Topology],
        metrics: np.ndarray,
        schedule: np.ndarray,
        ctx: Optional[bytes] = None,
        keys: Optional[Sequence[tuple]] = None,
    ) -> List[Tuple[float, np.ndarray]]:
        """``(objective value, predicted M*)`` per candidate topology.

        All cache-missing candidates are scored in one vectorized eq.-1
        ascent (via :attr:`scorer`, so fleet deployments consolidate
        the stack with other federations); everything else is served
        from the persistent cache.  ``keys`` are optional pre-computed
        canonical keys (tabu search already derives them), ``ctx`` the
        optional pre-computed :meth:`_context_hash`.
        """
        if self._cache_generation != self.scorer.generation:
            self._invalidate_score_cache()
        if ctx is None:
            ctx = self._context_hash(metrics, schedule)
        if keys is None:
            keys = [candidate.canonical_key() for candidate in candidates]

        diag_reg = self.diagnostics.telemetry
        hits = diag_reg.counter("carol.cache.hits")
        misses = diag_reg.counter("carol.cache.misses")
        out: List[Optional[Tuple[float, np.ndarray]]] = [None] * len(keys)
        # Cache-missing keys in first-seen order -> their output slots.
        pending: "OrderedDict[tuple, List[int]]" = OrderedDict()
        for i, key in enumerate(keys):
            full_key = (key, ctx)
            entry = self._score_cache.get(full_key)
            if entry is not None:
                hits.inc()
                out[i] = entry
            elif full_key in pending:
                # Duplicate within this call: one ascent serves both.
                hits.inc()
                pending[full_key].append(i)
            else:
                misses.inc()
                pending[full_key] = [i]

        if pending:
            batch = len(pending)
            first_slots = [slots[0] for slots in pending.values()]
            # Read-only broadcast views: the ascent copies the warm
            # start once and never writes the schedule stack.
            results = self.scorer.ascent(
                np.broadcast_to(metrics, (batch, *metrics.shape)),
                np.broadcast_to(schedule, (batch, *schedule.shape)),
                np.stack([candidates[i].adjacency() for i in first_slots]),
                gamma=self.config.gamma,
                max_steps=self.config.surrogate_steps,
            )
            capacity = self.config.score_cache_capacity
            for (full_key, slots), result in zip(pending.items(), results):
                entry = (float(self.objective(result.metrics)), result.metrics)
                if capacity > 0:  # capacity 0 = caching disabled
                    self._score_cache[full_key] = entry
                    self._cache_bytes += result.metrics.nbytes
                for slot in slots:
                    out[slot] = entry
            evictions = diag_reg.counter("carol.cache.evictions")
            while len(self._score_cache) > capacity:
                _key, (_score, evicted) = self._score_cache.popitem(last=False)
                self._cache_bytes -= evicted.nbytes
                evictions.inc()
        return out  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Alg. 2 lines 4-8: topology repair
    # ------------------------------------------------------------------
    def repair(
        self,
        view: SystemView,
        report: FailureReport,
        proposal: Topology,
    ) -> Topology:
        if view.last_metrics is None:
            # No observations yet (interval 1): nothing to optimise.
            self.diagnostics.tabu_evaluations.append(0)
            self.diagnostics.note_decision("repair", proposal.canonical_key())
            return proposal

        last = view.last_metrics
        metrics = np.asarray(last.host_metrics, dtype=float)
        schedule = np.asarray(last.schedule_encoding, dtype=float)
        ctx = self._context_hash(metrics, schedule)
        misses_before = self.diagnostics.cache_misses

        @batched_objective
        def omega(
            candidates: Sequence[Topology], keys=None
        ) -> List[float]:
            """Objective scores of a graph batch (the paper's Omega).

            Backed by :meth:`surrogate_scores`: cache-missing
            candidates run in one vectorized eq.-1 ascent, and the
            persistent ``(canonical_key, metrics-hash)`` cache carries
            scores across tabu iterations, repair rounds *and*
            scheduling intervals between fine-tunes.  Tabu search hands
            its pre-computed canonical keys through ``keys``.
            """
            return [
                score
                for score, _predicted in self.surrogate_scores(
                    candidates, metrics, schedule, ctx=ctx, keys=keys
                )
            ]

        def sampled_neighbours(topology: Topology) -> List[Topology]:
            options = neighbours(topology)
            limit = self.config.neighbourhood_sample
            if len(options) > limit:
                chosen = self.rng.choice(len(options), size=limit, replace=False)
                options = [options[i] for i in chosen]
            return options

        if report.failed_brokers:
            # Lines 7-8: random node-shift as the search start, once
            # per failed broker, then tabu search.  The engine's
            # initialisation stays the incumbent: a weakly-trained
            # surrogate must beat it to move the topology.
            current, current_key = proposal, None
            for _failed in report.failed_brokers:
                start = random_node_shift(current, self.rng)
                result = tabu_search(
                    start,
                    objective=omega,
                    neighbourhood=sampled_neighbours,
                    tabu_size=self.config.tabu_size,
                    max_iterations=self.config.tabu_iterations,
                    patience=self.config.tabu_patience,
                )
                current, current_key = result.best, result.best_key
            repair_scores = omega(
                [current, proposal],
                keys=[current_key, proposal.canonical_key()],
            )
            chosen = current if repair_scores[0] <= repair_scores[1] else proposal
        elif self.config.maintenance_candidates > 0:
            # Line 4 / §V-C: per-interval node-shift maintenance.
            # Cheap reassignment moves only; the incumbent competes,
            # and the whole slate is scored in one batched ascent.
            options = reassignment_neighbours(proposal)
            limit = self.config.maintenance_candidates
            if len(options) > limit:
                picks = self.rng.choice(len(options), size=limit, replace=False)
                options = [options[i] for i in picks]
            slate = [proposal, *options]
            scores = omega(slate)
            chosen = slate[min(range(len(slate)), key=scores.__getitem__)]
        else:
            chosen = proposal
        # Ascents actually run this interval (misses; hits were free).
        self.diagnostics.tabu_evaluations.append(
            self.diagnostics.cache_misses - misses_before
        )
        self.diagnostics.note_decision("repair", chosen.canonical_key())
        return chosen

    # ------------------------------------------------------------------
    # Alg. 2 lines 10-16: confidence tracking and fine-tuning
    # ------------------------------------------------------------------
    def observe(self, metrics: IntervalMetrics, view: SystemView) -> None:
        sample = from_interval(metrics)
        report = metrics.failure_report
        broker_failed = bool(report and report.failed_brokers)
        if not broker_failed:
            # Line 10: save healthy datapoints into Γ (the deque's
            # maxlen evicts the oldest entry automatically).
            self.buffer.append(sample)

        # Line 11: confidence score of the realised state.
        confidence = self.scorer.confidence(sample)
        # Line 12: POT threshold update.
        threshold = self.pot.update(confidence)

        fine_tuned = False
        if confidence < threshold and len(self.buffer) >= self.config.min_buffer:
            # Lines 14-16: fine-tune on Γ, then clear it.  The scorer
            # bumps its generation, so the persistent score cache is
            # flushed exactly when the model actually changes.
            self.scorer.fine_tune(
                list(self.buffer),
                config=self._training_config,
                iterations=self.config.fine_tune_iterations,
                rng=self.rng,
            )
            self.buffer.clear()
            self._invalidate_score_cache()
            fine_tuned = True
            self.diagnostics.telemetry.counter("carol.fine_tunes").inc()

        self.diagnostics.confidences.append(confidence)
        self.diagnostics.thresholds.append(
            threshold if np.isfinite(threshold) else float("nan")
        )
        self.diagnostics.fine_tuned.append(fine_tuned)
        self.diagnostics.note_decision("fine_tune", fine_tuned)

    # ------------------------------------------------------------------
    def scorer_diagnostics(self) -> dict:
        """The execution backend's counters plus this model's own.

        Flat dict of integer counters (``overlay_installs`` when
        fleet-mounted, the cache counters, ``n_fine_tunes``) plus the
        ``decision_digest`` hex string, surfaced into campaign records
        so fleet runs can assert, e.g., that every fine-tune shipped
        its overlay (``overlay_installs == n_fine_tunes``) and so
        record dumps from different scorer backends can be checked for
        decision parity (``benchmarks/compare_records.py
        --decisions``).
        """
        counters = dict(getattr(self.scorer, "diagnostics", None) or {})
        counters.update(self.diagnostics.counters())
        return counters

    def telemetry_snapshot(self) -> dict:
        """Merged per-instance registries (model + scorer).

        The namespaced (``carol.*`` / ``scorer.*``) registry view of
        :meth:`scorer_diagnostics`; :func:`repro.experiments.campaign.run_cell`
        folds it into the process registry after every cell so campaign
        telemetry aggregates per-model counters fleet-wide.
        """
        snaps = [self.diagnostics.telemetry.snapshot()]
        scorer_registry = getattr(self.scorer, "telemetry", None)
        if scorer_registry is not None:
            snaps.append(scorer_registry.snapshot())
        return merge_snapshots(*snaps)

    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """GON parameters + optimiser moments + Γ + the score cache."""
        buffer_bytes = sum(
            s.metrics.nbytes + s.schedule.nbytes + s.adjacency.nbytes
            for s in self.buffer
        )
        # The persistent cache holds a predicted M* per entry; it is
        # resident broker memory like everything else here, so it
        # enters the Fig. 5e accounting rather than hiding from it.
        return self._model_bytes + buffer_bytes + self._cache_bytes
