"""Campaign runner: scenario x model x seed grids across processes.

A *campaign* evaluates resilience models over the declarative scenario
catalog (:mod:`repro.scenarios`).  The grid is flattened into
independent :class:`RunTask` cells, each cell derives its own seed from
an ``np.random.SeedSequence.spawn`` child (independent, reproducible
streams -- never a shared or offset seed), and cells execute either
serially or fanned across worker processes with
:class:`concurrent.futures.ProcessPoolExecutor`.

Because each cell is a pure function of its task description, campaign
results are **bit-identical regardless of worker count** -- the
property `tests/test_campaign.py` asserts.  To keep that guarantee,
runs execute with ``edge_slowdown=0`` (no wall-clock feedback into the
simulation) and only deterministic metrics enter the records; the
wall-clock cost metrics of Fig. 5 remain the business of
:mod:`repro.experiments.fig5_comparison`.

Cell identity and the config hash
---------------------------------
Every cell has a canonical id: ``(config_hash, scenario, model,
seed_index)``.  The within-campaign half, ``(scenario, model,
seed_index)``, names a grid position -- :func:`plan_tasks` derives the
cell's run seed from the campaign root ``SeedSequence`` and the cell's
fixed position, so the id fully determines the record.  The campaign
half, :func:`campaign_config_hash`, is the SHA-256 of
:func:`campaign_grid_identity`: exactly the
:class:`CampaignConfig` fields that can change record *content*
(:data:`GRID_IDENTITY_FIELDS` -- grid axes, root seed, interval and
offline-training sizes, ``shared_assets``, ``carol_overrides``, the
``scorer_backend``), plus each scenario's full
:meth:`ScenarioSpec.to_dict` and :data:`RECORD_SEMANTICS_VERSION`,
and **deliberately not** the execution-topology fields (``workers``,
``mode``, ``transport``, ``service_addr``, timeouts, retry budget,
credentials, the store settings themselves), because the cross-mode
bit-identity contract guarantees those cannot change a record.  Two
configs with equal hashes therefore produce byte-identical records --
which is what lets a :mod:`repro.storage` store substitute a stored
record for a re-run (*resume*), and why any change to the identity
fields (or to this hashing scheme itself) starts a fresh campaign
instead of resuming: the old records no longer describe the new grid.


Execution modes
---------------
``mode="process"`` (the classic path) fans cells across a
``ProcessPoolExecutor``; with ``shared_assets=True`` the offline
CAROL-family assets (trace + trained GON) are prepared once per
scenario in the parent -- seeded from the campaign root, not the run
seed -- and shipped to workers as pickled copies.  ``mode="fleet"``
(which implies shared assets) instead packs those assets *once*,
serves them over TCP, and runs lightweight simulation workers that
feed one batched GON scoring service -- see
:mod:`repro.serving` and :mod:`repro.experiments.fleet`.  The
bit-identity guarantee extends across all modes at equal
``shared_assets``: serial, process-pool and fleet execution of the
same grid produce identical records.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry as _telemetry
from ..core import CAROLConfig, TrainingConfig
from ..scenarios import ScenarioSpec, build_topology, get_scenario
from ..simulator.engine import EdgeFederation
from .calibration import (
    ABLATION_NAMES,
    BASELINE_NAMES,
    PROACTIVE_NAME,
    TrainedAssets,
    build_model,
    prepare_assets,
)
from .report import format_table
from .runner import run_experiment

__all__ = [
    "DETERMINISTIC_METRICS",
    "GRID_IDENTITY_FIELDS",
    "CampaignConfig",
    "RunTask",
    "RunRecord",
    "CampaignResult",
    "campaign_config_hash",
    "campaign_grid_identity",
    "canonical_model_name",
    "cell_carol_config",
    "plan_tasks",
    "prepare_campaign_assets",
    "record_from_payload",
    "record_to_payload",
    "run_campaign",
    "ci_campaign_config",
    "fleet_ci_campaign_config",
]

#: Summary keys that are pure functions of (scenario, model, seed) --
#: free of wall-clock measurement -- and therefore enter campaign
#: records and the parallel == serial bit-identity guarantee.
DETERMINISTIC_METRICS = (
    "energy_kwh",
    "response_time_s",
    "slo_violation_rate",
    "completed_tasks",
    "downtime_s",
)

#: Models whose construction consumes offline-trained assets.
_CAROL_FAMILY = ("CAROL", PROACTIVE_NAME, *ABLATION_NAMES)

# Campaign-level telemetry: every execution mode funnels through
# :func:`run_cell`, so these fire identically in serial, process-pool
# and fleet workers (fleet workers ship them onward as STATS frames).
_CELL_SPAN = _telemetry.span("campaign.cell")
_CELLS_STARTED = _telemetry.counter("campaign.cells_started")
_CELLS_COMPLETED = _telemetry.counter("campaign.cells_completed")
#: Cells restored from a campaign store instead of re-executed.  Same
#: name as the coordinator-side counter: the serve process counts
#: cells it never leases, a campaign parent counts records it never
#: re-runs -- both are "work the store saved us".
_CELLS_RESUMED = _telemetry.counter("fleet.cells_resumed")

_MODEL_LOOKUP = {
    name.lower(): name
    for name in ("CAROL", PROACTIVE_NAME, *BASELINE_NAMES, *ABLATION_NAMES)
}
#: Convenience alias: ``--models proactive`` means the §VI scheme.
_MODEL_LOOKUP["proactive"] = PROACTIVE_NAME


def canonical_model_name(name: str) -> str:
    """Resolve a case-insensitive model name to its canonical form."""
    canonical = _MODEL_LOOKUP.get(name.strip().lower())
    if canonical is None:
        raise ValueError(
            f"unknown model {name!r}; "
            f"known: {sorted(set(_MODEL_LOOKUP.values()))}"
        )
    return canonical


@dataclass(frozen=True)
class CampaignConfig:
    """A scenario x model x seed evaluation grid."""

    scenarios: Tuple[str, ...]
    models: Tuple[str, ...] = ("CAROL",)
    #: Independent repetitions per (scenario, model) cell.
    n_seeds: int = 1
    #: Worker processes; 1 runs serially in-process.
    workers: int = 1
    #: Root entropy of the campaign; every run seed descends from it.
    seed: int = 0
    #: Override for each scenario's default evaluation length.
    n_intervals: Optional[int] = None
    #: Offline-training sizes for CAROL-family runs (CI-scale defaults).
    trace_intervals: int = 40
    gon_hidden: int = 24
    gon_layers: int = 2
    gon_epochs: int = 6
    #: Execution backend: "process" fans runs across a process pool;
    #: "fleet" runs simulation workers against one shared batched GON
    #: scoring service (implies ``shared_assets``).
    mode: str = "process"
    #: Fleet plumbing.  ``"tcp"`` is the only transport: the service
    #: frames its request/reply dataclasses over sockets
    #: (:mod:`repro.serving.wire`), so workers may live on other
    #: machines.  Kept as a field so configs that name it still load.
    transport: str = "tcp"
    #: Fleet only: ``"host:port"`` of an externally hosted scoring
    #: service (``python -m repro serve``).  When set, this campaign
    #: spawns only simulation workers -- they connect to the remote
    #: service and fetch the offline assets over the socket, so no
    #: local asset training happens here.  Empty means self-host on an
    #: ephemeral localhost port.
    service_addr: str = ""
    #: Prepare CAROL-family offline assets once per scenario (seeded
    #: from the campaign root) instead of once per run.  Changes what
    #: CAROL-family records contain -- it is part of the grid spec, so
    #: serial == process == fleet holds at equal ``shared_assets``.
    shared_assets: bool = False
    #: Extra :class:`~repro.core.CAROLConfig` fields applied to every
    #: CAROL-family cell, as ``((field, value), ...)`` pairs (hashable
    #: and picklable).  Part of the grid spec, so the serial == process
    #: == fleet bit-identity contract covers it -- e.g.
    #: ``(("pot_calibration", 5),)`` makes short grids open the POT
    #: gate and exercise fine-tuning (the overlay path in fleet mode).
    carol_overrides: Tuple[Tuple[str, object], ...] = ()
    #: GON kernel arithmetic for CAROL-family cells (every ascent runs
    #: on the graph-free :mod:`repro.core.fastscore` kernel):
    #: ``"fast"`` (default, float64, bitwise-equal to the autodiff
    #: oracle) or ``"fast32"`` (float32 decision scoring).  In fleet mode the
    #: scoring service adopts the same backend.
    scorer_backend: str = "fast"
    #: Elastic-fleet liveness: a worker whose last frame (heartbeat
    #: ``Ping`` included) is older than this many seconds is declared
    #: lost and its leased cells re-queued.  0 disables the age check
    #: (socket EOFs still fire).
    heartbeat_timeout: float = 30.0
    #: Distinct failed attempts a cell gets before it is quarantined
    #: as *poisoned* -- reported, never retried again.  A poison cell
    #: that kept killing workers must not sink the whole campaign.
    cell_retry_budget: int = 3
    #: Pre-shared fleet auth token: workers send it in their ``Hello``
    #: and the service rejects mismatches before ``Welcome``.  Empty
    #: disables the check.  Deliberately excluded from
    #: :meth:`CampaignResult.to_payload` -- secrets never enter record
    #: dumps.
    auth_token: str = ""
    #: Campaign record store backend (:mod:`repro.storage`):
    #: ``"memory"`` (default) keeps the historical in-process
    #: semantics -- nothing persists, nothing resumes; ``"sqlite"``
    #: persists every finished cell to ``store_path`` as it completes
    #: and *resumes* on re-run: cells already stored under this
    #: config's :func:`campaign_config_hash` are restored instead of
    #: re-executed (counted in ``fleet.cells_resumed``).  Execution
    #: detail, not grid identity: the store never changes a record.
    store: str = "memory"
    #: Database path for ``store="sqlite"`` (created on first use).
    store_path: str = ""

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ValueError("campaign needs at least one scenario")
        if not self.models:
            raise ValueError("campaign needs at least one model")
        if self.n_seeds < 1:
            raise ValueError("n_seeds must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.n_intervals is not None and self.n_intervals < 1:
            raise ValueError("n_intervals override must be >= 1")
        if self.trace_intervals < 1:
            raise ValueError("trace_intervals must be >= 1")
        if self.heartbeat_timeout < 0:
            raise ValueError("heartbeat_timeout must be >= 0 (0 disables)")
        if self.cell_retry_budget < 1:
            raise ValueError("cell_retry_budget must be >= 1")
        if self.mode not in ("process", "fleet"):
            raise ValueError(
                f"unknown campaign mode {self.mode!r}; "
                "expected 'process' or 'fleet'"
            )
        # One source of truth for backend names (storage is stdlib-only
        # and cheap to import, unlike the serving/nn stacks below).
        from ..storage import STORE_KINDS

        if self.store not in STORE_KINDS:
            raise ValueError(
                f"unknown campaign store {self.store!r}; "
                f"expected one of {STORE_KINDS}"
            )
        if self.store == "sqlite" and not self.store_path:
            raise ValueError(
                "store='sqlite' requires store_path (the database file)"
            )
        if self.store_path and self.store != "sqlite":
            raise ValueError(
                "store_path requires store='sqlite' (the memory store "
                "has nothing to point at)"
            )
        # One source of truth for backend names (lazy for symmetry with
        # the address check below: core.scoring pulls the nn stack).
        from ..core.scoring import validate_backend

        validate_backend(self.scorer_backend)
        if self.transport != "tcp":
            raise ValueError(
                f"unknown fleet transport {self.transport!r}; TCP "
                "('tcp') is the only transport"
            )
        if self.service_addr:
            if self.mode != "fleet":
                raise ValueError(
                    "service_addr requires mode='fleet' (only fleet "
                    "campaigns route scoring through a service)"
                )
            # One source of truth for what a valid address looks like
            # (imported lazily: serving pulls in the nn stack).
            from ..serving.transports import TransportError, parse_address

            try:
                parse_address(self.service_addr)
            except TransportError as error:
                raise ValueError(str(error)) from None
        known_fields = {f.name for f in fields(CAROLConfig)}
        for name, _value in self.carol_overrides:
            if name == "seed":
                # The CAROL seed is derived from each cell's run seed
                # (the cross-mode bit-identity contract); overriding it
                # campaign-wide would both break that contract and
                # collide with the seed= kwarg in cell_carol_config.
                raise ValueError(
                    "carol_overrides cannot override 'seed'; per-run "
                    "seeds derive from the campaign root SeedSequence"
                )
            if name not in known_fields:
                raise ValueError(
                    f"unknown CAROLConfig field {name!r} in "
                    f"carol_overrides; known: {sorted(known_fields)}"
                )
        if self.mode == "fleet" and not self.shared_assets:
            # Fleet consolidation requires one published weight set per
            # scenario; per-run training would give every run a private
            # model and nothing to share.
            object.__setattr__(self, "shared_assets", True)


#: The :class:`CampaignConfig` fields that define a campaign's *record
#: identity* -- everything that can change what a record contains.
#: Execution topology (workers/mode/transport/service_addr/timeouts/
#: retry budget/auth/store settings) is deliberately excluded: the
#: cross-mode bit-identity contract guarantees those fields cannot
#: change a record, so they must not invalidate a resume.  Adding a
#: field that affects record content without listing it here would
#: silently resume across genuinely different campaigns -- the
#: config-hash tests in ``tests/test_storage.py`` guard the split.
GRID_IDENTITY_FIELDS = (
    "scenarios",
    "models",
    "n_seeds",
    "seed",
    "n_intervals",
    "trace_intervals",
    "gon_hidden",
    "gon_layers",
    "gon_epochs",
    "shared_assets",
    "carol_overrides",
    "scorer_backend",
)

#: Version of what a record *means* for a fixed grid identity: bump it
#: in any change that alters record content for an unchanged config
#: (simulator semantics, decision logic, metric definitions), so stores
#: written before the change refuse to resume into the new code.
#: Version 2: eq.-1 ascents always run their full step count (version
#: 1 could stop an element early on an update-norm tolerance).
RECORD_SEMANTICS_VERSION = 2


def campaign_grid_identity(config: "CampaignConfig") -> Dict[str, object]:
    """The JSON-safe grid-identity payload (the hashing surface).

    Model names are canonicalized first, so ``--models carol``/``--models
    CAROL`` hash (and therefore resume) identically; ``fast32`` changes
    records and hashes apart from ``fast``.  Scenarios enter by *content* -- their
    :meth:`ScenarioSpec.to_dict` -- so editing a catalog entry refuses
    to resume under its old name, and :data:`RECORD_SEMANTICS_VERSION`
    does the same for record-changing code.
    """
    return {
        "scenarios": list(config.scenarios),
        "models": [canonical_model_name(m) for m in config.models],
        "n_seeds": config.n_seeds,
        "seed": config.seed,
        "n_intervals": config.n_intervals,
        "trace_intervals": config.trace_intervals,
        "gon_hidden": config.gon_hidden,
        "gon_layers": config.gon_layers,
        "gon_epochs": config.gon_epochs,
        "shared_assets": config.shared_assets,
        "carol_overrides": [
            [name, value] for name, value in config.carol_overrides
        ],
        "scorer_backend": config.scorer_backend,
        "scenario_specs": [
            get_scenario(name).to_dict() for name in config.scenarios
        ],
        "record_semantics": RECORD_SEMANTICS_VERSION,
    }


def campaign_config_hash(config: "CampaignConfig") -> str:
    """SHA-256 over the canonical grid identity: the campaign's name in
    every :mod:`repro.storage` store.

    Changing any :data:`GRID_IDENTITY_FIELDS` value changes the hash
    and thereby *invalidates resume on purpose*: records stored under
    the old hash describe a different grid, so a re-run must start
    fresh rather than restore them.
    """
    from ..storage import hash_payload

    return hash_payload(campaign_grid_identity(config))


@dataclass(frozen=True)
class RunTask:
    """One grid cell, self-contained and picklable for worker processes.

    ``spec`` is the resolved scenario, shipped with the task so worker
    processes never consult the parent's registry -- user-registered
    scenarios work even on spawn-based platforms whose workers only
    re-import the built-in catalog.  ``seed_sequence`` is this run's
    private ``SeedSequence`` child; the run seed is derived from it
    alone, so results do not depend on which worker executes the cell
    or in what order.
    """

    run_index: int
    scenario: str
    spec: ScenarioSpec
    model: str
    seed_index: int
    seed_sequence: np.random.SeedSequence
    n_intervals: Optional[int]
    trace_intervals: int
    gon_hidden: int
    gon_layers: int
    gon_epochs: int
    #: CAROLConfig field overrides for CAROL-family cells (see
    #: :attr:`CampaignConfig.carol_overrides`).
    carol_overrides: Tuple[Tuple[str, object], ...] = ()
    #: Kernel arithmetic for this cell's scorer (see
    #: :attr:`CampaignConfig.scorer_backend`).
    scorer_backend: str = "fast"


@dataclass(frozen=True)
class RunRecord:
    """The deterministic outcome of one grid cell."""

    run_index: int
    scenario: str
    model: str
    seed_index: int
    #: The integer seed actually used for the run.
    seed: int
    metrics: Dict[str, float]
    #: Execution telemetry (scorer overlay counters, cache
    #: and fine-tune counts).  Deliberately excluded from :meth:`row`:
    #: it describes *how* the cell executed, not the deterministic
    #: outcome, so the cross-mode bit-identity contract ignores it
    #: (a fleet record legitimately reports overlay installs where its
    #: serial twin has none).
    diagnostics: Dict[str, int] = field(default_factory=dict)

    def row(self) -> Dict[str, object]:
        """Tidy-format row: identity columns plus one column per metric."""
        row: Dict[str, object] = {
            "scenario": self.scenario,
            "model": self.model,
            "seed_index": self.seed_index,
            "seed": self.seed,
        }
        row.update(self.metrics)
        return row


def record_to_payload(record: RunRecord) -> Dict[str, object]:
    """One record as a JSON-safe dict, in ``--record-json`` row shape.

    Exactly the shape :meth:`CampaignResult.to_payload` emits per
    record (identity + flattened metric columns + ``run_index`` +
    ``diagnostics``), so stored cells, record dumps and
    ``benchmarks/compare_records.py`` all speak one format.
    """
    return {
        **record.row(),
        "run_index": record.run_index,
        "diagnostics": dict(record.diagnostics),
    }


def record_from_payload(payload: Dict[str, object]) -> RunRecord:
    """Rebuild a :class:`RunRecord` from its stored payload.

    The inverse of :func:`record_to_payload`; because JSON floats
    round-trip via ``repr``, the restored metrics are bit-identical to
    the originals (asserted by ``tests/test_storage.py``).  A payload
    missing a :data:`DETERMINISTIC_METRICS` column fails loudly -- it
    was stored by an incompatible (older/newer) record schema.
    """
    try:
        metrics = {
            key: float(payload[key]) for key in DETERMINISTIC_METRICS
        }
    except KeyError as error:
        raise ValueError(
            f"stored record lacks metric column {error.args[0]!r}; it was "
            "written by an incompatible record schema"
        ) from None
    diagnostics = {
        key: value if isinstance(value, str) else int(value)
        for key, value in (payload.get("diagnostics") or {}).items()
    }
    return RunRecord(
        run_index=int(payload["run_index"]),
        scenario=str(payload["scenario"]),
        model=str(payload["model"]),
        seed_index=int(payload["seed_index"]),
        seed=int(payload["seed"]),
        metrics=metrics,
        diagnostics=diagnostics,
    )


#: Entropy constant separating shared-asset seeds from the per-cell
#: ``SeedSequence.spawn`` stream (both descend from the campaign seed).
_ASSET_ENTROPY = 0x5CA1AB1E


def _asset_seed(config: CampaignConfig, scenario: str) -> int:
    """Deterministic offline-training seed for a scenario's shared assets."""
    index = config.scenarios.index(scenario)
    sequence = np.random.SeedSequence([config.seed, _ASSET_ENTROPY, index])
    return int(sequence.generate_state(1, dtype=np.uint32)[0])


def prepare_campaign_assets(
    config: CampaignConfig,
    tasks: Optional[Sequence[RunTask]] = None,
) -> Dict[str, TrainedAssets]:
    """Shared offline assets, one per scenario that needs them.

    Collects the DeFog trace and trains the GON *once* per scenario --
    the consolidation ``shared_assets`` buys over per-run training.
    The asset seed derives from the campaign root and the scenario's
    position, so the result is a pure function of the campaign config.
    Exposed separately so benches and tests can time campaign
    execution apart from offline training (pass the result to
    :func:`run_campaign` via ``prepared_assets``).
    """
    tasks = plan_tasks(config) if tasks is None else tasks
    needed = sorted(
        {task.scenario for task in tasks if task.model in _CAROL_FAMILY}
    )
    assets: Dict[str, TrainedAssets] = {}
    for scenario in needed:
        seed = _asset_seed(config, scenario)
        scenario_config = get_scenario(scenario).compile(seed=seed)
        assets[scenario] = prepare_assets(
            scenario_config,
            trace_intervals=config.trace_intervals,
            gon_hidden=config.gon_hidden,
            gon_layers=config.gon_layers,
            training=TrainingConfig(
                epochs=config.gon_epochs, batch_size=16,
                learning_rate=1e-3, generation_steps=20, seed=seed,
            ),
        )
    return assets


def cell_carol_config(task: RunTask, config) -> CAROLConfig:
    """The CAROL hyper-parameters of one grid cell.

    Seeded from the compiled run config and extended with the
    campaign's ``carol_overrides`` -- shared by the process and fleet
    builders so the override surface cannot drift between modes.
    """
    return CAROLConfig(seed=config.seed, **dict(task.carol_overrides))


def run_cell(task: RunTask, model_factory) -> RunRecord:
    """The shared tail of every execution mode for one grid cell.

    Seed derivation, scenario compilation, federation construction,
    the run itself and the record assembly live here exactly once:
    process and fleet execution differ only in the ``model_factory``
    (``(config, run_seed) -> ResilienceModel``), which is what keeps
    the cross-mode bit-identity contract honest by construction.
    """
    spec = task.spec
    run_seed = int(task.seed_sequence.generate_state(1, dtype=np.uint32)[0])
    config = spec.compile(seed=run_seed, n_intervals=task.n_intervals)
    _CELLS_STARTED.inc()
    with _CELL_SPAN.time():
        model = model_factory(config, run_seed)
        federation = EdgeFederation(config, topology=build_topology(spec))
        result = run_experiment(
            model, config, federation=federation, edge_slowdown=0.0
        )
    summary = result.summary()
    # CAROL-family models expose their scorer/cache counters (plus the
    # decision_digest hex string); pure heuristics have no execution
    # telemetry to report.
    diagnostics_source = getattr(model, "scorer_diagnostics", None)
    diagnostics = (
        {
            key: value if isinstance(value, str) else int(value)
            for key, value in diagnostics_source().items()
        }
        if callable(diagnostics_source)
        else {}
    )
    # Fold the model's per-instance registries (carol.* / scorer.*)
    # into the process-wide view so campaign snapshots see them.  Pure
    # observation: the record below is already assembled from the
    # deterministic summary, so telemetry cannot feed back into it.
    if _telemetry.is_enabled():
        snapshot_source = getattr(model, "telemetry_snapshot", None)
        if callable(snapshot_source):
            _telemetry.get_registry().merge_snapshot(snapshot_source())
    _CELLS_COMPLETED.inc()
    return RunRecord(
        run_index=task.run_index,
        scenario=task.scenario,
        model=task.model,
        seed_index=task.seed_index,
        seed=run_seed,
        metrics={key: float(summary[key]) for key in DETERMINISTIC_METRICS},
        diagnostics=diagnostics,
    )


def _execute_run(
    task: RunTask, assets: Optional[TrainedAssets] = None
) -> RunRecord:
    """Run one grid cell end to end (executed inside worker processes).

    ``assets`` carries the scenario's shared offline assets when the
    campaign runs with ``shared_assets``; otherwise CAROL-family cells
    train their own from the run seed (the classic per-run path).
    """

    def build(config, run_seed):
        cell_assets = assets
        if cell_assets is None and task.model in _CAROL_FAMILY:
            cell_assets = prepare_assets(
                config,
                trace_intervals=task.trace_intervals,
                gon_hidden=task.gon_hidden,
                gon_layers=task.gon_layers,
                training=TrainingConfig(
                    epochs=task.gon_epochs, batch_size=16,
                    learning_rate=1e-3, generation_steps=20, seed=run_seed,
                ),
            )
        return build_model(
            task.model, cell_assets, config,
            carol_config=cell_carol_config(task, config),
            scorer_backend=task.scorer_backend,
        )

    return run_cell(task, build)


def _execute_run_telemetry(
    task: RunTask, assets: Optional[TrainedAssets] = None
) -> Tuple[RunRecord, dict]:
    """:func:`_execute_run` plus this cell's process-registry delta.

    The delta (not a raw snapshot) is what crosses the process
    boundary: pool workers persist across cells and fork-inherited
    registries carry parent state, so only the difference attributable
    to this cell merges into the campaign view without double counting.
    """
    before = _telemetry.snapshot()
    record = _execute_run(task, assets)
    return record, _telemetry.delta(before)


def plan_tasks(config: CampaignConfig) -> List[RunTask]:
    """Flatten the grid into tasks with independent spawned seeds.

    The root ``SeedSequence`` spawns one child per cell in a fixed
    (scenario, model, seed_index) order, so the plan -- and therefore
    every run seed -- is a pure function of the campaign config.
    """
    # Resolve names up front: fails fast on typos, and freezes the
    # specs into the tasks (worker registries may lack user scenarios).
    specs = {name: get_scenario(name) for name in config.scenarios}
    models = tuple(canonical_model_name(m) for m in config.models)

    cells = [
        (scenario, model, seed_index)
        for scenario in config.scenarios
        for model in models
        for seed_index in range(config.n_seeds)
    ]
    children = np.random.SeedSequence(config.seed).spawn(len(cells))
    return [
        RunTask(
            run_index=index,
            scenario=scenario,
            spec=specs[scenario],
            model=model,
            seed_index=seed_index,
            seed_sequence=children[index],
            n_intervals=config.n_intervals,
            trace_intervals=config.trace_intervals,
            gon_hidden=config.gon_hidden,
            gon_layers=config.gon_layers,
            gon_epochs=config.gon_epochs,
            carol_overrides=config.carol_overrides,
            scorer_backend=config.scorer_backend,
        )
        for index, (scenario, model, seed_index) in enumerate(cells)
    ]


@dataclass
class CampaignResult:
    """All records of a campaign plus tidy/aggregate views."""

    config: CampaignConfig
    records: List[RunRecord] = field(default_factory=list)
    #: Merged telemetry snapshot covering every execution mode: the
    #: per-cell registry deltas (serial / process pool) or the fleet's
    #: worker + service registries, folded into one campaign view with
    #: :func:`repro.telemetry.merge_snapshots`.  Observability only --
    #: wall-clock spans live here and never in the records, so the
    #: bit-identity contract is untouched.
    telemetry: Dict[str, dict] = field(default_factory=dict)

    def rows(self) -> List[Dict[str, object]]:
        """Tidy table: one row per run, identity + metric columns."""
        return [record.row() for record in self.records]

    def to_payload(self) -> Dict[str, object]:
        """JSON-serialisable dump: grid spec + per-run records.

        What ``python -m repro campaign --record-json`` writes and CI
        uploads as an artifact; records carry both the deterministic
        metrics (the bit-identity surface) and the execution
        diagnostics (overlay/cache counters).
        """
        return {
            "config": {
                "scenarios": list(self.config.scenarios),
                "models": [canonical_model_name(m) for m in self.config.models],
                "n_seeds": self.config.n_seeds,
                "workers": self.config.workers,
                "seed": self.config.seed,
                "n_intervals": self.config.n_intervals,
                "mode": self.config.mode,
                "transport": self.config.transport,
                "service_addr": self.config.service_addr,
                "shared_assets": self.config.shared_assets,
                "scorer_backend": self.config.scorer_backend,
                "heartbeat_timeout": self.config.heartbeat_timeout,
                "cell_retry_budget": self.config.cell_retry_budget,
                # auth_token is intentionally absent: record dumps are
                # shared artifacts and must never carry credentials.
                "carol_overrides": [list(p) for p in self.config.carol_overrides],
                "store": self.config.store,
                "store_path": self.config.store_path,
                "config_hash": campaign_config_hash(self.config),
            },
            "records": [
                {
                    **record.row(),
                    "run_index": record.run_index,
                    "diagnostics": dict(record.diagnostics),
                }
                for record in self.records
            ],
            "telemetry": self.telemetry,
        }

    def mean_metrics(self, scenario: str, model: str) -> Dict[str, float]:
        """Seed-averaged deterministic metrics of one (scenario, model)
        cell -- the fuzzer's scoring surface.  Raises ``KeyError`` when
        the cell produced no records."""
        stats = self.aggregate().get((scenario, canonical_model_name(model)))
        if stats is None:
            stats = self.aggregate().get((scenario, model))
        if stats is None:
            raise KeyError(
                f"no records for cell ({scenario!r}, {model!r})"
            )
        return {metric: mean for metric, (mean, _std) in stats.items()}

    def aggregate(self) -> Dict[Tuple[str, str], Dict[str, Tuple[float, float]]]:
        """Per (scenario, model) cell: metric -> (mean, std) over seeds."""
        grouped: Dict[Tuple[str, str], List[RunRecord]] = {}
        for record in self.records:
            grouped.setdefault((record.scenario, record.model), []).append(record)
        summary: Dict[Tuple[str, str], Dict[str, Tuple[float, float]]] = {}
        for key, group in grouped.items():
            summary[key] = {
                metric: (
                    float(np.mean([r.metrics[metric] for r in group])),
                    float(np.std([r.metrics[metric] for r in group])),
                )
                for metric in DETERMINISTIC_METRICS
            }
        return summary

    def format_summary(self) -> str:
        """ASCII summary table, one row per (scenario, model) cell."""
        aggregate = self.aggregate()
        n_by_cell: Dict[Tuple[str, str], int] = {}
        for record in self.records:
            key = (record.scenario, record.model)
            n_by_cell[key] = n_by_cell.get(key, 0) + 1
        rows = []
        for (scenario, model) in sorted(aggregate):
            stats = aggregate[(scenario, model)]
            rows.append((
                scenario,
                model,
                n_by_cell[(scenario, model)],
                _mean_std(stats["energy_kwh"]),
                _mean_std(stats["response_time_s"]),
                _mean_std(stats["slo_violation_rate"]),
                _mean_std(stats["downtime_s"]),
            ))
        return format_table(
            headers=(
                "scenario", "model", "runs", "energy (kWh)",
                "response (s)", "slo rate", "downtime (s)",
            ),
            rows=rows,
            title=f"-- campaign summary ({len(self.records)} runs) --",
        )


def _mean_std(stat: Tuple[float, float]) -> str:
    mean, std = stat
    return f"{mean:.4g} ±{std:.2g}"


def run_campaign(
    config: CampaignConfig,
    prepared_assets: Optional[Dict[str, TrainedAssets]] = None,
) -> CampaignResult:
    """Execute the full grid with the configured backend.

    ``prepared_assets`` short-circuits :func:`prepare_campaign_assets`
    when the campaign runs with ``shared_assets`` -- benches and tests
    use it to reuse one offline-training pass across several timed
    executions of the same grid.

    Every campaign runs against a :class:`repro.storage.CampaignStore`
    (``config.store``).  Cells already stored under this campaign's
    config hash are *restored* instead of re-executed -- sound because
    records are bit-identical across execution modes, so the stored
    record is byte-for-byte the record a re-run would produce.  Fresh
    records are persisted as they finish (serial and pool modes per
    record, fleet mode from the record collector as workers stream
    results), so a SIGKILLed campaign resumes from its last completed
    cell.  The default ``memory`` store starts empty in every process
    and therefore preserves the historical run-everything semantics
    exactly.  Restored-cell counts land in the ``fleet.cells_resumed``
    telemetry counter.
    """
    from ..storage import open_store

    tasks = plan_tasks(config)
    config_hash = campaign_config_hash(config)
    store = open_store(config.store, config.store_path)
    try:
        store.register_campaign(config_hash, campaign_grid_identity(config))
        stored = {
            (str(p["scenario"]), str(p["model"]), int(p["seed_index"])): p
            for p in store.records(config_hash)
        }
        todo = [
            task
            for task in tasks
            if (task.scenario, task.model, task.seed_index) not in stored
        ]
        restored = [
            record_from_payload(stored[(t.scenario, t.model, t.seed_index)])
            for t in tasks
            if (t.scenario, t.model, t.seed_index) in stored
        ]
        # Count the resumed cells *now* and capture just that increment
        # as its own delta: fleet's internal base snapshot and the
        # serial/pool per-cell deltas are all taken after this point,
        # so merging the small delta at the end is the only way the
        # counter reaches the campaign view without double counting.
        resume_delta: dict = {}
        if restored:
            resume_base = _telemetry.snapshot()
            _CELLS_RESUMED.inc(len(restored))
            resume_delta = _telemetry.delta(resume_base)

        def persist(record: RunRecord) -> None:
            store.put_record(config_hash, record_to_payload(record))

        shared: Optional[Dict[str, TrainedAssets]] = None
        if config.shared_assets:
            if config.mode == "fleet" and config.service_addr:
                # The external service already trained and published the
                # assets; workers fetch them over the socket instead.
                shared = {}
            else:
                shared = (
                    prepared_assets
                    if prepared_assets is not None
                    else prepare_campaign_assets(config, todo)
                )

        if config.mode == "fleet":
            from .fleet import run_fleet_campaign

            telemetry_sink: List[dict] = []
            fresh = run_fleet_campaign(
                config,
                todo,
                shared or {},
                telemetry_sink=telemetry_sink,
                record_sink=persist,
            )
            campaign_telemetry = (
                telemetry_sink[0] if telemetry_sink else _telemetry.snapshot()
            )
        else:
            per_task = [
                shared.get(task.scenario)
                if shared is not None and task.model in _CAROL_FAMILY
                else None
                for task in todo
            ]
            outcomes: List[Tuple[RunRecord, dict]] = []
            if config.workers == 1:
                for task, assets in zip(todo, per_task):
                    outcome = _execute_run_telemetry(task, assets)
                    persist(outcome[0])
                    outcomes.append(outcome)
            else:
                with ProcessPoolExecutor(max_workers=config.workers) as executor:
                    # map yields in submission order as cells finish;
                    # persisting inside the loop keeps the store
                    # current while later cells still run.
                    for outcome in executor.map(
                        _execute_run_telemetry, todo, per_task, chunksize=1
                    ):
                        persist(outcome[0])
                        outcomes.append(outcome)
            fresh = [record for record, _delta in outcomes]
            campaign_telemetry = _telemetry.merge_snapshots(
                *(delta for _record, delta in outcomes)
            )
        if resume_delta:
            campaign_telemetry = _telemetry.merge_snapshots(
                campaign_telemetry, resume_delta
            )
        store.merge_telemetry(config_hash, campaign_telemetry)
        records = sorted(
            restored + list(fresh), key=lambda record: record.run_index
        )
    finally:
        store.close()
    return CampaignResult(
        config=config, records=records, telemetry=campaign_telemetry
    )


def ci_campaign_config(workers: int = 2) -> CampaignConfig:
    """The smoke-test grid CI runs on every push: tiny but end-to-end.

    Two scenarios x {one heuristic model, the §VI proactive scheme} x
    one seed at five intervals with a midget shared-asset GON --
    seconds of work, yet it exercises the registry, the compiler, the
    parallel executor, offline asset sharing, the proactive decision
    loop and the aggregation.
    """
    return CampaignConfig(
        scenarios=("paper-default", "fault-free"),
        models=("DYVERSE", "CAROL-Proactive"),
        n_seeds=1,
        workers=workers,
        n_intervals=5,
        trace_intervals=12,
        gon_hidden=8,
        gon_layers=2,
        gon_epochs=2,
        shared_assets=True,
    )


def fleet_ci_campaign_config(workers: int = 2) -> CampaignConfig:
    """The fleet-mode smoke grid: a tiny CAROL + ProactiveCAROL
    campaign through the TCP-served assets and the batched scoring
    service.

    One scenario x {CAROL, CAROL-Proactive} x two seeds at three
    intervals with a midget GON -- seconds of work, yet it exercises
    asset fetches, the lease loop, the scoring service, proactive fleet
    routing and record collection.
    """
    return CampaignConfig(
        scenarios=("paper-default",),
        models=("CAROL", "CAROL-Proactive"),
        n_seeds=2,
        workers=workers,
        seed=1,
        n_intervals=3,
        trace_intervals=12,
        gon_hidden=8,
        gon_layers=2,
        gon_epochs=2,
        mode="fleet",
    )
