"""Command-line entry point: ``python -m repro <command>``.

Regenerates any paper artifact from the terminal without touching the
pytest harness:

    python -m repro table1
    python -m repro fig2 [--intervals N]
    python -m repro fig4
    python -m repro fig5 [--models CAROL,DYVERSE,...] [--intervals N]
    python -m repro fig6a | fig6b | fig6c

Artifact commands accept ``--seed`` and run at CI scale by default;
``--paper-scale`` switches to the 16-host / 4-LEI testbed shape
(substantially slower).

The scenario subsystem adds two commands:

    python -m repro scenarios list
    python -m repro scenarios show <name>
    python -m repro campaign --scenarios paper-default,correlated-rack \\
        --models carol --seeds 2 --workers 4
    python -m repro campaign --ci

``--shared-assets`` trains CAROL-family offline assets once per
scenario instead of once per run; ``--fleet`` additionally runs the
campaign through the shared scoring service of :mod:`repro.serving`
(``--ci --fleet`` runs the tiny fleet smoke grid).  The §VI proactive
scheme is a first-class campaign model (``--models carol-proactive``,
alias ``proactive``) in every mode -- in fleet mode a fine-tuned
replica scores its own ascents on the worker.
``--record-json PATH`` dumps the full per-run records (metrics +
scorer diagnostics) as JSON; CI uploads the fleet smokes' dumps as
build artifacts.

Multi-node fleets split the two halves across commands::

    # machine A: host the scoring service (trains/publishes assets)
    python -m repro serve --ci --min-workers 2 --port 7911

    # machine B (or the same box): run the simulation workers
    python -m repro campaign --ci --fleet --connect hostA:7911 --workers 2

``--fleet`` without ``--connect`` self-hosts the service on an
ephemeral localhost port; both sides must be launched with the same
grid flags so the asset catalogs agree.

The service is *elastic* (see :mod:`repro.serving`): cells are leased
one at a time from a coordinator-held queue, late workers may join a
running campaign, dead workers' cells are re-queued with a bounded
retry budget (``--retry-budget``), liveness rides on heartbeats
(``--heartbeat-timeout``), and ``--auth-token`` (or the
``REPRO_FLEET_TOKEN`` environment variable) gates handshakes with a
pre-shared token.  ``serve --status-port N`` additionally exposes the
``POST /inject`` chaos control plane (kill_worker / delay_client /
requeue_cell) next to ``GET /status``.

``python -m repro export-gon model.npz`` trains a scenario's GON
offline and dumps a standalone, verified inference pack for external
graph-free tooling.

Chaos schedules (:mod:`repro.chaos`) ride in scenarios: ``campaign
--scenarios chaos-drill`` runs the catalog's scripted schedule (all
five event kinds), and its serial and ``--fleet`` record dumps must
pass ``benchmarks/compare_records.py``.

Observability (:mod:`repro.telemetry`): every ``--record-json`` dump
carries the campaign's merged telemetry snapshot under ``"telemetry"``;
``python -m repro telemetry dump.json`` pretty-prints it (``--json``
re-extracts it for CI artifacts).  ``serve --status-port N`` binds a
read-only HTTP endpoint next to the scoring socket -- ``GET /status``
answers live JSON (workers connected, cells in flight, merged
telemetry) and ``GET /metrics`` flat ``name value`` text.

Durable campaigns (:mod:`repro.storage`): ``campaign --store sqlite
--store-path runs.db`` persists every finished cell as it lands, so a
killed campaign re-run with the same flags restores completed cells
from the store instead of re-executing them (``fleet.cells_resumed``
in the telemetry counts the skips).  ``serve --store sqlite
--store-path runs.db`` does the same on the service side -- stored
cells are never leased to workers.  The ``store`` family inspects a
database::

    python -m repro store list runs.db
    python -m repro store show runs.db [--campaign HASH]
    python -m repro store export runs.db dump.json

``export`` writes a ``--record-json``-shaped dump; ``repro telemetry``
and ``benchmarks/compare_records.py`` also accept a store file
directly anywhere they accept a records JSON.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace


def _resolve_auth_token(args) -> str:
    """--auth-token wins; else the REPRO_FLEET_TOKEN environment."""
    if args.auth_token is not None:
        return args.auth_token
    return os.environ.get("REPRO_FLEET_TOKEN", "")


def _base_config(args):
    from .config import ci_scale, paper_scale

    config = paper_scale() if args.paper_scale else ci_scale(seed=args.seed)
    if args.paper_scale and args.seed:
        config = replace(config, seed=args.seed)
    if args.intervals:
        config = replace(config, n_intervals=args.intervals)
    return config


def _cmd_table1(args) -> int:
    from .experiments import format_table1, verify_against_implementation

    print(format_table1())
    consistency = verify_against_implementation()
    bad = [work for work, ok in consistency.items() if not ok]
    if bad:
        print(f"WARNING: implementation inconsistent for {bad}")
        return 1
    print("\nconsistency check vs implemented classes: OK")
    return 0


def _cmd_fig2(args) -> int:
    from .experiments import Fig2Config, format_fig2, run_fig2

    config = Fig2Config(base=_base_config(args),
                        n_intervals=args.intervals or 60)
    print(format_fig2(run_fig2(config)))
    return 0


def _cmd_fig4(args) -> int:
    from .experiments import Fig4Config, format_fig4, run_fig4

    print(format_fig4(run_fig4(Fig4Config(base=_base_config(args)))))
    return 0


def _cmd_fig5(args) -> int:
    from .experiments import Fig5Config, format_results, headline_deltas, run_fig5

    models = args.models.split(",") if args.models else None
    config = Fig5Config(base=_base_config(args), models=models)
    if args.trace_intervals:
        config.trace_intervals = args.trace_intervals
    results = run_fig5(config)
    print(format_results(results))
    if "CAROL" in results and models is None:
        print("\nheadline deltas vs baselines:")
        for key, value in headline_deltas(results).items():
            print(f"  {key}: {value:+.1f}%")
    return 0


def _cmd_fig6(args, panel: str) -> int:
    from .experiments import (
        Fig6Config,
        format_sweep,
        run_learning_rate_sweep,
        run_memory_sweep,
        run_tabu_sweep,
    )

    config = Fig6Config(base=_base_config(args))
    if panel == "a":
        points = run_learning_rate_sweep(config)
        print(format_sweep("-- Fig. 6(a): learning rate --", "gamma", points))
    elif panel == "b":
        points = run_memory_sweep(config)
        print(format_sweep("-- Fig. 6(b): memory footprint --", "layers", points))
    else:
        points = run_tabu_sweep(config)
        print(format_sweep("-- Fig. 6(c): tabu list size --", "tabu size", points))
    return 0


def _cmd_scenarios(args) -> int:
    from .scenarios import all_scenarios, get_scenario

    if args.action == "list":
        specs = all_scenarios()
        width = max(len(spec.name) for spec in specs)
        print(f"{len(specs)} registered scenarios:\n")
        for spec in specs:
            fleet = ", ".join(f"{n}x {c}" for c, n in spec.fleet)
            print(f"  {spec.name.ljust(width)}  [{fleet}; {spec.n_leis} LEIs]")
            print(f"  {' ' * width}  {spec.description}")
        return 0
    # show
    if not args.name:
        print("scenarios show requires a scenario name", file=sys.stderr)
        return 2
    import json

    try:
        spec = get_scenario(args.name)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    print(json.dumps(spec.to_dict(), indent=2))
    return 0


#: The grid flags a ``--ci`` preset fixes, with their parser defaults.
_CI_FIXED_GRID = {
    "scenarios": "", "models": "carol", "seeds": 1, "seed": 0, "intervals": 0,
}


def _rejects_ci_grid_flags(args, command: str) -> bool:
    """True, after saying why on stderr, when ``--ci`` came with grid flags.

    The preset fixes its own grid, so a grid flag given with ``--ci``
    is an error rather than silently ignored.
    """
    given = [
        f"--{name}" for name, default in _CI_FIXED_GRID.items()
        if getattr(args, name) != default
    ]
    if given:
        print(
            f"{command} --ci runs a fixed preset grid and does not take "
            f"{', '.join(given)}; drop --ci to run a custom grid",
            file=sys.stderr,
        )
    return bool(given)


def _cmd_campaign(args) -> int:
    from .experiments import (
        CampaignConfig,
        ci_campaign_config,
        fleet_ci_campaign_config,
        run_campaign,
    )

    if args.ci:
        if _rejects_ci_grid_flags(args, "campaign"):
            return 2
        if args.fleet:
            config = fleet_ci_campaign_config(workers=args.workers)
        else:
            config = ci_campaign_config(workers=args.workers)
        overrides = {}
        if args.shared_assets and not config.shared_assets:
            # Honour the flag on the smoke grid too (a no-op for its
            # heuristic models, but never silently ignored).
            overrides["shared_assets"] = True
        if args.connect:
            # Applied regardless of --fleet so a forgotten flag fails
            # config validation loudly instead of silently running a
            # local process campaign while a remote service waits.
            overrides["service_addr"] = args.connect
        if args.store != "memory" or args.store_path:
            overrides["store"] = args.store
            overrides["store_path"] = args.store_path
        auth_token = _resolve_auth_token(args)
        if auth_token:
            overrides["auth_token"] = auth_token
        if overrides:
            try:
                config = replace(config, **overrides)
            except ValueError as error:
                print(error, file=sys.stderr)
                return 2
    else:
        if not args.scenarios:
            print("campaign requires --scenarios (or --ci)", file=sys.stderr)
            return 2
        try:
            config = CampaignConfig(
                scenarios=tuple(
                    s.strip() for s in args.scenarios.split(",") if s.strip()
                ),
                models=tuple(
                    m for m in (args.models or "carol").split(",") if m.strip()
                ),
                n_seeds=args.seeds,
                workers=args.workers,
                seed=args.seed,
                n_intervals=args.intervals or None,
                mode="fleet" if args.fleet else "process",
                # Passed through unconditionally: --connect without
                # --fleet must fail validation loudly, never silently
                # run a local process campaign.
                service_addr=args.connect,
                shared_assets=args.shared_assets or args.fleet,
                auth_token=_resolve_auth_token(args),
                store=args.store,
                store_path=args.store_path,
            )
        except ValueError as error:
            print(error, file=sys.stderr)
            return 2
    from .serving import TransportError
    from .storage import StoreError

    try:
        result = run_campaign(config)
    except (KeyError, ValueError) as error:
        # Typo'd scenario or model names: the registries raise with the
        # full catalog in the message; surface it without a traceback.
        message = error.args[0] if error.args else str(error)
        print(message, file=sys.stderr)
        return 2
    except StoreError as error:
        print(f"campaign store refused: {error}", file=sys.stderr)
        return 2
    except TransportError as error:
        print(f"fleet transport failed: {error}", file=sys.stderr)
        return 1
    if args.record_json:
        import json

        with open(args.record_json, "w") as sink:
            json.dump(result.to_payload(), sink, indent=2)
        print(f"wrote {len(result.records)} records to {args.record_json}")
    print(result.format_summary())
    return 0


def _cmd_serve(args) -> int:
    from .experiments import (
        CampaignConfig,
        fleet_ci_campaign_config,
        plan_tasks,
        prepare_campaign_assets,
    )
    from .experiments.fleet import serve_fleet_service
    from .serving import TransportError

    if args.ci:
        if _rejects_ci_grid_flags(args, "serve"):
            return 2
        config = fleet_ci_campaign_config()
    else:
        if not args.scenarios:
            print("serve requires --scenarios (or --ci)", file=sys.stderr)
            return 2
        try:
            config = CampaignConfig(
                scenarios=tuple(
                    s.strip() for s in args.scenarios.split(",") if s.strip()
                ),
                models=tuple(
                    m for m in (args.models or "carol").split(",") if m.strip()
                ),
                n_seeds=args.seeds,
                seed=args.seed,
                n_intervals=args.intervals or None,
                mode="fleet",
            )
        except ValueError as error:
            print(error, file=sys.stderr)
            return 2
    try:
        config = replace(
            config,
            workers=args.min_workers,
            heartbeat_timeout=args.heartbeat_timeout,
            cell_retry_budget=args.retry_budget,
            auth_token=_resolve_auth_token(args),
            store=args.store,
            store_path=args.store_path,
        )
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2

    try:
        tasks = plan_tasks(config)
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else str(error)
        print(message, file=sys.stderr)
        return 2
    print(
        f"preparing shared assets for {len(config.scenarios)} scenario(s)...",
        flush=True,
    )
    assets = prepare_campaign_assets(config, tasks)

    def ready(host: str, port: int) -> None:
        print(
            f"fleet scoring service listening on {host}:{port} "
            f"(expecting {args.min_workers} workers, late joiners welcome; "
            f"connect with `python -m repro campaign ... --fleet "
            f"--connect {host}:{port}`)",
            flush=True,
        )

    telemetry_sink: list = []
    try:
        stats = serve_fleet_service(
            config,
            assets,
            host=args.host,
            port=args.port,
            idle_timeout=args.max_idle,
            on_ready=ready,
            status_port=args.status_port if args.status_port >= 0 else None,
            telemetry_sink=telemetry_sink,
        )
    except (TransportError, RuntimeError) as error:
        print(f"scoring service failed: {error}", file=sys.stderr)
        return 1
    print(
        f"service done: {stats.n_requests} requests / {stats.n_elements} "
        f"stacked candidates in {stats.n_batches} kernel calls"
    )
    if args.telemetry_json and telemetry_sink:
        import json

        with open(args.telemetry_json, "w") as sink:
            json.dump(telemetry_sink[0], sink, indent=2, sort_keys=True)
        print(f"wrote merged fleet telemetry to {args.telemetry_json}")
    return 0


def _cmd_export_gon(args) -> int:
    """Train a scenario's GON offline and dump a standalone inference pack.

    The ``.npz`` holds the verified :class:`~repro.nn.serialization.
    InferencePack` arrays plus a ``__meta__`` JSON blob (architecture
    + provenance), so external tooling can run graph-free inference
    without importing the training stack.
    """
    import json

    import numpy as np

    from .experiments import CampaignConfig, prepare_campaign_assets
    from .experiments.fleet import _mount_gon
    from .nn.serialization import export_inference, verify_inference_pack

    try:
        config = CampaignConfig(
            scenarios=(args.scenario,),
            models=("CAROL",),
            seed=args.seed,
            trace_intervals=args.trace_intervals,
            gon_hidden=args.gon_hidden,
            gon_layers=args.gon_layers,
            gon_epochs=args.gon_epochs,
            shared_assets=True,
        )
        assets = prepare_campaign_assets(config)[args.scenario]
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else str(error)
        print(message, file=sys.stderr)
        return 2
    model = _mount_gon(
        assets.gon_state, assets.gon_hidden, assets.gon_layers, assets.seed
    )
    meta = {
        "scenario": args.scenario,
        "seed": args.seed,
        "asset_seed": assets.seed,
        "gan_seed": assets.gan_seed,
        "gon_hidden": assets.gon_hidden,
        "gon_layers": assets.gon_layers,
        "trace_intervals": args.trace_intervals,
        "gon_epochs": args.gon_epochs,
        "dtype": "float64",
    }
    pack = export_inference(model, meta=meta)
    verify_inference_pack(pack, model)
    header = dict(meta, arrays=sorted(pack.arrays))
    np.savez(
        args.output,
        __meta__=np.frombuffer(
            json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8
        ),
        **pack.arrays,
    )
    with np.load(args.output) as reloaded:
        for name, array in pack.arrays.items():
            if not np.array_equal(reloaded[name], array):
                print(
                    f"export verification failed: {name} did not "
                    "round-trip bit-exactly through the npz",
                    file=sys.stderr,
                )
                return 1
    n_params = sum(int(a.size) for a in pack.arrays.values())
    print(
        f"wrote {args.output}: {len(pack.arrays)} arrays / {n_params} "
        f"parameters (float64), scenario {args.scenario!r} "
        f"seed {args.seed}"
    )
    return 0


def _cmd_telemetry(args) -> int:
    """Pretty-print (or re-extract) a record dump's telemetry section.

    ``records`` may be a ``campaign --record-json`` dump *or* a
    ``--store sqlite`` database (sniffed by magic bytes); for a store
    the accumulated telemetry of the selected campaign is shown.
    """
    import json

    from .storage import StoreError, is_sqlite_store, open_store
    from .telemetry import render_summary

    if is_sqlite_store(args.records):
        try:
            with open_store("sqlite", args.records) as store:
                payload = store.export_payload(
                    store.resolve_campaign(getattr(args, "campaign", ""))
                )
        except StoreError as error:
            print(f"cannot read {args.records}: {error}", file=sys.stderr)
            return 2
    else:
        try:
            with open(args.records) as source:
                payload = json.load(source)
        except (OSError, json.JSONDecodeError) as error:
            print(f"cannot read {args.records}: {error}", file=sys.stderr)
            return 2
    snapshot = payload.get("telemetry") if isinstance(payload, dict) else None
    if not snapshot:
        print(
            f"{args.records} carries no telemetry section (an older dump)",
            file=sys.stderr,
        )
        return 1
    if args.json:
        with open(args.json, "w") as sink:
            json.dump(snapshot, sink, indent=2, sort_keys=True)
        print(f"wrote telemetry snapshot to {args.json}")
        return 0
    print(render_summary(snapshot, title=f"-- telemetry: {args.records} --"))
    return 0


def _cmd_store(args) -> int:
    """Inspect a campaign store: ``store list | show | export``."""
    import json

    from .storage import (
        StoreError,
        is_sqlite_store,
        open_store,
        short_hash,
    )

    if not is_sqlite_store(args.path):
        print(
            f"{args.path} is not a campaign store (sqlite database)",
            file=sys.stderr,
        )
        return 2
    try:
        with open_store("sqlite", args.path) as store:
            if args.action == "list":
                rows = store.campaigns()
                if args.json:
                    print(json.dumps(
                        [
                            {
                                "config_hash": row.config_hash,
                                "cells_completed": row.cells_completed,
                                "cells_total": row.cells_total,
                                "grid": row.grid,
                            }
                            for row in rows
                        ],
                        indent=2, sort_keys=True,
                    ))
                    return 0
                print(f"{len(rows)} campaign(s) in {args.path}:\n")
                for row in rows:
                    grid = row.grid
                    print(
                        f"  {short_hash(row.config_hash)}  "
                        f"{row.cells_completed}/{row.cells_total} cells  "
                        f"scenarios={','.join(grid.get('scenarios', ()))}  "
                        f"models={','.join(grid.get('models', ()))}  "
                        f"seeds={grid.get('n_seeds')}"
                    )
                return 0
            config_hash = store.resolve_campaign(args.campaign)
            payload = store.export_payload(config_hash)
            if args.action == "export":
                with open(args.output, "w") as sink:
                    json.dump(payload, sink, indent=2)
                print(
                    f"exported campaign {short_hash(config_hash)} "
                    f"({len(payload['records'])} records) to {args.output}"
                )
                return 0
            # show
            if args.json:
                print(json.dumps(payload, indent=2, sort_keys=True))
                return 0
            grid = payload["config"]
            total = (
                len(grid.get("scenarios", ()))
                * len(grid.get("models", ()))
                * int(grid.get("n_seeds", 0))
            )
            print(f"campaign {config_hash}")
            print(f"  scenarios: {', '.join(grid.get('scenarios', ()))}")
            print(f"  models:    {', '.join(grid.get('models', ()))}")
            print(
                f"  seeds:     {grid.get('n_seeds')}  "
                f"(seed {grid.get('seed')}, "
                f"{grid.get('n_intervals')} intervals)"
            )
            print(f"  records:   {len(payload['records'])}/{total} cells")
            for record in payload["records"]:
                print(
                    f"    [{record['run_index']:>3}] "
                    f"{record['scenario']} / {record['model']} "
                    f"/ seed {record['seed_index']}"
                )
            return 0
    except (StoreError, OSError) as error:
        print(f"store command failed: {error}", file=sys.stderr)
        return 2


def _add_artifact_options(parser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--intervals", type=int, default=0,
                        help="override the number of evaluation intervals")
    parser.add_argument("--models", type=str, default="",
                        help="fig5: comma-separated model subset")
    parser.add_argument("--trace-intervals", type=int, default=0,
                        help="fig5: override the training-trace length")
    parser.add_argument("--paper-scale", action="store_true",
                        help="16 hosts / 4 LEIs / 100 intervals (slow)")


def _shared_parents():
    """The flag sets shared by campaign / serve.

    One definition per flag, inherited via ``parents=[...]``, so the
    grid-running subcommands cannot drift apart in spelling, defaults
    or help text.
    """
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--scenarios", type=str, default="",
                      help="comma-separated scenario names")
    grid.add_argument("--models", type=str, default="carol",
                      help="comma-separated model names, e.g. "
                           "carol,carol-proactive,dyverse (default: carol)")

    seeds = argparse.ArgumentParser(add_help=False)
    seeds.add_argument("--seeds", type=int, default=1,
                       help="independent repetitions per cell")
    seeds.add_argument("--seed", type=int, default=0,
                       help="campaign root seed")
    seeds.add_argument("--intervals", type=int, default=0,
                       help="override each scenario's interval count")
    seeds.add_argument("--ci", action="store_true",
                       help="use this command's small CI-scale preset")

    backend = argparse.ArgumentParser(add_help=False)
    backend.add_argument("--auth-token", type=str, default=None,
                         help="pre-shared fleet auth token (default: "
                              "the REPRO_FLEET_TOKEN environment variable)")
    backend.add_argument("--store", type=str, default="memory",
                         choices=["memory", "sqlite"],
                         help="campaign record store: 'memory' (default; "
                              "nothing persists) or 'sqlite' (persist each "
                              "finished cell; re-running the same grid "
                              "resumes, skipping stored cells)")
    backend.add_argument("--store-path", type=str, default="",
                         help="sqlite store database file (required with "
                              "--store sqlite)")
    return grid, seeds, backend


ARTIFACTS = ("table1", "fig2", "fig4", "fig5", "fig6a", "fig6b", "fig6c")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Regenerate CAROL (DSN 2022) paper artifacts and run "
            "scenario campaigns."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       metavar="command")
    for artifact in ARTIFACTS:
        sub = subparsers.add_parser(
            artifact, help=f"regenerate paper artifact {artifact}"
        )
        _add_artifact_options(sub)

    scenarios = subparsers.add_parser(
        "scenarios", help="inspect the declarative scenario catalog"
    )
    scenarios.add_argument("action", choices=["list", "show"])
    scenarios.add_argument("name", nargs="?", default="",
                           help="scenario name (for show)")

    grid_parent, seeds_parent, backend_parent = _shared_parents()

    campaign = subparsers.add_parser(
        "campaign", help="run a scenario x model x seed grid",
        parents=[grid_parent, seeds_parent, backend_parent],
    )
    campaign.add_argument("--workers", type=int, default=1,
                          help="worker processes (1 = serial)")
    campaign.add_argument("--fleet", action="store_true",
                          help="fleet mode: shared assets + one batched "
                               "GON scoring service")
    campaign.add_argument("--connect", type=str, default="",
                          help="host:port of an external scoring service "
                               "(python -m repro serve); requires --fleet")
    campaign.add_argument("--shared-assets", action="store_true",
                          help="train CAROL-family assets once per "
                               "scenario (campaign-root seeded)")
    campaign.add_argument("--record-json", type=str, default="",
                          help="write per-run records (metrics + scorer "
                               "diagnostics) to this JSON file")

    serve = subparsers.add_parser(
        "serve",
        help="host a TCP GON scoring service for remote fleet workers",
        parents=[grid_parent, seeds_parent, backend_parent],
    )
    serve.add_argument("--host", type=str, default="127.0.0.1",
                       help="bind address (0.0.0.0 to accept remote "
                            "machines)")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port (0 picks an ephemeral port, "
                            "printed on startup)")
    serve.add_argument("--min-workers", type=int, default=2,
                       help="expected fleet size (status display + "
                            "asset sizing); the elastic service "
                            "accepts late joiners beyond it and exits "
                            "when the cell queue is drained")
    serve.add_argument("--max-idle", type=float, default=600.0,
                       help="abort (exit nonzero) after this many "
                            "seconds without non-heartbeat traffic; "
                            "0 waits forever")
    serve.add_argument("--heartbeat-timeout", type=float, default=30.0,
                       help="declare a worker lost (and re-queue its "
                            "leased cell) when its last frame is older "
                            "than this many seconds; 0 disables")
    serve.add_argument("--retry-budget", type=int, default=3,
                       help="failed attempts a cell gets before it is "
                            "quarantined as poisoned")
    serve.add_argument("--status-port", type=int, default=-1,
                       help="bind a read-only HTTP status endpoint on "
                            "this port (/status JSON + /metrics text; "
                            "0 picks an ephemeral port, printed on "
                            "startup; default: no endpoint)")
    serve.add_argument("--telemetry-json", type=str, default="",
                       help="write the final merged fleet telemetry "
                            "snapshot to this JSON file")

    export_gon = subparsers.add_parser(
        "export-gon",
        help="train a scenario's GON offline and dump a standalone "
             "inference pack as .npz",
    )
    export_gon.add_argument("output",
                            help="output path, e.g. model.npz")
    export_gon.add_argument("--scenario", type=str, default="paper-default",
                            help="scenario whose trace trains the GON")
    export_gon.add_argument("--seed", type=int, default=0,
                            help="campaign root seed (drives training)")
    export_gon.add_argument("--trace-intervals", type=int, default=40,
                            help="offline DeFog trace length")
    export_gon.add_argument("--gon-hidden", type=int, default=24,
                            help="GON hidden width")
    export_gon.add_argument("--gon-layers", type=int, default=2,
                            help="GON layer count")
    export_gon.add_argument("--gon-epochs", type=int, default=6,
                            help="GON training epochs")

    telemetry = subparsers.add_parser(
        "telemetry",
        help="pretty-print the telemetry section of a --record-json "
             "dump or a campaign store database",
    )
    telemetry.add_argument("records",
                           help="path of a `campaign --record-json` dump "
                                "or a `--store sqlite` database")
    telemetry.add_argument("--campaign", type=str, default="",
                           help="campaign config-hash prefix (store "
                                "files holding several campaigns)")
    telemetry.add_argument("--json", type=str, default="",
                           help="instead of pretty-printing, write the "
                                "raw telemetry snapshot to this file")

    store = subparsers.add_parser(
        "store",
        help="inspect a durable campaign store (list / show / export)",
    )
    store.add_argument("action", choices=["list", "show", "export"],
                       help="list campaigns, show one campaign's cells, "
                            "or export one campaign as a records JSON")
    store.add_argument("path", help="campaign store database file")
    store.add_argument("output", nargs="?", default="",
                       help="output JSON path (export)")
    store.add_argument("--campaign", type=str, default="",
                       help="campaign config-hash prefix (defaults to "
                            "the store's only campaign)")
    store.add_argument("--json", action="store_true",
                       help="machine-readable output (list / show)")

    args = parser.parse_args(argv)

    if args.command == "table1":
        return _cmd_table1(args)
    if args.command == "fig2":
        return _cmd_fig2(args)
    if args.command == "fig4":
        return _cmd_fig4(args)
    if args.command == "fig5":
        return _cmd_fig5(args)
    if args.command in ("fig6a", "fig6b", "fig6c"):
        return _cmd_fig6(args, args.command[-1])
    if args.command == "scenarios":
        return _cmd_scenarios(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "telemetry":
        return _cmd_telemetry(args)
    if args.command == "store":
        if args.action == "export" and not args.output:
            print("store export requires an output path", file=sys.stderr)
            return 2
        return _cmd_store(args)
    if args.command == "export-gon":
        return _cmd_export_gon(args)
    return _cmd_campaign(args)


if __name__ == "__main__":
    sys.exit(main())
