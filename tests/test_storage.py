"""The durable campaign store: identity hashing, backends, resume.

Pins the storage contracts end to end:

* the config hash covers exactly the grid-identity surface -- execution
  topology (workers, mode, transport, store settings) must never change
  it, anything that changes record content must;
* backend parity -- the ``memory`` and ``sqlite`` stores are
  observationally identical for every register/put/get/list path,
  including their refusal semantics (first-wins, tamper-loud);
* lossless serialization -- a restored record round-trips bit-identical
  metrics through the JSON text layer;
* crash-shaped durability -- records written by a never-closed
  connection are visible to a fresh open of the same file;
* resume -- ``run_campaign`` restores stored cells instead of
  re-executing them (counted in ``fleet.cells_resumed``), refuses a
  store whose grid identity disagrees, and produces bit-identical
  records either way; the :class:`CellCoordinator` pre-completes stored
  cells so a resumed service never leases them;
* the CLI (``campaign --store``, ``store list|show|export``,
  ``telemetry`` on a store file) and the stdlib-only benchmark reader
  (``benchmarks/compare_records.py``), which must agree byte-for-byte
  with ``repro.storage``'s own export.
"""

import dataclasses
import json
import os
import sqlite3
import sys

import pytest

from repro.experiments.campaign import (
    CampaignConfig,
    GRID_IDENTITY_FIELDS,
    RECORD_SEMANTICS_VERSION,
    campaign_config_hash,
    campaign_grid_identity,
    record_from_payload,
    record_to_payload,
    run_campaign,
)
from repro.scenarios import get_scenario, register
from repro.serving.coordinator import CellCoordinator
from repro.storage import (
    MemoryCampaignStore,
    SqliteCampaignStore,
    StoreError,
    canonical_json,
    is_sqlite_store,
    open_store,
)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "benchmarks"))
import compare_records  # noqa: E402


def tiny_config(**overrides) -> CampaignConfig:
    """A seconds-fast heuristic-only grid (no GON training)."""
    defaults = dict(
        scenarios=("fault-free",),
        models=("DYVERSE",),
        n_seeds=3,
        workers=1,
        n_intervals=2,
        shared_assets=False,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def payloads(result) -> list:
    return [record_to_payload(record) for record in result.records]


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    path = str(tmp_path / "store.db") if request.param == "sqlite" else ""
    with open_store(request.param, path) as opened:
        yield opened


SAMPLE_GRID = {"scenarios": ["fault-free"], "models": ["DYVERSE"], "n_seeds": 2}


def sample_payload(seed_index: int = 0, **extra) -> dict:
    payload = {
        "run_index": seed_index,
        "scenario": "fault-free",
        "model": "DYVERSE",
        "seed_index": seed_index,
        "seed": 1234 + seed_index,
        "energy_kwh": 0.1,
        "response_time_s": 1.0 / 3.0,
        "slo_violation_rate": 1e-300,
        "downtime_s": 6.02214076e23,
        "diagnostics": {"cache_hits": 3, "decision_digest": "abc123"},
    }
    payload.update(extra)
    return payload


# ----------------------------------------------------------------------
# Config hash surface
# ----------------------------------------------------------------------
class TestConfigHash:
    def test_execution_topology_never_changes_the_hash(self):
        # Fleet mode forces shared_assets (an identity field), so the
        # cross-mode comparisons run from a shared-assets base.
        base = tiny_config(shared_assets=True)
        h = campaign_config_hash(base)
        for change in (
            dict(workers=8),
            dict(mode="fleet", workers=2),
            dict(mode="fleet", transport="tcp"),
            dict(heartbeat_timeout=1.5),
            dict(cell_retry_budget=9),
            dict(auth_token="secret"),
            dict(store="sqlite", store_path="/tmp/x.db"),
        ):
            changed = dataclasses.replace(base, **change)
            assert campaign_config_hash(changed) == h, change

    def test_grid_identity_fields_all_change_the_hash(self):
        base = tiny_config()
        h = campaign_config_hash(base)
        for change in (
            dict(scenarios=("paper-default",)),
            dict(models=("CAROL",)),
            dict(n_seeds=4),
            dict(seed=99),
            dict(n_intervals=5),
            dict(trace_intervals=13),
            dict(gon_hidden=16),
            dict(gon_layers=3),
            dict(gon_epochs=7),
            dict(shared_assets=True),
            dict(carol_overrides=(("gamma", 0.5),)),
            dict(scorer_backend="fast32"),
        ):
            changed = dataclasses.replace(base, **change)
            assert campaign_config_hash(changed) != h, change

    def test_identity_covers_every_declared_field(self):
        # Every declared config field, plus the two record-determining
        # inputs that are not config fields: scenario content and the
        # record-semantics version.
        grid = campaign_grid_identity(tiny_config())
        assert set(grid) == set(GRID_IDENTITY_FIELDS) | {
            "scenario_specs", "record_semantics",
        }
        assert grid["record_semantics"] == RECORD_SEMANTICS_VERSION
        assert grid["scenario_specs"] == [get_scenario("fault-free").to_dict()]

    def test_retired_exact_backend_is_rejected(self):
        # One spelling per backend: "fast" was always the hashed name,
        # so dropping the "exact" alias moves no config hash.
        with pytest.raises(ValueError, match="unknown scorer backend"):
            tiny_config(scorer_backend="exact")

    def test_model_aliases_canonicalize_before_hashing(self):
        lower = tiny_config(models=("carol",))
        upper = tiny_config(models=("CAROL",))
        assert campaign_config_hash(lower) == campaign_config_hash(upper)


# ----------------------------------------------------------------------
# Backend contract (parametrized over memory and sqlite)
# ----------------------------------------------------------------------
class TestStoreContract:
    def test_register_then_lookup(self, store):
        store.register_campaign("h1", SAMPLE_GRID)
        assert store.grid("h1") == SAMPLE_GRID
        rows = store.campaigns()
        assert [row.config_hash for row in rows] == ["h1"]
        assert rows[0].cells_completed == 0
        assert rows[0].cells_total == 2

    def test_register_is_idempotent_but_mismatch_is_loud(self, store):
        store.register_campaign("h1", SAMPLE_GRID)
        store.register_campaign("h1", dict(SAMPLE_GRID))  # same grid: fine
        with pytest.raises(StoreError, match="different grid identity"):
            store.register_campaign("h1", {**SAMPLE_GRID, "n_seeds": 3})

    def test_put_get_roundtrip_is_bitwise(self, store):
        store.register_campaign("h1", SAMPLE_GRID)
        payload = sample_payload()
        assert store.put_record("h1", payload) is True
        stored = store.get_record("h1", "fault-free", "DYVERSE", 0)
        assert canonical_json(stored) == canonical_json(payload)
        # Float bits, not approximate equality.
        for key in ("energy_kwh", "response_time_s", "slo_violation_rate",
                    "downtime_s"):
            assert stored[key].hex() == payload[key].hex()

    def test_duplicate_put_is_counted_noop(self, store):
        store.register_campaign("h1", SAMPLE_GRID)
        payload = sample_payload()
        assert store.put_record("h1", payload) is True
        assert store.put_record("h1", dict(payload)) is False
        assert len(store.records("h1")) == 1

    def test_conflicting_record_is_refused(self, store):
        store.register_campaign("h1", SAMPLE_GRID)
        store.put_record("h1", sample_payload())
        with pytest.raises(StoreError, match="different record"):
            store.put_record("h1", sample_payload(energy_kwh=0.2))

    def test_put_against_unregistered_campaign_is_refused(self, store):
        with pytest.raises(StoreError, match="unknown campaign"):
            store.put_record("nope", sample_payload())

    def test_records_sorted_and_completed_cells(self, store):
        store.register_campaign("h1", SAMPLE_GRID)
        store.put_record("h1", sample_payload(1))
        store.put_record("h1", sample_payload(0))
        assert [r["run_index"] for r in store.records("h1")] == [0, 1]
        assert store.completed_cells("h1") == {
            ("fault-free", "DYVERSE", 0),
            ("fault-free", "DYVERSE", 1),
        }

    def test_telemetry_accumulates_across_merges(self, store):
        store.register_campaign("h1", SAMPLE_GRID)
        assert store.telemetry("h1") == {}
        store.merge_telemetry("h1", {"counters": {"fleet.leases": 2}})
        store.merge_telemetry("h1", {"counters": {"fleet.leases": 3}})
        assert store.telemetry("h1")["counters"]["fleet.leases"] == 5

    def test_resolve_campaign_prefixes(self, store):
        store.register_campaign("aaa1", SAMPLE_GRID)
        store.register_campaign("bbb2", SAMPLE_GRID)
        assert store.resolve_campaign("aaa") == "aaa1"
        with pytest.raises(StoreError, match="several campaigns"):
            store.only_campaign()
        with pytest.raises(StoreError, match="no campaign matches"):
            store.resolve_campaign("zzz")

    def test_export_payload_shape(self, store):
        store.register_campaign("h1", SAMPLE_GRID)
        store.put_record("h1", sample_payload())
        exported = store.export_payload("h1")
        assert exported["config"]["config_hash"] == "h1"
        assert exported["config"]["n_seeds"] == 2
        assert len(exported["records"]) == 1


class TestBackendParity:
    def test_memory_and_sqlite_exports_are_byte_identical(self, tmp_path):
        memory = MemoryCampaignStore()
        sqlite_store = SqliteCampaignStore(str(tmp_path / "p.db"))
        for backend in (memory, sqlite_store):
            backend.register_campaign("h1", SAMPLE_GRID)
            backend.put_record("h1", sample_payload(0))
            backend.put_record("h1", sample_payload(1))
            backend.merge_telemetry("h1", {"counters": {"fleet.leases": 4}})
        assert canonical_json(memory.export_payload("h1")) == canonical_json(
            sqlite_store.export_payload("h1")
        )
        sqlite_store.close()


# ----------------------------------------------------------------------
# SQLite durability specifics
# ----------------------------------------------------------------------
class TestSqliteDurability:
    def test_reopen_without_close_sees_every_committed_record(self, tmp_path):
        path = str(tmp_path / "crash.db")
        writer = SqliteCampaignStore(path)
        writer.register_campaign("h1", SAMPLE_GRID)
        writer.put_record("h1", sample_payload(0))
        writer.put_record("h1", sample_payload(1))
        # No close(): the writer "was SIGKILLed".  WAL autocommit means
        # everything already put is durable for the next open.
        reader = SqliteCampaignStore(path)
        try:
            assert len(reader.records("h1")) == 2
            assert canonical_json(reader.get_record(
                "h1", "fault-free", "DYVERSE", 0
            )) == canonical_json(sample_payload(0))
        finally:
            reader.close()
            writer.close()

    def test_magic_sniffing(self, tmp_path):
        db = tmp_path / "real.db"
        SqliteCampaignStore(str(db)).close()
        assert is_sqlite_store(str(db))
        plain = tmp_path / "plain.json"
        plain.write_text("{}")
        assert not is_sqlite_store(str(plain))
        assert not is_sqlite_store(str(tmp_path / "absent"))

    def test_wrong_schema_version_is_refused(self, tmp_path):
        path = str(tmp_path / "future.db")
        SqliteCampaignStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA user_version=99")
        conn.close()
        with pytest.raises(StoreError, match="schema version 99"):
            SqliteCampaignStore(path)

    def test_non_database_file_is_refused(self, tmp_path):
        path = tmp_path / "garbage.db"
        path.write_bytes(b"not a database at all, but long enough to sniff")
        with pytest.raises(StoreError, match="not a campaign store"):
            SqliteCampaignStore(str(path))

    def test_unknown_store_kind(self):
        with pytest.raises(StoreError, match="unknown campaign store"):
            open_store("redis")


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestConfigValidation:
    def test_sqlite_requires_a_path(self):
        with pytest.raises(ValueError, match="requires store_path"):
            tiny_config(store="sqlite")

    def test_path_requires_sqlite(self):
        with pytest.raises(ValueError, match="store_path requires"):
            tiny_config(store_path="/tmp/x.db")

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="store"):
            tiny_config(store="redis")


# ----------------------------------------------------------------------
# Record payload round-trip
# ----------------------------------------------------------------------
class TestRecordPayloads:
    def test_json_text_roundtrip_is_bitwise(self, tmp_path):
        result = run_campaign(tiny_config(n_seeds=1))
        record = result.records[0]
        text = canonical_json(record_to_payload(record))
        restored = record_from_payload(json.loads(text))
        assert restored == record
        for key, value in record.metrics.items():
            assert restored.metrics[key].hex() == value.hex()

    def test_missing_metric_column_fails_loudly(self):
        payload = sample_payload()
        del payload["energy_kwh"]
        with pytest.raises(ValueError, match="incompatible record schema"):
            record_from_payload(payload)


# ----------------------------------------------------------------------
# Coordinator resume preload
# ----------------------------------------------------------------------
class TestCoordinatorPreload:
    def test_preloaded_cells_are_never_leased(self):
        coordinator = CellCoordinator([0, 1, 2, 3], completed=[1, 3])
        assert coordinator.resumed == (1, 3)
        assert coordinator.completed == {1: -1, 3: -1}
        leased = set()
        while True:
            cell, _attempt, drained = coordinator.lease(worker_id=0)
            if cell is None:
                break
            leased.add(cell)
            coordinator.complete(cell, 0)
        assert leased == {0, 2}
        assert coordinator.finished

    def test_all_cells_preloaded_is_born_finished(self):
        coordinator = CellCoordinator([0, 1], completed=[0, 1])
        assert coordinator.finished
        assert coordinator.lease(worker_id=0) == (None, 0, True)

    def test_unknown_preloaded_cell_is_refused(self):
        with pytest.raises(ValueError, match="not in the campaign grid"):
            CellCoordinator([0, 1], completed=[7])

    def test_status_reports_resumed(self):
        coordinator = CellCoordinator([0, 1, 2], completed=[2])
        status = coordinator.status()
        assert status["cells_resumed"] == 1
        assert status["completed"] == 1
        assert status["pending"] == 2


# ----------------------------------------------------------------------
# run_campaign resume (serial + fleet)
# ----------------------------------------------------------------------
class TestCampaignResume:
    def test_full_resume_restores_every_cell_bitwise(self, tmp_path):
        config = tiny_config(
            store="sqlite", store_path=str(tmp_path / "runs.db")
        )
        first = run_campaign(config)
        second = run_campaign(config)
        assert canonical_json(payloads(first)) == canonical_json(
            payloads(second)
        )
        counters = second.telemetry["counters"]
        assert counters["fleet.cells_resumed"] == len(first.records)
        assert counters.get("campaign.cells_started", 0) == 0

    def test_partial_resume_runs_only_missing_cells(self, tmp_path):
        config = tiny_config(
            store="sqlite", store_path=str(tmp_path / "full.db")
        )
        full = run_campaign(config)
        partial_path = str(tmp_path / "partial.db")
        config_hash = campaign_config_hash(config)
        with open_store("sqlite", partial_path) as seed_store:
            seed_store.register_campaign(
                config_hash, campaign_grid_identity(config)
            )
            seed_store.put_record(
                config_hash, record_to_payload(full.records[1])
            )
        resumed = run_campaign(
            dataclasses.replace(config, store_path=partial_path)
        )
        assert canonical_json(payloads(resumed)) == canonical_json(
            payloads(full)
        )
        counters = resumed.telemetry["counters"]
        assert counters["fleet.cells_resumed"] == 1
        assert counters["campaign.cells_started"] == len(full.records) - 1
        with open_store("sqlite", partial_path) as check:
            assert len(check.records(config_hash)) == len(full.records)

    def test_resume_refuses_a_mismatched_grid(self, tmp_path):
        path = str(tmp_path / "runs.db")
        config = tiny_config(store="sqlite", store_path=path)
        run_campaign(config)
        config_hash = campaign_config_hash(config)
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE campaigns SET grid_json=? WHERE config_hash=?",
            (canonical_json({"scenarios": ["tampered"]}), config_hash),
        )
        conn.commit()
        conn.close()
        with pytest.raises(StoreError, match="different grid identity"):
            run_campaign(config)

    def test_edited_catalog_spec_changes_hash_and_refuses_resume(
        self, tmp_path
    ):
        config = tiny_config(
            store="sqlite", store_path=str(tmp_path / "runs.db")
        )
        first = run_campaign(config)
        before = campaign_config_hash(config)
        original = get_scenario("fault-free")
        edited = dataclasses.replace(
            original,
            workload=dataclasses.replace(
                original.workload,
                arrival_rate=original.workload.arrival_rate * 2,
            ),
        )
        register(edited, overwrite=True)
        try:
            assert campaign_config_hash(config) != before
            rerun = run_campaign(config)
        finally:
            register(original, overwrite=True)
        counters = rerun.telemetry["counters"]
        assert counters.get("fleet.cells_resumed", 0) == 0
        assert counters["campaign.cells_started"] == len(first.records)
        assert payloads(rerun) != payloads(first)
        with open_store("sqlite", config.store_path) as check:
            assert len(check.campaigns()) == 2

    def test_older_record_semantics_changes_hash_and_refuses_resume(
        self, tmp_path, monkeypatch
    ):
        # A store written by code of the previous record semantics
        # (version 1 let ascents stop early on an update-norm tol) must
        # not resume into the current code.
        config = tiny_config(
            store="sqlite", store_path=str(tmp_path / "runs.db")
        )
        current = campaign_config_hash(config)
        with monkeypatch.context() as patch:
            patch.setattr(
                "repro.experiments.campaign.RECORD_SEMANTICS_VERSION",
                RECORD_SEMANTICS_VERSION - 1,
            )
            assert campaign_config_hash(config) != current
            first = run_campaign(config)
        rerun = run_campaign(config)
        counters = rerun.telemetry["counters"]
        assert counters.get("fleet.cells_resumed", 0) == 0
        assert counters["campaign.cells_started"] == len(first.records)
        with open_store("sqlite", config.store_path) as check:
            assert len(check.campaigns()) == 2

    def test_memory_store_preserves_run_everything_semantics(self):
        config = tiny_config()
        first = run_campaign(config)
        second = run_campaign(config)
        assert canonical_json(payloads(first)) == canonical_json(
            payloads(second)
        )
        # The registry snapshot lists every registered counter; with a
        # memory store nothing was ever resumed.
        assert second.telemetry["counters"].get("fleet.cells_resumed", 0) == 0

    def test_fleet_mode_resumes_from_a_serial_store(self, tmp_path):
        path = str(tmp_path / "fleet.db")
        serial = tiny_config(
            shared_assets=True, store="sqlite", store_path=path
        )
        first = run_campaign(serial)
        fleet = dataclasses.replace(
            serial, mode="fleet", workers=2, shared_assets=True
        )
        assert campaign_config_hash(fleet) == campaign_config_hash(serial)
        resumed = run_campaign(fleet)
        # Metric rows are the cross-mode bit-identity surface
        # (diagnostics legitimately differ between fleet and serial).
        assert canonical_json([r.row() for r in resumed.records]) == (
            canonical_json([r.row() for r in first.records])
        )
        counters = resumed.telemetry["counters"]
        assert counters["fleet.cells_resumed"] == len(first.records)

    def test_interrupted_fleet_store_completes_on_serial_rerun(self, tmp_path):
        """The SIGKILL-resume shape, in-process: a partially filled
        store (as an interrupted fleet campaign leaves behind thanks to
        incremental persistence) is completed by a rerun, bit-identical
        to an uninterrupted serial run."""
        path = str(tmp_path / "interrupted.db")
        config = tiny_config(
            shared_assets=True, store="sqlite", store_path=path
        )
        fresh = run_campaign(tiny_config(shared_assets=True))
        config_hash = campaign_config_hash(config)
        with open_store("sqlite", path) as seed_store:
            seed_store.register_campaign(
                config_hash, campaign_grid_identity(config)
            )
            seed_store.put_record(
                config_hash, record_to_payload(fresh.records[0])
            )
        completed = run_campaign(config)
        assert canonical_json(payloads(completed)) == canonical_json(
            payloads(fresh)
        )


# ----------------------------------------------------------------------
# CLI: campaign --store, store list/show/export, telemetry on a store
# ----------------------------------------------------------------------
class TestStoreCli:
    CAMPAIGN_FLAGS = [
        "campaign", "--scenarios", "fault-free", "--models", "dyverse",
        "--seeds", "2", "--intervals", "2",
    ]

    def run_cli(self, argv):
        from repro.__main__ import main

        return main(argv)

    def test_campaign_store_flags_resume_via_cli(self, tmp_path, capsys):
        db = str(tmp_path / "cli.db")
        flags = self.CAMPAIGN_FLAGS + ["--store", "sqlite", "--store-path", db]
        assert self.run_cli(flags) == 0
        capsys.readouterr()
        assert self.run_cli(flags) == 0
        capsys.readouterr()
        with open_store("sqlite", db) as store:
            config_hash = store.only_campaign()
            counters = store.telemetry(config_hash)["counters"]
            assert counters["fleet.cells_resumed"] == 2
            assert len(store.records(config_hash)) == 2

    def test_store_path_without_sqlite_fails_validation(self, tmp_path, capsys):
        rc = self.run_cli(
            self.CAMPAIGN_FLAGS + ["--store-path", str(tmp_path / "x.db")]
        )
        assert rc == 2
        assert "store_path requires" in capsys.readouterr().err

    @pytest.fixture
    def populated_db(self, tmp_path):
        db = str(tmp_path / "populated.db")
        assert self.run_cli(
            self.CAMPAIGN_FLAGS + ["--store", "sqlite", "--store-path", db]
        ) == 0
        return db

    def test_store_list_show_export(self, populated_db, tmp_path, capsys):
        assert self.run_cli(["store", "list", populated_db]) == 0
        out = capsys.readouterr().out
        assert "1 campaign(s)" in out and "2/2 cells" in out

        assert self.run_cli(["store", "show", populated_db]) == 0
        out = capsys.readouterr().out
        assert "fault-free / DYVERSE / seed 1" in out

        assert self.run_cli(["store", "show", populated_db, "--json"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert len(shown["records"]) == 2

        export_path = str(tmp_path / "export.json")
        assert self.run_cli(
            ["store", "export", populated_db, export_path]
        ) == 0
        capsys.readouterr()
        with open(export_path) as source:
            exported = json.load(source)
        assert canonical_json(exported) == canonical_json(shown)

    def test_store_export_requires_output(self, populated_db, capsys):
        assert self.run_cli(["store", "export", populated_db]) == 2
        assert "output path" in capsys.readouterr().err

    def test_store_rejects_non_database(self, tmp_path, capsys):
        plain = tmp_path / "plain.json"
        plain.write_text("{}")
        assert self.run_cli(["store", "list", str(plain)]) == 2
        assert "not a campaign store" in capsys.readouterr().err

    def test_telemetry_reads_a_store_file(self, populated_db, capsys):
        assert self.run_cli(["telemetry", populated_db]) == 0
        out = capsys.readouterr().out
        assert "campaign.cells_completed" in out

    def test_telemetry_json_extraction_from_store(
        self, populated_db, tmp_path, capsys
    ):
        out_path = str(tmp_path / "telemetry.json")
        assert self.run_cli(
            ["telemetry", populated_db, "--json", out_path]
        ) == 0
        with open(out_path) as source:
            snapshot = json.load(source)
        assert snapshot["counters"]["campaign.cells_completed"] == 2


# ----------------------------------------------------------------------
# Benchmark reader parity (stdlib sqlite3 vs repro.storage)
# ----------------------------------------------------------------------
class TestBenchmarkReader:
    def test_load_payload_matches_storage_export(self, tmp_path):
        db = str(tmp_path / "bench.db")
        config = tiny_config(store="sqlite", store_path=db)
        run_campaign(config)
        with open_store("sqlite", db) as store:
            config_hash = store.only_campaign()
            ours = store.export_payload(config_hash)
        theirs = compare_records.load_payload(db)
        assert canonical_json(ours) == canonical_json(theirs)

    def test_record_rows_from_store_match_json_dump(self, tmp_path):
        db = str(tmp_path / "bench.db")
        config = tiny_config(store="sqlite", store_path=db)
        result = run_campaign(config)
        dump = tmp_path / "dump.json"
        dump.write_text(json.dumps(result.to_payload()))
        assert compare_records.record_rows(db) == compare_records.record_rows(
            str(dump)
        )

    def test_compare_records_main_accepts_a_store(self, tmp_path, capsys):
        db = str(tmp_path / "bench.db")
        config = tiny_config(store="sqlite", store_path=db)
        result = run_campaign(config)
        dump = tmp_path / "dump.json"
        dump.write_text(json.dumps(result.to_payload()))
        assert compare_records.main([db, str(dump)]) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_ambiguous_campaign_needs_a_prefix(self, tmp_path):
        db = str(tmp_path / "two.db")
        with open_store("sqlite", db) as store:
            store.register_campaign("aaa", SAMPLE_GRID)
            store.register_campaign("bbb", SAMPLE_GRID)
            store.put_record("aaa", sample_payload(0))
            store.put_record("bbb", sample_payload(0))
        with pytest.raises(SystemExit, match="matches 0 of 2|matches 2"):
            compare_records.load_payload(db)
        assert compare_records.load_payload(db, campaign="aaa")["config"][
            "config_hash"
        ] == "aaa"
