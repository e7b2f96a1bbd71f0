"""Assert two ``campaign --record-json`` dumps agree record-for-record.

CI runs the fleet smoke twice -- once against a self-hosted scoring
service, once against a separately served one (``repro serve``) --
plus chaos, resume and serial runs of the same grids, and this check
pins the cross-mode contract in the pipeline itself: the
deterministic record surface (scenario, model, seeds, every metric)
must be **bit-identical** across execution modes.  Execution observability
legitimately differs between modes -- diagnostics counters (overlay/
fallback/cache) *and* the merged telemetry snapshot, which carries
wall-clock spans that differ on every run -- so both are explicitly
stripped before comparison, exactly as ``RunRecord.row()`` excludes
them from the deterministic surface.

``--decisions`` additionally asserts *decision parity*: each CAROL-
family record's ``diagnostics["decision_digest"]`` (the rolling hash
over every repair choice and POT gate outcome) must match record-for-
record.  This is the gate CI holds the fleet's service-side kernel
ascents to -- a fleet dump must make bit-identical records *and*
identical decisions versus a serial dump of the same grid.

Either side may also be a ``campaign --store sqlite`` database
(sniffed by the SQLite magic bytes) -- the store's records are read
directly, so the CI resume gate compares an interrupted-then-resumed
campaign's store against a fresh serial dump with no export step.
Deliberately stdlib-only (``json`` + ``sqlite3``, no ``repro``
import): CI calls this without ``PYTHONPATH=src``, and so can any
external tooling.  ``tests/test_storage.py`` pins this reader against
``repro.storage``'s own export, so the two cannot drift.

Usage::

    python benchmarks/compare_records.py A.json B.db [--decisions]
        [--campaign HASHPREFIX]
"""

from __future__ import annotations

import argparse
import json
import sqlite3
import sys
from typing import Dict, List

#: Per-record keys describing *how* a cell executed, not its outcome:
#: never part of the bit-identity surface.
EXECUTION_ONLY_KEYS = ("diagnostics", "telemetry")

#: First 16 bytes of every SQLite database file.
SQLITE_MAGIC = b"SQLite format 3\x00"


def is_sqlite_file(path: str) -> bool:
    try:
        with open(path, "rb") as probe:
            return probe.read(len(SQLITE_MAGIC)) == SQLITE_MAGIC
    except OSError:
        return False


def _store_payload(path: str, campaign: str = "") -> Dict[str, object]:
    """Read one campaign out of a ``repro.storage`` sqlite store.

    Mirrors ``CampaignStore.export_payload`` with raw sqlite3 so the
    benchmark needs no ``repro`` on the path; the schema (``campaigns``
    / ``cells`` keyed by the canonical cell id) is pinned by the parity
    test in ``tests/test_storage.py``.
    """
    conn = sqlite3.connect(path)
    try:
        hashes = [
            row[0]
            for row in conn.execute(
                "SELECT config_hash FROM campaigns ORDER BY config_hash"
            )
        ]
        matches = [h for h in hashes if h.startswith(campaign)]
        if len(matches) != 1:
            raise SystemExit(
                f"{path}: campaign prefix {campaign!r} matches "
                f"{len(matches)} of {len(hashes)} stored campaigns: "
                + ", ".join(h[:12] for h in hashes)
            )
        config_hash = matches[0]
        grid_json, telemetry_json = conn.execute(
            "SELECT grid_json, telemetry_json FROM campaigns "
            "WHERE config_hash=?",
            (config_hash,),
        ).fetchone()
        records = [
            json.loads(row[0])
            for row in conn.execute(
                "SELECT record_json FROM cells WHERE config_hash=? "
                "ORDER BY run_index",
                (config_hash,),
            )
        ]
    finally:
        conn.close()
    return {
        "config": dict(json.loads(grid_json), config_hash=config_hash),
        "records": records,
        "telemetry": json.loads(telemetry_json),
    }


def load_payload(path: str, campaign: str = "") -> Dict[str, object]:
    """A records payload from either a JSON dump or a store database."""
    if is_sqlite_file(path):
        return _store_payload(path, campaign)
    with open(path) as source:
        return json.load(source)


def record_rows(
    path: str, decisions: bool = False, campaign: str = ""
) -> List[Dict[str, object]]:
    payload = load_payload(path, campaign)
    records = payload.get("records")
    if not isinstance(records, list) or not records:
        raise SystemExit(f"{path}: no records in payload")
    rows = []
    for record in records:
        row = {
            key: value
            for key, value in record.items()
            if key not in EXECUTION_ONLY_KEYS
        }
        if decisions:
            # Lifted out of the execution-only diagnostics on demand:
            # the digest is deterministic for a given decision stream,
            # so it *is* comparable across execution modes and backends.
            diagnostics = record.get("diagnostics") or {}
            row["decision_digest"] = diagnostics.get("decision_digest")
        rows.append(row)
    return sorted(rows, key=lambda row: row.get("run_index", 0))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("left", help="first --record-json dump or sqlite store")
    parser.add_argument("right", help="second --record-json dump or sqlite store")
    parser.add_argument(
        "--decisions",
        action="store_true",
        help="additionally require matching per-record decision digests "
        "(scorer-backend decision-parity gate)",
    )
    parser.add_argument(
        "--campaign",
        type=str,
        default="",
        help="campaign config-hash prefix (store files holding several "
        "campaigns)",
    )
    args = parser.parse_args(argv)

    left_rows = record_rows(args.left, decisions=args.decisions,
                            campaign=args.campaign)
    right_rows = record_rows(args.right, decisions=args.decisions,
                             campaign=args.campaign)
    if len(left_rows) != len(right_rows):
        print(
            f"FAIL: {args.left} has {len(left_rows)} records, "
            f"{args.right} has {len(right_rows)}"
        )
        return 1
    for index, (left, right) in enumerate(zip(left_rows, right_rows)):
        if left != right:
            diff = sorted(key for key in set(left) | set(right) if left.get(key) != right.get(key))
            print(f"FAIL: record {index} differs on {diff}:")
            for key in diff:
                print(f"  {key}: {left.get(key)!r} != {right.get(key)!r}")
            return 1
    what = "records + decision digests" if args.decisions else "records"
    print(
        f"OK: {len(left_rows)} {what} bit-identical "
        f"between {args.left} and {args.right}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
