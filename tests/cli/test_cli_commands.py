"""CLI round-trip: init → ingest → query → stats → reorg → events → shards.

Runs every command through click's ``CliRunner`` against a temp store —
once single-engine and once 4-shard, from the same commands (the
acceptance criterion): only the manifest differs.
"""

from __future__ import annotations

import csv
import json
import random

import pytest
from click.testing import CliRunner

from repro.cli.formatting import format_rows
from repro.cli.main import main

VOCAB = ["APAC", "EU", "US"]


def _manifest_dict(sharded: bool) -> dict:
    manifest = {
        "version": 1,
        "schema": [
            {"name": "price", "kind": "numeric"},
            {"name": "qty", "kind": "numeric"},
            {"name": "region", "kind": "categorical", "vocabulary": VOCAB},
        ],
        "builder": {"kind": "range", "column": "price"},
        "engine": {"num_partitions": 8, "alpha": 4.0, "seed": 7},
    }
    if sharded:
        manifest["shards"] = {"num_shards": 4, "shard_key": "price"}
    return manifest


@pytest.fixture(params=[False, True], ids=["single", "sharded4"])
def store_setup(request, tmp_path):
    """(runner, store_path, csv_path, expected >=50 matches, total rows)."""
    runner = CliRunner()
    config = tmp_path / "manifest.json"
    config.write_text(json.dumps(_manifest_dict(request.param)))
    csv_path = tmp_path / "batch.csv"
    rows = []
    rng = random.Random(13)
    for _ in range(400):
        rows.append(
            {
                "price": round(rng.uniform(0, 100), 3),
                "qty": rng.randint(1, 9),
                "region": rng.choice(VOCAB),
            }
        )
    with open(csv_path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=["price", "qty", "region"])
        writer.writeheader()
        writer.writerows(rows)
    expected = sum(1 for row in rows if row["price"] >= 50 and row["region"] != "APAC")
    store = tmp_path / "store"
    result = runner.invoke(main, ["init", str(store), "--config", str(config)])
    assert result.exit_code == 0, result.output
    return runner, store, csv_path, expected, len(rows)


def _invoke(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, f"{args}: {result.output}"
    return result.output


def test_cli_round_trip(store_setup):
    runner, store, csv_path, expected, total = store_setup

    out = _invoke(runner, ["ingest", str(store), "--csv", str(csv_path)])
    assert "ingested 400 rows" in out

    out = _invoke(
        runner,
        [
            "query",
            str(store),
            "--where",
            "price >= 50 and region in ('EU','US')",
            "--format",
            "json",
        ],
    )
    (record,) = json.loads(out)
    assert record["rows_matched"] == expected
    assert record["total_rows"] == total

    out = _invoke(runner, ["stats", str(store), "--format", "json"])
    counters = {row["counter"]: row["value"] for row in json.loads(out)}
    assert counters["rows_ingested"] == total
    assert counters["batches_ingested"] >= 1

    out = _invoke(runner, ["reorg", str(store), "--format", "json"])
    (reorg_row,) = json.loads(out)
    assert reorg_row["reorgs_completed"] >= 1
    assert reorg_row["movement_charged"] > 0

    out = _invoke(runner, ["events", str(store), "--format", "json"])
    events = json.loads(out)
    assert any("ingest" in event["event"] for event in events)
    assert all(isinstance(event["shard"], int) for event in events)

    out = _invoke(runner, ["shards", str(store), "--format", "json"])
    shard_rows = json.loads(out)
    assert sum(row["rows_ingested"] for row in shard_rows) == total

    # the same query again after the reorg dry-run: derived state rebuilt
    out = _invoke(
        runner,
        ["query", str(store), "--where", "price >= 50 and region in ('EU','US')",
         "--format", "csv"],
    )
    assert str(expected) in out


def test_cli_column_free_predicates_count_every_row(store_setup):
    """``true`` references no column; the projected read still sees every row."""
    runner, store, csv_path, _, total = store_setup
    _invoke(runner, ["ingest", str(store), "--csv", str(csv_path)])
    for where, matched in (("true", total), ("not false", total), ("false", 0)):
        out = _invoke(runner, ["query", str(store), "--where", where, "--format", "json"])
        (record,) = json.loads(out)
        assert record["rows_matched"] == matched, where
        assert record["total_rows"] == total


def test_cli_shard_counts(store_setup):
    runner, store, csv_path, _, _ = store_setup
    _invoke(runner, ["ingest", str(store), "--csv", str(csv_path)])
    out = _invoke(runner, ["shards", str(store), "--format", "json"])
    shard_rows = json.loads(out)
    manifest = json.loads((store / "store.json").read_text())
    expected_shards = manifest.get("shards", {}).get("num_shards", 1)
    assert len(shard_rows) == expected_shards


def test_cli_errors_are_clean(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["query", str(tmp_path / "no-store"), "--where", "x > 1"])
    assert result.exit_code != 0
    assert "not an initialized store" in result.output

    config = tmp_path / "manifest.json"
    config.write_text(json.dumps(_manifest_dict(False)))
    store = tmp_path / "store"
    assert runner.invoke(main, ["init", str(store), "--config", str(config)]).exit_code == 0
    # double init refuses
    result = runner.invoke(main, ["init", str(store), "--config", str(config)])
    assert result.exit_code != 0
    assert "already initialized" in result.output
    # malformed predicate surfaces the parser's message
    csv_path = tmp_path / "one.csv"
    csv_path.write_text("price,qty,region\n1.0,2,EU\n")
    assert runner.invoke(main, ["ingest", str(store), "--csv", str(csv_path)]).exit_code == 0
    result = runner.invoke(main, ["query", str(store), "--where", "price >"])
    assert result.exit_code != 0
    assert "expected a number or quoted string" in result.output
    # reorg on an empty (different) store complains
    empty = tmp_path / "empty"
    assert runner.invoke(main, ["init", str(empty), "--config", str(config)]).exit_code == 0
    result = runner.invoke(main, ["reorg", str(empty)])
    assert result.exit_code != 0
    assert "no data" in result.output


def test_ingest_rejects_bad_csv(tmp_path):
    runner = CliRunner()
    config = tmp_path / "manifest.json"
    config.write_text(json.dumps(_manifest_dict(False)))
    store = tmp_path / "store"
    assert runner.invoke(main, ["init", str(store), "--config", str(config)]).exit_code == 0
    bad = tmp_path / "bad.csv"
    bad.write_text("price,qty,region\n1.0,2,MARS\n")
    result = runner.invoke(main, ["ingest", str(store), "--csv", str(bad)])
    assert result.exit_code != 0
    assert "MARS" in result.output
    empty = tmp_path / "empty.csv"
    empty.write_text("price,qty,region\n")
    result = runner.invoke(main, ["ingest", str(store), "--csv", str(empty)])
    assert result.exit_code != 0
    assert "no data rows" in result.output


def test_format_rows_shapes():
    rows = [{"a": 1, "b": "x"}, {"a": 2.5, "b": "longer"}]
    table = format_rows(rows, ["a", "b"], "table")
    assert table.splitlines()[0].split() == ["a", "b"]
    assert "2.5" in table
    as_csv = format_rows(rows, ["a", "b"], "csv")
    assert as_csv.splitlines()[0] == "a,b"
    assert json.loads(format_rows(rows, None, "json")) == rows
    with pytest.raises(ValueError, match="unknown format"):
        format_rows(rows, None, "xml")
    assert format_rows([], None, "csv") == ""
