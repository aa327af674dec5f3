"""The ``repro`` click command group.

Every command operates against a store directory (see
:class:`~repro.engine.factory.StoreDir` for the on-disk contract).
Offline commands rebuild an engine by replaying the store's durable
ingest log; commands given ``--url`` talk to a live ``repro serve``
endpoint over HTTP instead — same commands, same output shapes, against
both a single-engine and a sharded store.
"""

from __future__ import annotations

import csv
import json
import sys
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any

import click

from ..engine import LayoutEngine, ShardedEngine
from ..engine.factory import (
    StoreDir,
    StoreManifest,
    reorganize_derived,
    table_from_rows,
)
from ..queries.parser import PredicateSyntaxError, parse_predicate
from ..queries.query import Query
from ..server.app import ServerConfig, run_server
from ..server.events import EventRing
from .formatting import FORMATS, format_rows

__all__ = [
    "abort",
    "events",
    "ingest",
    "init",
    "main",
    "query",
    "reorg",
    "serve",
    "shards",
    "stats",
]

_STATS_COLUMNS = [
    "queries_served",
    "rows_ingested",
    "batches_ingested",
    "num_switches",
    "reorgs_completed",
    "reorg_seconds",
    "movement_charged",
    "bytes_read",
]

_RESULT_COLUMNS = [
    "rows_matched",
    "rows_scanned",
    "total_rows",
    "partitions_scanned",
    "partitions_total",
    "bytes_read",
    "elapsed_seconds",
]


def _format_option(fn: Any) -> Any:
    return click.option(
        "--format",
        "fmt",
        type=click.Choice(FORMATS),
        default="table",
        show_default=True,
        help="Output format.",
    )(fn)


def _emit(rows: list[dict[str, Any]], columns: list[str], fmt: str) -> None:
    click.echo(format_rows(rows, columns, fmt))


def _http(url: str, path: str, payload: dict[str, Any] | None = None) -> dict[str, Any]:
    """One JSON request against a live server; errors become ClickExceptions."""
    full = url.rstrip("/") + path
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(
        full,
        data=data,
        method="POST" if payload is not None else "GET",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return dict(json.loads(response.read().decode("utf-8")))
    except urllib.error.HTTPError as error:
        try:
            message = json.loads(error.read().decode("utf-8")).get("error", str(error))
        except (ValueError, AttributeError):
            message = str(error)
        raise click.ClickException(f"{full}: HTTP {error.code}: {message}") from None
    except urllib.error.URLError as error:
        raise click.ClickException(f"cannot reach {full}: {error.reason}") from None


def _store(root: Path) -> StoreDir:
    store = StoreDir(root)
    if not store.exists():
        raise click.ClickException(
            f"{root} is not an initialized store (run 'repro init' first)"
        )
    return store


def _open_replay(
    store: StoreDir, ring: EventRing | None = None
) -> LayoutEngine | ShardedEngine:
    """Open an offline engine over the store (derived state is rebuilt)."""
    try:
        if ring is not None:
            return store.open_engine(shard_events=ring)
        return store.open_engine()
    except (ValueError, RuntimeError) as error:
        raise click.ClickException(str(error)) from error


@click.group()
def main() -> None:
    """Operate a layout-optimizing store: serve, ingest, query, inspect.

    Commands act on a STORE directory created by 'repro init'.  Pass
    --url to target a live 'repro serve' endpoint instead of opening
    the store in-process.
    """


@main.command()
@click.argument("store", type=click.Path(path_type=Path))
@click.option(
    "--config",
    "config_path",
    type=click.Path(exists=True, dir_okay=False, path_type=Path),
    required=True,
    help="Manifest JSON: schema, builder, engine knobs, optional shards.",
)
def init(store: Path, config_path: Path) -> None:
    """Initialize STORE from a manifest file."""
    try:
        manifest = StoreManifest.from_dict(json.loads(config_path.read_text()))
        created = StoreDir.initialize(store, manifest)
    except (ValueError, KeyError, FileExistsError) as error:
        raise click.ClickException(str(error)) from error
    shards = manifest.shards.num_shards if manifest.shards else 1
    click.echo(f"initialized {created.root} ({shards} shard(s))")


@main.command()
@click.argument("store", type=click.Path(path_type=Path))
@click.option(
    "--csv",
    "csv_path",
    type=click.Path(exists=True, dir_okay=False, allow_dash=True, path_type=Path),
    required=True,
    help="CSV file with a header row ('-' reads stdin).",
)
@click.option("--url", default=None, help="Send rows to a live server instead.")
def ingest(store: Path, csv_path: Path, url: str | None) -> None:
    """Append a CSV batch to STORE's durable ingest log."""
    store_dir = _store(store)
    if str(csv_path) == "-":
        rows = list(csv.DictReader(sys.stdin))
    else:
        with open(csv_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
    if not rows:
        raise click.ClickException("CSV has no data rows")
    if url is not None:
        response = _http(url, "/ingest", {"rows": rows})
        click.echo(
            f"ingested {response['rows_ingested']} rows via server "
            f"(batch {response['batches_logged'] - 1})"
        )
        return
    try:
        table = table_from_rows(store_dir.manifest.schema, rows)
        store_dir.append_batch(table)
    except ValueError as error:
        raise click.ClickException(str(error)) from error
    click.echo(
        f"ingested {table.num_rows} rows "
        f"(batch {store_dir.batches_logged - 1}, {store_dir.rows_logged()} rows total)"
    )


@main.command()
@click.argument("store", type=click.Path(path_type=Path))
@click.option("--where", required=True, help="Predicate text, e.g. \"price >= 10\".")
@click.option("--url", default=None, help="Query a live server instead.")
@_format_option
def query(store: Path, where: str, url: str | None, fmt: str) -> None:
    """Run one predicate against STORE and report the scan accounting."""
    store_dir = _store(store)
    if url is not None:
        result = _http(url, "/query", {"where": where})["result"]
    else:
        try:
            predicate = parse_predicate(where, store_dir.manifest.schema)
        except PredicateSyntaxError as error:
            raise click.ClickException(str(error)) from error
        engine = _open_replay(store_dir)
        try:
            outcome = engine.query(Query(predicate))
        finally:
            engine.close()
        result = {name: getattr(outcome, name) for name in _RESULT_COLUMNS}
    _emit([{"where": where, **result}], ["where", *_RESULT_COLUMNS], fmt)


@main.command()
@click.argument("store", type=click.Path(path_type=Path))
@click.option("--url", default=None, help="Read stats from a live server instead.")
@_format_option
def stats(store: Path, url: str | None, fmt: str) -> None:
    """Show STORE's engine counters (merged across shards)."""
    store_dir = _store(store)
    if url is not None:
        payload = _http(url, "/stats")
        counters, extra = payload["stats"], {
            "reorg_active": payload["reorg_active"],
            "num_shards": payload["num_shards"],
        }
    else:
        engine = _open_replay(store_dir)
        try:
            counters = engine.stats().to_dict()
            extra = {
                "reorg_active": engine.reorg_active,
                "num_shards": engine.num_shards
                if isinstance(engine, ShardedEngine)
                else 1,
            }
        finally:
            engine.close()
    rows = [{"counter": name, "value": counters[name]} for name in _STATS_COLUMNS]
    rows.extend({"counter": name, "value": value} for name, value in extra.items())
    _emit(rows, ["counter", "value"], fmt)


@main.command()
@click.argument("store", type=click.Path(path_type=Path))
@click.option("--url", default=None, help="Tail a live server's event ring instead.")
@click.option("--since", type=int, default=None, help="Only events with seq > SINCE.")
@click.option("--limit", type=int, default=None, help="Keep only the newest LIMIT.")
@_format_option
def events(
    store: Path, url: str | None, since: int | None, limit: int | None, fmt: str
) -> None:
    """Show shard-tagged engine events (offline: the replay's events)."""
    if url is not None:
        params = []
        if since is not None:
            params.append(f"since={since}")
        if limit is not None:
            params.append(f"limit={limit}")
        suffix = "?" + "&".join(params) if params else ""
        records = _http(url, f"/events{suffix}")["events"]
    else:
        ring = EventRing(capacity=4096)
        engine = _open_replay(_store(store), ring)
        engine.close()
        records = ring.tail(since, limit)
    rows = [
        {
            "seq": record["seq"],
            "shard": record["shard"],
            "event": record["event"],
            "payload": record["payload"],
        }
        for record in records
    ]
    _emit(rows, ["seq", "shard", "event", "payload"], fmt)


@main.command()
@click.argument("store", type=click.Path(path_type=Path))
@click.option("--url", default=None, help="Read shard stats from a live server.")
@_format_option
def shards(store: Path, url: str | None, fmt: str) -> None:
    """Show per-shard counters (a single-engine store reports shard 0)."""
    store_dir = _store(store)
    if url is not None:
        rows = _http(url, "/shards")["shards"]
    else:
        engine = _open_replay(store_dir)
        try:
            if isinstance(engine, ShardedEngine):
                per_shard = engine.shard_stats()
                actives = [shard.reorg_active for shard in engine.shards]
            else:
                per_shard = [engine.stats()]
                actives = [engine.reorg_active]
        finally:
            engine.close()
        rows = [
            {"shard": index, "reorg_active": active, **stats.to_dict()}
            for index, (stats, active) in enumerate(
                zip(per_shard, actives, strict=True)
            )
        ]
    _emit(rows, ["shard", "reorg_active", *_STATS_COLUMNS], fmt)


@main.command()
@click.argument("store", type=click.Path(path_type=Path))
@click.option(
    "--builder",
    "builder_json",
    default=None,
    help='Builder spec JSON, e.g. \'{"kind": "range", "column": "price"}\' '
    "(default: the manifest's builder).",
)
@click.option(
    "--shards",
    "shards_csv",
    default=None,
    help="Comma-separated shard indices to reorganize (sharded stores only).",
)
@click.option("--url", default=None, help="Start the reorg on a live server instead.")
@_format_option
def reorg(
    store: Path,
    builder_json: str | None,
    shards_csv: str | None,
    url: str | None,
    fmt: str,
) -> None:
    """Reorganize STORE's layout.

    Against a live server (--url) the reorganization runs pipelined under
    traffic.  Offline it is a dry-run measurement: the engine replays the
    log, performs the reorganization, and reports the movement accounting
    — the derived layout is rebuilt from the log on the next open either
    way.
    """
    store_dir = _store(store)
    payload: dict[str, Any] = {}
    if builder_json is not None:
        try:
            payload["builder"] = json.loads(builder_json)
        except ValueError as error:
            raise click.ClickException(f"--builder is not valid JSON: {error}") from None
    if shards_csv is not None:
        try:
            payload["shards"] = [int(part) for part in shards_csv.split(",") if part]
        except ValueError:
            raise click.ClickException(
                "--shards must be comma-separated integers"
            ) from None
    if url is not None:
        response = _http(url, "/reorg", payload)
        _emit(
            [response], ["started", "target", "pipelined"], fmt
        )
        return
    engine = _open_replay(store_dir)
    try:
        target = reorganize_derived(
            engine, store_dir, payload.get("builder"), payload.get("shards")
        )
        engine.run_until_idle()
        counters = engine.stats().to_dict()
    except (ValueError, RuntimeError) as error:
        raise click.ClickException(str(error)) from error
    finally:
        engine.close()
    _emit(
        [
            {
                "target": target.layout_id,
                "num_switches": counters["num_switches"],
                "reorgs_completed": counters["reorgs_completed"],
                "movement_charged": counters["movement_charged"],
                "reorg_seconds": counters["reorg_seconds"],
            }
        ],
        ["target", "num_switches", "reorgs_completed", "movement_charged", "reorg_seconds"],
        fmt,
    )


@main.command()
@click.option("--url", required=True, help="The live server to abort on.")
def abort(url: str) -> None:
    """Abort a live server's in-flight reorganization (refunds its budget)."""
    response = _http(url, "/abort", {})
    click.echo(f"aborted; refunded movement budget {response['refunded']:.6g}")


@main.command()
@click.argument("store", type=click.Path(path_type=Path))
@click.option("--host", default="127.0.0.1", show_default=True, help="Bind address.")
@click.option("--port", default=8000, show_default=True, help="Port (0 = pick free).")
@click.option(
    "--queue-size", default=64, show_default=True, help="Bounded request queue depth."
)
@click.option("--workers", default=4, show_default=True, help="Worker tasks/threads.")
@click.option(
    "--drain",
    type=click.Choice(["abort", "wait"]),
    default="abort",
    show_default=True,
    help="On shutdown: abort a live reorg, or wait for it to finish.",
)
@click.option(
    "--events-capacity", default=1024, show_default=True, help="/events ring size."
)
def serve(
    store: Path,
    host: str,
    port: int,
    queue_size: int,
    workers: int,
    drain: str,
    events_capacity: int,
) -> None:
    """Serve STORE over HTTP until interrupted (see docs/operations.md)."""
    _store(store)
    try:
        config = ServerConfig(
            host=host,
            port=port,
            queue_size=queue_size,
            workers=workers,
            drain_mode=drain,
            events_capacity=events_capacity,
        )
    except ValueError as error:
        raise click.ClickException(str(error)) from error

    def announce(message: str) -> None:
        click.echo(message)
        sys.stdout.flush()

    run_server(store, config, announce=announce)
