"""Store directories: the durable contract the operator surface drives.

The engine's in-memory bookkeeping (layouts, partition registries, cost
caches) is *derived* state — rebuildable from the rows that were
ingested.  A **store directory** makes that explicit so separate
processes (the ``repro`` CLI, the HTTP server, a post-crash restart) can
all drive the same store:

``store.json``
    The manifest: the table schema, the engine knobs
    (:class:`~repro.engine.config.EngineConfig` subset), a layout-builder
    spec, and an optional shard spec.  Written once by
    :meth:`StoreDir.initialize`; every later open reads it back.

``wal/``
    A durable, append-only ingest log — one partition file
    (``part-NNNNN`` plus
    :data:`~repro.storage.partition_store.PARTITION_SUFFIX`) per ingested
    batch, written through the sanctioned
    :class:`~repro.storage.partition_store.PartitionStore` writer and read
    back with :func:`~repro.storage.partition_store.read_columns`, so the
    file format is known only to the partition store.  This is the source
    of truth: :meth:`StoreDir.open_engine` replays it in sequence order,
    so the opened engine always serves exactly the acknowledged rows.
    Batches an earlier version logged as ``.npz`` archives replay too, and
    sequence numbers continue across both suffixes.  A partial tail file
    (a batch whose write was cut by a crash) fails the format's checks
    and is dropped — it was never acknowledged.

``data/``
    The engine's partition files — derived state.  ``open_engine`` wipes
    and rebuilds it, which is what makes a ``SIGKILL`` mid-movement-step
    harmless: whatever staging/sidecar debris the dead process left
    behind is discarded wholesale and the fresh engine replays the log.

The factory opens either a single :class:`~repro.engine.LayoutEngine` or
a :class:`~repro.engine.sharded.ShardedEngine` (when the manifest has a
shard spec) from the *same* directory layout, so every CLI command and
HTTP route works identically against both.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ..layouts.base import DataLayout, LayoutBuilder
from ..layouts.hash_layout import HashLayoutBuilder, RoundRobinLayoutBuilder
from ..layouts.range_layout import RangeLayoutBuilder
from ..layouts.zorder import ZOrderLayoutBuilder
from ..storage.partition_store import (
    LEGACY_SUFFIX,
    PARTITION_SUFFIX,
    PartitionStore,
    read_columns,
)
from ..storage.table import ColumnSpec, Schema, Table
from .config import EngineConfig
from .engine import LayoutEngine
from .events import EngineEvents, _as_tuple
from .sharded import ShardedEngine, ShardEventObserver, _ShardTagger

__all__ = [
    "ShardSpec",
    "StoreDir",
    "StoreManifest",
    "build_target",
    "make_builder",
    "reorganize_derived",
    "schema_from_dict",
    "schema_to_dict",
    "snapshot_table",
    "table_from_columns",
    "table_from_rows",
]

#: manifest file name inside a store directory
_MANIFEST_NAME = "store.json"
#: ingest-log directory name inside a store directory
_WAL_DIR = "wal"
#: derived partition-file directory name inside a store directory
_DATA_DIR = "data"

#: engine knobs a manifest may carry (the JSON-safe EngineConfig subset)
_ENGINE_KEYS = frozenset(
    {
        "num_partitions",
        "data_sample_fraction",
        "alpha",
        "async_reorg",
        "step_partitions",
        "mover_threads",
        "ingest_during_reorg",
        "compress",
        "seed",
    }
)

#: an ingest-log batch file: current partition files and legacy archives
_WAL_FILE = re.compile(
    rf"part-(\d{{5}})(?:{re.escape(PARTITION_SUFFIX)}|{re.escape(LEGACY_SUFFIX)})"
)


def schema_to_dict(schema: Schema) -> list[dict[str, Any]]:
    """Serialize a :class:`~repro.storage.table.Schema` to JSON-safe specs."""
    specs: list[dict[str, Any]] = []
    for spec in schema:
        entry: dict[str, Any] = {"name": spec.name, "kind": spec.kind}
        if spec.vocabulary is not None:
            entry["vocabulary"] = list(spec.vocabulary)
        specs.append(entry)
    return specs


def schema_from_dict(specs: Iterable[dict[str, Any]]) -> Schema:
    """Rebuild a :class:`~repro.storage.table.Schema` from manifest specs."""
    columns = []
    for entry in specs:
        vocabulary = entry.get("vocabulary")
        columns.append(
            ColumnSpec(
                name=entry["name"],
                kind=entry["kind"],
                vocabulary=tuple(vocabulary) if vocabulary is not None else None,
            )
        )
    return Schema(columns=tuple(columns))


def make_builder(spec: dict[str, Any]) -> LayoutBuilder:
    """Construct a layout builder from a manifest spec, by ``kind``.

    Supported kinds: ``hash`` / ``range`` (both take ``column``),
    ``roundrobin`` (no parameters) and ``zorder`` (optional ``columns``
    list).  Unknown kinds or missing parameters raise ``ValueError`` with
    the offending spec, so a typo in ``store.json`` fails at open time.
    """
    kind = spec.get("kind")
    if kind == "hash" or kind == "range":
        column = spec.get("column")
        if not isinstance(column, str) or not column:
            raise ValueError(f"builder kind {kind!r} requires a 'column' name")
        return HashLayoutBuilder(column) if kind == "hash" else RangeLayoutBuilder(column)
    if kind == "roundrobin":
        return RoundRobinLayoutBuilder()
    if kind == "zorder":
        columns = spec.get("columns")
        if not columns:
            raise ValueError("builder kind 'zorder' requires a 'columns' list")
        return ZOrderLayoutBuilder(columns=tuple(columns))
    raise ValueError(
        f"unknown builder kind {kind!r}; expected one of "
        "'hash', 'range', 'roundrobin', 'zorder'"
    )


@dataclass(frozen=True)
class ShardSpec:
    """Sharding half of a manifest: how many shards, keyed on which column."""

    #: number of hash shards the store fans out across
    num_shards: int
    #: the column rows hash-shard on
    shard_key: str

    def __post_init__(self) -> None:
        """Validate the spec; raises ``ValueError`` on bad fields."""
        if self.num_shards < 1:
            raise ValueError("num_shards must be positive")
        if not self.shard_key:
            raise ValueError("shard_key must name a column")


@dataclass(frozen=True)
class StoreManifest:
    """Everything needed to open an engine over a store directory.

    The JSON image written to ``store.json``: the table schema, a layout
    builder spec (consumed by :func:`make_builder`), the engine knobs
    (validated against :class:`~repro.engine.config.EngineConfig` at
    open), and an optional :class:`ShardSpec` selecting sharded serving.
    """

    #: the store's table schema
    schema: Schema
    #: layout-builder spec (``{"kind": ..., ...}``; see :func:`make_builder`)
    builder: dict[str, Any] = field(default_factory=lambda: {"kind": "roundrobin"})
    #: JSON-safe :class:`~repro.engine.config.EngineConfig` overrides
    engine: dict[str, Any] = field(default_factory=dict)
    #: shard spec, or ``None`` for a single engine
    shards: ShardSpec | None = None

    def __post_init__(self) -> None:
        """Validate the manifest; raises ``ValueError`` on bad fields."""
        unknown = set(self.engine) - _ENGINE_KEYS
        if unknown:
            raise ValueError(
                f"unknown engine keys in manifest: {sorted(unknown)}; "
                f"allowed: {sorted(_ENGINE_KEYS)}"
            )
        make_builder(self.builder)  # fail at construction, not at open
        if self.shards is not None and self.shards.shard_key not in self.schema:
            raise ValueError(
                f"shard key {self.shards.shard_key!r} is not a schema column"
            )

    def to_dict(self) -> dict[str, Any]:
        """JSON image of the manifest (the ``store.json`` contents)."""
        payload: dict[str, Any] = {
            "version": 1,
            "schema": schema_to_dict(self.schema),
            "builder": dict(self.builder),
            "engine": dict(self.engine),
        }
        if self.shards is not None:
            payload["shards"] = {
                "num_shards": self.shards.num_shards,
                "shard_key": self.shards.shard_key,
            }
        return payload

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "StoreManifest":
        """Rebuild a manifest from its JSON image; strict on structure."""
        if "schema" not in data:
            raise ValueError("manifest has no 'schema' section")
        shards_data = data.get("shards")
        shards = (
            ShardSpec(
                num_shards=int(shards_data["num_shards"]),
                shard_key=str(shards_data["shard_key"]),
            )
            if shards_data
            else None
        )
        return cls(
            schema=schema_from_dict(data["schema"]),
            builder=dict(data.get("builder") or {"kind": "roundrobin"}),
            engine=dict(data.get("engine") or {}),
            shards=shards,
        )


def table_from_columns(schema: Schema, columns: Mapping[str, Sequence[Any]]) -> Table:
    """Build a :class:`~repro.storage.table.Table` from JSON-ish columns.

    The wire format of ``POST /ingest`` and the CLI's CSV loader: numeric
    columns become ``float64`` arrays; categorical columns accept either
    vocabulary strings (encoded to dictionary codes) or raw integer
    codes.  Missing columns, unknown columns, ragged lengths, and
    out-of-vocabulary values all raise ``ValueError`` naming the problem.
    """
    missing = [name for name in schema.names() if name not in columns]
    if missing:
        raise ValueError(f"ingest payload missing columns: {missing}")
    unknown = sorted(set(columns) - set(schema.names()))
    if unknown:
        raise ValueError(f"ingest payload has unknown columns: {unknown}")
    lengths = {name: len(columns[name]) for name in schema.names()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"ingest payload columns have unequal lengths: {lengths}")
    arrays: dict[str, np.ndarray] = {}
    for spec in schema:
        values = columns[spec.name]
        if spec.kind == "categorical":
            codes = []
            for value in values:
                if isinstance(value, str):
                    try:
                        codes.append(spec.encode(value))
                    except KeyError as error:
                        raise ValueError(str(error)) from None
                else:
                    code = int(value)
                    assert spec.vocabulary is not None  # categorical spec
                    if not 0 <= code < len(spec.vocabulary):
                        raise ValueError(
                            f"code {code} out of range for column {spec.name!r}"
                        )
                    codes.append(code)
            arrays[spec.name] = np.asarray(codes, dtype=np.int64)
        else:
            try:
                arrays[spec.name] = np.asarray(
                    [float(value) for value in values], dtype=np.float64
                )
            except (TypeError, ValueError):
                raise ValueError(
                    f"column {spec.name!r} is numeric; got a non-numeric value"
                ) from None
    return Table(schema, arrays)


def table_from_rows(schema: Schema, rows: Sequence[Mapping[str, Any]]) -> Table:
    """Build a :class:`~repro.storage.table.Table` from row dictionaries.

    Row-oriented twin of :func:`table_from_columns` (the ``rows`` form of
    ``POST /ingest``); a row missing one of the schema's columns raises
    ``ValueError`` with the row index.
    """
    if not rows:
        raise ValueError("ingest payload has no rows")
    columns: dict[str, list[Any]] = {name: [] for name in schema.names()}
    for index, row in enumerate(rows):
        for name in schema.names():
            if name not in row:
                raise ValueError(f"row {index} is missing column {name!r}")
            columns[name].append(row[name])
    return table_from_columns(schema, columns)


def snapshot_table(engine: LayoutEngine, schema: Schema) -> Table:
    """Read an engine's visible snapshot back into one in-memory table.

    Used by the operator surface to derive reorganization targets: the
    builder needs a data sample, and the visible snapshot is the rows the
    reorganization will actually move.
    """
    stored = engine.stored()
    assert engine.store is not None  # stored() requires an open engine
    return engine.store.read_all(stored, schema)


def build_target(
    builder_spec: dict[str, Any],
    sample: Table,
    num_partitions: int,
    seed: int = 0,
) -> DataLayout:
    """Build a reorganization target layout from a builder spec and data.

    The workload argument is empty — operator-driven reorganizations are
    explicit, so the builder derives its layout from the data sample
    alone (the same contract as
    :meth:`~repro.engine.LayoutEngine.open` deriving an initial layout).
    """
    rng = np.random.default_rng(seed)
    return make_builder(builder_spec).build(sample, [], num_partitions, rng)


def reorganize_derived(
    engine: LayoutEngine | ShardedEngine,
    store_dir: "StoreDir",
    builder_spec: dict[str, Any] | None = None,
    shards: Sequence[int] | None = None,
) -> DataLayout:
    """Derive a target from the rows ``engine`` holds and reorganize into it.

    The operator plane's one "reorganize" (``repro reorg`` offline,
    ``POST /reorg`` live): the target is built by ``builder_spec``
    (default: the manifest's) over every data-holding engine's snapshot;
    ``shards`` restricts a sharded engine's move.  Returns the target;
    raises ``ValueError`` when there is no data to derive it from.
    """
    sharded = isinstance(engine, ShardedEngine)
    holders = [e for e in (engine.shards if sharded else (engine,)) if e.holds_data]
    if not holders:
        raise ValueError("store holds no data to reorganize")
    manifest = store_dir.manifest
    config = store_dir.engine_config()
    pieces = [snapshot_table(e, manifest.schema) for e in holders]
    sample = pieces[0] if len(pieces) == 1 else Table.concat(pieces)
    target = build_target(
        builder_spec or manifest.builder, sample, config.num_partitions, config.seed
    )
    if sharded:
        engine.reorganize(target, shards=shards)
    else:
        engine.reorganize(target)
    return target


class StoreDir:
    """One store directory: manifest + durable ingest log + derived data.

    Construct over a directory previously created by :meth:`initialize`
    (opening a directory without a manifest raises ``FileNotFoundError``
    with the path).  All file lifecycle flows through
    :class:`~repro.storage.partition_store.PartitionStore`, so the
    store-directory layer obeys the same staging discipline as the
    engine's own storage.
    """

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self._manifest: StoreManifest | None = None

    # ------------------------------------------------------------------ layout
    @property
    def manifest_path(self) -> Path:
        """Where the manifest lives (``<root>/store.json``)."""
        return self.root / _MANIFEST_NAME

    @property
    def wal_root(self) -> Path:
        """Where the durable ingest log lives (``<root>/wal``)."""
        return self.root / _WAL_DIR

    @property
    def data_root(self) -> Path:
        """Where the engine's derived partition files live (``<root>/data``)."""
        return self.root / _DATA_DIR

    def exists(self) -> bool:
        """Whether this directory holds an initialized store."""
        return self.manifest_path.exists()

    # -------------------------------------------------------------- lifecycle
    @classmethod
    def initialize(cls, root: Path | str, manifest: StoreManifest) -> "StoreDir":
        """Create a store directory with ``manifest``; returns the store.

        Refuses to overwrite an existing manifest — re-initializing a
        live store would orphan its ingest log's schema.
        """
        store = cls(root)
        if store.exists():
            raise FileExistsError(f"store already initialized: {store.manifest_path}")
        store.root.mkdir(parents=True, exist_ok=True)
        store.wal_root.mkdir(parents=True, exist_ok=True)
        store.manifest_path.write_text(json.dumps(manifest.to_dict(), indent=2) + "\n")
        store._manifest = manifest
        return store

    @property
    def manifest(self) -> StoreManifest:
        """The store's manifest, loaded (and cached) from ``store.json``."""
        if self._manifest is None:
            if not self.exists():
                raise FileNotFoundError(
                    f"no store manifest at {self.manifest_path}; initialize first"
                )
            self._manifest = StoreManifest.from_dict(
                json.loads(self.manifest_path.read_text())
            )
        return self._manifest

    # ------------------------------------------------------------- ingest log
    def _wal_store(self) -> PartitionStore:
        """The partition store that owns the ingest log's file lifecycle."""
        return PartitionStore(self.wal_root, compress=True)

    def _wal_files(self) -> list[tuple[int, Path]]:
        """``(sequence, path)`` of the log's batch files, in append order."""
        entries = []
        if self.wal_root.exists():
            for path in self.wal_root.glob("part-*"):
                match = _WAL_FILE.fullmatch(path.name)
                if match:
                    entries.append((int(match.group(1)), path))
        return sorted(entries)

    def append_batch(self, batch: Table) -> Path:
        """Durably append one batch to the ingest log; returns its file.

        The batch is schema-checked first, so a mismatched ingest is
        rejected before anything lands on disk.  Appends are sequential
        (one writer at a time — the CLI, or the server's worker pool
        which serializes engine work); the log file is the acknowledgment.
        """
        if batch.schema != self.manifest.schema:
            raise ValueError("batch schema does not match the store manifest")
        if batch.num_rows == 0:
            raise ValueError("refusing to log an empty batch")
        entries = self._wal_files()
        next_seq = entries[-1][0] + 1 if entries else 0
        written = self._wal_store().write_partition_file(
            batch, np.arange(batch.num_rows), next_seq, self.wal_root
        )
        return Path(written.path)

    def read_batches(self) -> list[Table]:
        """Replay the ingest log into in-memory batches, in append order.

        A partial *tail* file (the one write a crash may have cut short)
        is dropped — that batch was never acknowledged.  A corrupt file
        anywhere earlier in the log is real damage and raises.
        """
        entries = self._wal_files()
        batches: list[Table] = []
        schema = self.manifest.schema
        for position, (_, path) in enumerate(entries):
            try:
                stored = read_columns(path, schema.names())
                columns = {name: stored[name] for name in schema.names()}
            except (OSError, KeyError, ValueError) as error:
                if position == len(entries) - 1:
                    # Unacknowledged tail write cut by a crash: not data loss.
                    break
                raise RuntimeError(
                    f"ingest log corrupt at {path} (not the tail): {error}"
                ) from error
            batches.append(Table(schema, columns))
        return batches

    @property
    def batches_logged(self) -> int:
        """Number of batch files currently in the ingest log."""
        return len(self._wal_files())

    def rows_logged(self) -> int:
        """Total rows across the log's readable batches."""
        return sum(batch.num_rows for batch in self.read_batches())

    # ----------------------------------------------------------------- engine
    def engine_config(self) -> EngineConfig:
        """The :class:`~repro.engine.config.EngineConfig` the manifest implies."""
        manifest = self.manifest
        return EngineConfig(
            store_root=self.data_root,
            builder=make_builder(manifest.builder),
            **manifest.engine,
        )

    def reset_data(self) -> None:
        """Discard the derived ``data/`` tree (staging debris included).

        Safe at any time the directory has no live engine: everything
        under ``data/`` is rebuildable from the ingest log, and wiping it
        wholesale is precisely what makes a crashed process's half-moved
        epoch harmless.
        """
        PartitionStore(self.root).remove_directory(self.data_root)

    def open_engine(
        self,
        *,
        events: EngineEvents | Iterable[EngineEvents] = (),
        shard_events: ShardEventObserver | Iterable[ShardEventObserver] = (),
    ) -> LayoutEngine | ShardedEngine:
        """Open an engine over this store: wipe derived state, replay the log.

        Returns a :class:`~repro.engine.sharded.ShardedEngine` when the
        manifest has a shard spec, else a single
        :class:`~repro.engine.LayoutEngine`.  ``shard_events`` observers
        receive the shard-tagged stream either way (a single engine is
        tagged as shard 0), so operator tooling consumes one stream shape
        regardless of the deployment.  The caller owns the returned
        engine's lifecycle (``close()`` it, or use it as a context
        manager).
        """
        manifest = self.manifest
        self.reset_data()
        config = self.engine_config()
        sinks: tuple[ShardEventObserver, ...] = _as_tuple(shard_events, "on_shard_event")
        engine: LayoutEngine | ShardedEngine
        if manifest.shards is not None:
            engine = ShardedEngine(
                config,
                manifest.shards.shard_key,
                manifest.shards.num_shards,
                events=events,
                shard_events=sinks,
            )
        else:
            observers: tuple[EngineEvents, ...] = _as_tuple(events, "on_event")
            if sinks:
                observers = (*observers, _ShardTagger(0, sinks))
            engine = LayoutEngine(config, events=observers)
        engine.open()
        try:
            for batch in self.read_batches():
                engine.ingest(batch)
        except BaseException:
            engine.close()
            raise
        return engine
