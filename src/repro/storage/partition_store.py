"""Partition store: compressed columnar partition files on local disk.

This is the reproduction's stand-in for Parquet-on-local-disk under Spark
(§VI-A1's end-to-end setup).  Partitions are written as compressed ``.npz``
archives — one array per column, zlib-compressed — which reproduces the cost
structure the paper measures in Table I: queries read (decompress) only the
partitions that survive metadata pruning, and of those only the columns
their predicate references — ``np.load`` decompresses an archive member
only when it is indexed, as a Parquet reader skips unreferenced column
chunks — while reorganization must read *every* column of every
partition, reshuffle rows, and compress-and-write every new partition,
making it one to two orders of magnitude dearer than a scan.
"""

from __future__ import annotations

import shutil
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from ..layouts.base import DataLayout
from ..layouts.metadata import build_layout_metadata, partition_row_indices
from .partition import StoredLayout, StoredPartition
from .table import Schema, Table

__all__ = ["PartitionStore"]


class PartitionStore:
    """Reads and writes layout partitions under a root directory."""

    def __init__(self, root: Path | str, compress: bool = True):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.compress = compress

    # ------------------------------------------------------------------ writes
    def materialize(self, table: Table, layout: DataLayout) -> StoredLayout:
        """Write ``table`` partitioned by ``layout``; returns the stored layout."""
        assignment = layout.assign(table)
        return self.write_partitions(table, layout, assignment)

    def write_partitions(
        self, table: Table, layout: DataLayout, assignment: np.ndarray
    ) -> StoredLayout:
        """Write one file per non-empty partition of ``assignment``.

        The files are written into the staging buffer and flipped in with
        :meth:`commit_staging`, so rewriting a layout under its own id (a
        second same-id consolidation) never destroys the live copy before
        the new one is complete: a write that fails midway discards the
        staging buffer and leaves the old files in place.  The returned
        paths point at the live directory.
        """
        live = self.root / layout.layout_id
        staging = self.begin_staging(layout.layout_id)
        stored: list[StoredPartition] = []
        try:
            for partition_id, rows in sorted(partition_row_indices(assignment).items()):
                name = f"part-{partition_id:05d}.npz"
                stored.append(
                    StoredPartition(
                        partition_id=int(partition_id),
                        path=live / name,
                        row_count=int(len(rows)),
                        byte_size=self._write_file(staging / name, table, rows),
                    )
                )
        except BaseException:
            self.abort_staging(layout.layout_id)
            raise
        self.commit_staging(layout.layout_id)
        metadata = build_layout_metadata(table, assignment)
        return StoredLayout(layout=layout, metadata=metadata, partitions=tuple(stored))

    def _write_file(self, path: Path, table: Table, row_indices: np.ndarray) -> int:
        """Write ``row_indices`` of ``table`` as one archive; returns its size."""
        arrays = {name: table[name][row_indices] for name in table.schema.names()}
        with open(path, "wb") as handle:
            if self.compress:
                np.savez_compressed(handle, **arrays)
            else:
                np.savez(handle, **arrays)
        return path.stat().st_size

    def write_partition_file(
        self,
        table: Table,
        row_indices: np.ndarray,
        partition_id: int,
        directory: Path | str,
        epoch: int = 0,
    ) -> StoredPartition:
        """Write one partition file without touching its siblings.

        Used by incremental ingestion (§III-C), where new batches append
        partitions next to already-materialized ones instead of rewriting
        the whole layout directory, and by the pipelined reorganization,
        whose movers stamp each file with the ``epoch`` of the movement
        step that committed it.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"part-{partition_id:05d}.npz"
        return StoredPartition(
            partition_id=int(partition_id),
            path=path,
            row_count=int(len(row_indices)),
            byte_size=self._write_file(path, table, row_indices),
            epoch=int(epoch),
        )

    # --------------------------------------------------------- double-buffering
    def staging_path(self, layout_id: str) -> Path:
        """Where ``layout_id``'s staged (not yet visible) files live."""
        return self.root / f"{layout_id}.staging"

    def begin_staging(self, layout_id: str) -> Path:
        """Create (or reset) the staging buffer for ``layout_id``.

        The pipelined reorganization writes the new layout's partition
        files here while queries keep reading the live directory; nothing
        under the staging path is visible to readers until
        :meth:`commit_staging` flips it in.  A pre-existing staging
        directory (a crashed earlier pipeline) is discarded.
        """
        staging = self.staging_path(layout_id)
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir(parents=True)
        return staging

    def commit_staging(self, layout_id: str) -> Path:
        """Flip ``layout_id``'s staged buffer into the live directory.

        Two renames, not a delete-then-rename: the live directory (if any
        — same-id repartitioning replaces it) is first renamed aside to
        ``<layout_id>.retired``, then the staging directory renamed into
        its place, and only then is the retired copy removed.  At every
        instant of the flip a complete copy of the data exists on disk
        under some name, so a crash mid-commit never strands the table in
        a half-deleted state (and :meth:`begin_staging`'s discard of a
        stale staging buffer can never destroy the only copy).  Readers
        switch from the old epoch's files to the new epoch's with no
        intermediate mixed state.  Returns the live directory path.
        """
        staging = self.staging_path(layout_id)
        if not staging.exists():
            raise FileNotFoundError(f"no staged buffer for layout {layout_id!r}")
        live = self.root / layout_id
        retired = self.root / f"{layout_id}.retired"
        if retired.exists():
            shutil.rmtree(retired)
        if live.exists():
            live.rename(retired)
        staging.rename(live)
        if retired.exists():
            shutil.rmtree(retired)
        return live

    def abort_staging(self, layout_id: str) -> None:
        """Discard ``layout_id``'s staged buffer without publishing it."""
        staging = self.staging_path(layout_id)
        if staging.exists():
            shutil.rmtree(staging)

    # ------------------------------------------------------------------- reads
    def read_partition(
        self, partition: StoredPartition, columns: Iterable[str] | None = None
    ) -> dict[str, np.ndarray]:
        """Load one partition's columns from disk (decompressing).

        ``columns=None`` loads every column — what moving whole rows needs.
        Otherwise only the named columns the archive holds are loaded (a
        name it lacks is left out, so the predicate reports it as unknown),
        and an empty request loads the archive's first column alone, so a
        column-free predicate (``true``) still sees the partition's length.
        """
        with np.load(partition.path) as archive:
            names = archive.files
            if columns is not None:
                wanted = frozenset(columns)
                names = [name for name in names if name in wanted] if wanted else names[:1]
            return {name: archive[name] for name in names}

    def read_all(self, stored: StoredLayout, schema: Schema) -> Table:
        """Load an entire stored layout back into one in-memory table."""
        return self.merge_pieces(
            [self.read_partition(p) for p in stored.partitions], schema
        )

    @staticmethod
    def merge_pieces(pieces: list[dict[str, np.ndarray]], schema: Schema) -> Table:
        """Concatenate per-partition column dicts into one table.

        Shared by :meth:`read_all` and the pipelined reorganization's
        assign step, so both paths build the row order (stored-partition
        order) and the empty-table fallback identically — a prerequisite
        for the async path's bit-for-bit equivalence with the synchronous
        one.
        """
        if not pieces:
            return Table(schema, {name: np.empty(0) for name in schema.names()})
        merged = {
            name: np.concatenate([piece[name] for piece in pieces])
            for name in schema.names()
        }
        return Table(schema, merged)

    # ----------------------------------------------------------------- cleanup
    def delete_layout(self, stored: StoredLayout) -> None:
        """Remove a stored layout's directory from disk."""
        layout_dir = self.root / stored.layout.layout_id
        if layout_dir.exists():
            shutil.rmtree(layout_dir)

    def remove_partition_file(self, partition: StoredPartition) -> None:
        """Remove one partition file written by :meth:`write_partition_file`.

        The sanctioned unwind path for a failed batch append: when a
        mid-batch write raises, the files already landed are orphans — no
        bookkeeping references them — and the ingest path removes them
        here so a retry starts from a clean directory.  Like
        :meth:`remove_directory`, refuses paths outside :attr:`root`, so
        callers cannot launder arbitrary deletes through the store.
        """
        path = Path(partition.path)
        if self.root.resolve() not in path.resolve().parents:
            raise ValueError(f"{path} is not under the store root {self.root}")
        path.unlink(missing_ok=True)

    def remove_directory(self, directory: Path | str) -> None:
        """Remove one partition directory under the store root, if present.

        The sanctioned cleanup path for per-batch ingest directories
        (``incremental-<layout_id>``): file lifecycle stays owned by the
        store, so the epoch protocol's staging/commit/abort surface and
        this deletion are the only places partition files die.  Refuses
        paths outside :attr:`root` — callers cannot launder arbitrary
        deletes through the store.
        """
        directory = Path(directory)
        if self.root.resolve() not in directory.resolve().parents:
            raise ValueError(f"{directory} is not under the store root {self.root}")
        if directory.exists():
            shutil.rmtree(directory)

    def disk_usage(self) -> int:
        """Total bytes under the store root."""
        return sum(f.stat().st_size for f in self.root.rglob("*") if f.is_file())
