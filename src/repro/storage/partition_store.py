"""Partition store: compressed columnar partition files on local disk.

This is the reproduction's stand-in for Parquet-on-local-disk under Spark
(§VI-A1's end-to-end setup).  It reproduces the cost structure the paper
measures in Table I: queries read (decompress) only the partitions that
survive metadata pruning, and of those only the columns their predicate
references — as a Parquet reader skips unreferenced column chunks — while
reorganization must read *every* column of every partition, reshuffle
rows, and compress-and-write every new partition, making it one to two
orders of magnitude dearer than a scan.

The partition file format
-------------------------
One file (suffix :data:`PARTITION_SUFFIX`) holds one partition, and this
module is the only code that knows its layout: :func:`write_columns`
writes it, :func:`read_columns` reads it.  In order:

1. the magic line :data:`MAGIC`;
2. the header's byte length and the header's CRC-32, two little-endian
   ``uint32``;
3. the header: one UTF-8 JSON object mapping each field to a list with
   one value per column, in write order — ``name``, ``dtype`` (numpy
   ``dtype.str``), ``length`` (elements), ``offset`` (of the column's
   blob, counted from the end of the header), ``stored_bytes``,
   ``crc32`` (of the stored bytes) and ``compressed`` — one list per
   field rather than one object per column, because it parses in well
   under half the time and every read parses it;
4. the column blobs, back to back: each column's C-order bytes, zlib
   level 6 when :attr:`PartitionStore.compress` is set, raw otherwise.

A read opens the file once and checks the magic, the header's CRC, that
the blobs end exactly at the end of the file (so a short file is caught
even when only its first column is wanted), and each wanted blob's CRC
and decoded size.  Any failure raises ``ValueError`` and returns no data.
Nothing on the read path parses a zip directory or a Python literal.
Only 1-D columns of a fixed-width, non-object dtype can be written.

Ingest-log files written as ``.npz`` archives by earlier versions of the
store are still read, through the one branch :func:`read_columns` takes
for :data:`LEGACY_SUFFIX`.
"""

from __future__ import annotations

import json
import shutil
import struct
import zipfile
import zlib
from collections.abc import Iterable, Mapping
from pathlib import Path

import numpy as np

from ..layouts.base import DataLayout
from ..layouts.metadata import build_layout_metadata, group_rows
from .partition import StoredLayout, StoredPartition
from .table import Schema, Table

__all__ = [
    "LEGACY_SUFFIX",
    "MAGIC",
    "PARTITION_SUFFIX",
    "PartitionStore",
    "read_columns",
    "write_columns",
]

#: file-name suffix of a partition file
PARTITION_SUFFIX = ".col"
#: suffix of the ``np.savez_compressed`` archives earlier ingest logs hold
LEGACY_SUFFIX = ".npz"
#: first bytes of every partition file
MAGIC = b"repro-columns 1\n"
#: header byte length and header CRC-32, after the magic line
_PREFIX = struct.Struct("<II")
_HEADER_START = len(MAGIC) + _PREFIX.size
#: zlib level of compressed blobs (zlib's default, as ``np.savez_compressed``)
_ZLIB_LEVEL = 6
#: the header's fields, in the order :func:`write_columns` fills them
_FIELDS = ("name", "dtype", "length", "offset", "stored_bytes", "crc32", "compressed")


def write_columns(path: Path | str, arrays: Mapping[str, np.ndarray], compress: bool) -> int:
    """Write ``arrays`` as one partition file at ``path``; returns its size.

    Refuses (``ValueError``) a column that is not 1-D or whose dtype is
    not fixed-width plain data (object, structured, zero-width).
    """
    rows = []
    blobs = []
    offset = 0
    for name, array in arrays.items():
        dtype = array.dtype
        if array.ndim != 1 or dtype.kind in "OV" or dtype.itemsize == 0:
            raise ValueError(
                f"column {name!r}: cannot store a {array.ndim}-D {dtype} column; "
                "only 1-D fixed-width columns are supported"
            )
        blob = array.tobytes()
        if compress:
            blob = zlib.compress(blob, _ZLIB_LEVEL)
        rows.append(
            (name, dtype.str, len(array), offset, len(blob), zlib.crc32(blob), compress)
        )
        blobs.append(blob)
        offset += len(blob)
    fields = {key: [row[k] for row in rows] for k, key in enumerate(_FIELDS)}
    header = json.dumps(fields, separators=(",", ":")).encode()
    with open(path, "wb") as handle:
        handle.write(MAGIC + _PREFIX.pack(len(header), zlib.crc32(header)) + header)
        handle.writelines(blobs)
    return _HEADER_START + len(header) + offset


def read_columns(
    path: Path | str, names: Iterable[str] | None = None
) -> dict[str, np.ndarray]:
    """Read columns of one partition file, as fresh writable arrays.

    ``names=None`` reads every column.  Otherwise only the named columns
    the file holds are read (a name it lacks is left out), and an empty
    request reads the file's first column alone.  Columns come back in
    file order.  A damaged file raises ``ValueError``.
    """
    path = Path(path)
    if path.suffix == LEGACY_SUFFIX:
        return _read_legacy(path, names)
    with open(path, "rb") as handle:
        data = handle.read()
    if not data.startswith(MAGIC):
        raise ValueError(f"{path}: not a partition file (bad magic)")
    if len(data) < _HEADER_START:
        raise ValueError(f"{path}: file ends inside the header")
    length, checksum = _PREFIX.unpack_from(data, len(MAGIC))
    start = _HEADER_START + length
    header = data[_HEADER_START:start]
    if len(header) != length or zlib.crc32(header) != checksum:
        raise ValueError(f"{path}: header is truncated or fails its CRC-32 check")
    fields = json.loads(header)
    if start + sum(fields["stored_bytes"]) != len(data):
        raise ValueError(f"{path}: file size does not match its header (truncated?)")
    held = fields["name"]
    position = {name: index for index, name in enumerate(held)}
    view = memoryview(data)
    return {
        name: _decode(path, view, start, fields, position[name])
        for name in _select(held, names)
    }


def _decode(path: Path, view: memoryview, start: int, fields: dict, index: int) -> np.ndarray:
    """Column ``index``'s blob → a fresh array, after its CRC and size checks."""
    name = fields["name"][index]
    begin = start + fields["offset"][index]
    blob = view[begin : begin + fields["stored_bytes"][index]]
    if zlib.crc32(blob) != fields["crc32"][index]:
        raise ValueError(f"{path}: column {name!r} fails its CRC-32 check")
    dtype = np.dtype(fields["dtype"][index])
    try:
        raw = zlib.decompress(blob) if fields["compressed"][index] else blob
    except zlib.error as error:
        raise ValueError(f"{path}: column {name!r}: {error}") from error
    if len(raw) != fields["length"][index] * dtype.itemsize:
        raise ValueError(f"{path}: column {name!r} has the wrong size")
    return np.frombuffer(raw, dtype=dtype).copy()


def _select(names_held: list[str], names: Iterable[str] | None) -> list[str]:
    """The projection rule shared by both codecs (see :func:`read_columns`)."""
    if names is None:
        return names_held
    wanted = frozenset(names)
    return [name for name in names_held if name in wanted] if wanted else names_held[:1]


def _read_legacy(path: Path, names: Iterable[str] | None) -> dict[str, np.ndarray]:
    """Read an ``np.savez_compressed`` archive, as earlier ingest logs hold."""
    try:
        with np.load(path) as archive:
            return {name: archive[name] for name in _select(archive.files, names)}
    except (zipfile.BadZipFile, EOFError, zlib.error) as error:
        raise ValueError(f"{path}: unreadable archive: {error}") from error


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
        groups = group_rows(assignment)  # one sort serves the files and the metadata
        try:
            for partition_id, rows in groups.rows().items():
                name = f"part-{partition_id:05d}{PARTITION_SUFFIX}"
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
        metadata = build_layout_metadata(table, groups)
        return StoredLayout(layout=layout, metadata=metadata, partitions=tuple(stored))

    def _write_file(self, path: Path, table: Table, row_indices: np.ndarray) -> int:
        """Write ``row_indices`` of ``table`` as one file; returns its size."""
        arrays = {name: table[name][row_indices] for name in table.schema.names()}
        return write_columns(path, arrays, self.compress)

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
        path = directory / f"part-{partition_id:05d}{PARTITION_SUFFIX}"
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
        Otherwise only the named columns the file holds are loaded (a
        name it lacks is left out, so the predicate reports it as unknown),
        and an empty request loads the file's first column alone, so a
        column-free predicate (``true``) still sees the partition's length.
        """
        return read_columns(partition.path, columns)

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
