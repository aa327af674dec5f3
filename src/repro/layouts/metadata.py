"""Partition-level metadata: the zone maps that enable data skipping.

For every partition we record, per column, the min/max value and (for
categorical columns up to a cardinality cap) the exact distinct set — the
same information a Parquet footer or a Snowflake micro-partition header
exposes.  Query cost estimation (`fraction of rows accessed`) touches only
this metadata, never the underlying data, exactly as the paper's OREO
prototype does (§VI-A1).

Dense per-column statistics are the snapshot; :class:`PartitionMetadata`
is the oracle's view of them:

* :func:`build_layout_metadata` sorts the assignment once and emits, per
  column, one :class:`DenseColumn` over all partitions — min/max vectors
  by ``reduceat`` over the sorted order and, for a categorical column,
  one ``(partitions × values)`` presence pass that yields the packed
  distinct-set bitmap.  :class:`~repro.layouts.zonemaps.ZoneMapIndex`
  lowers these arrays straight to its kernel zones; the hot decision
  loops (cost evaluator, layout admission, executor planning) never build
  a per-partition object;
* the **scalar oracle** — :meth:`LayoutMetadata.accessed_fraction` —
  loops over :class:`PartitionMetadata` asking ``Predicate.may_match``.
  It is the reference semantics the vectorized kernel is asserted
  bit-for-bit against.  A table-built snapshot derives its
  ``partitions`` from the arrays on first read, equal (down to the Python
  scalar types) to :func:`build_partition_metadata`, the per-partition
  reference builder, applied group by group;
* metadata assembled from :class:`PartitionMetadata` objects (streaming
  ingest, the pipelined reorganization's per-partition writes, hand-built
  fixtures) holds its tuple, and its index gathers each column's arrays
  from the objects on first use.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation-only import (avoids cycle)
    from ..storage.table import Table
    from .zonemaps import ZoneMapIndex

__all__ = [
    "ColumnStats",
    "PartitionMetadata",
    "LayoutMetadata",
    "DenseColumn",
    "DenseStats",
    "PartitionGroups",
    "group_rows",
    "pack_bits",
    "unpack_bits",
    "build_partition_metadata",
    "build_layout_metadata",
    "partition_row_indices",
]

#: Categorical columns with at most this many distinct codes in a partition
#: store the exact distinct set; wider ones fall back to min/max pruning only.
DISTINCT_SET_CAP = 64

#: dtype kinds :func:`build_layout_metadata` summarizes with
#: ``np.minimum``/``np.maximum.reduceat`` (bool, ints, floats up to 64 bits);
#: any other dtype (strings, datetimes, objects, long doubles) keeps the
#: per-partition :func:`_column_stats` and stays uncompiled.
_REDUCIBLE_KINDS = "biuf"


@dataclass(frozen=True)
class ColumnStats:
    """Per-column, per-partition statistics.

    A partition whose column holds a NaN records no ``ColumnStats`` for that
    column: every comparison against a NaN bound is False, so the oracle
    would skip the partition for ``x < 5`` even where it has matching rows.
    Absent stats are the oracle's "no information" (may-match True), which
    is sound.  NaN bounds are rejected here, so hand-built metadata cannot
    bring the unsound case back.
    """

    min: float
    max: float
    distinct: frozenset | None = None

    def __post_init__(self):
        if self.min != self.min or self.max != self.max:
            raise ValueError("NaN bounds: a partition holding NaN records no stats")
        if self.min > self.max:
            raise ValueError(f"min {self.min!r} exceeds max {self.max!r}")


@dataclass(frozen=True)
class PartitionMetadata:
    """Statistics describing one partition of a layout."""

    partition_id: int
    row_count: int
    stats: Mapping[str, ColumnStats]

    def __post_init__(self):
        if self.row_count < 0:
            raise ValueError("row_count must be non-negative")


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack ``(rows, n)`` bools into ``(rows, ceil(n / 64))`` ``<u8`` words.

    Bit ``i % 64`` of word ``i // 64`` is column ``i`` — the distinct-set
    bitmap layout every pruning tier reads.
    """
    packed = np.packbits(bits, axis=1, bitorder="little")
    words = np.zeros((len(bits), -(-bits.shape[1] // 64) * 8), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    return words.view("<u8")


def unpack_bits(bitmap: np.ndarray, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: the first ``count`` columns, as bools."""
    return np.unpackbits(
        bitmap.astype("<u8", copy=False).view(np.uint8),
        axis=1,
        count=count,
        bitorder="little",
    ).view(bool)


@dataclass(frozen=True, eq=False)
class DenseColumn:
    """One column's statistics over every partition of a layout, as arrays.

    Built from a table, ``mins``/``maxs`` keep the column's dtype, so the
    oracle's view reads the same Python scalars ``.item()`` gives (gathered
    from objects they are float64); cells where ``has_stats`` is False (the
    partition holds a NaN) are 0.  ``values`` is the union of
    the recorded distinct sets in bit order (sorted when sortable), and bit
    ``i`` of row ``p`` of ``bitmap`` (see :func:`pack_bits`) says
    ``values[i]`` is in partition ``p``'s set; both are ``None`` when no
    partition records a set.
    """

    mins: np.ndarray
    maxs: np.ndarray
    has_stats: np.ndarray
    has_distinct: np.ndarray
    values: list | None
    bitmap: np.ndarray | None

    def stats(self) -> list[ColumnStats | None]:
        """The per-partition :class:`ColumnStats` (``None``: no stats)."""
        distinct: list[frozenset | None] = [None] * len(self.mins)
        if self.bitmap is not None and self.values is not None:
            values = self.values
            bits = unpack_bits(self.bitmap, len(values))
            for row in np.flatnonzero(self.has_distinct).tolist():
                distinct[row] = frozenset(
                    values[i] for i in np.flatnonzero(bits[row]).tolist()
                )
        return [
            ColumnStats(min=low, max=high, distinct=members) if present else None
            for low, high, present, members in zip(
                self.mins.tolist(),
                self.maxs.tolist(),
                self.has_stats.tolist(),
                distinct,
                strict=True,
            )
        ]


class DenseStats:
    """A table-built snapshot's statistics, and the oracle's view of them.

    ``columns`` maps each column, in schema order, to its
    :class:`DenseColumn` — or, for a dtype ``np.minimum`` cannot reduce, to
    the per-partition :class:`ColumnStats` tuple.  Nothing here refers back
    to a snapshot or an index, so both can hold it without a cycle.
    """

    def __init__(
        self,
        partition_ids: np.ndarray,
        row_counts: np.ndarray,
        columns: Mapping[str, DenseColumn | tuple[ColumnStats | None, ...]],
    ):
        self.partition_ids = partition_ids
        self.row_counts = row_counts
        self.columns = columns

    @cached_property
    def partitions(self) -> tuple[PartitionMetadata, ...]:
        """Per-partition metadata derived from the arrays (cached)."""
        cells: list[dict[str, ColumnStats]] = [{} for _ in range(len(self.row_counts))]
        for name, column in self.columns.items():
            per_partition = column if isinstance(column, tuple) else column.stats()
            for cell, stats in zip(cells, per_partition, strict=True):
                if stats is not None:
                    cell[name] = stats
        return tuple(
            PartitionMetadata(partition_id=pid, row_count=count, stats=cell)
            for pid, count, cell in zip(
                self.partition_ids.tolist(), self.row_counts.tolist(), cells, strict=True
            )
        )


class LayoutMetadata:
    """All partition metadata for one materialized (or estimated) layout.

    Immutable, in one of two forms behind one interface: built from a table
    (:func:`build_layout_metadata`) it holds :class:`DenseStats` and derives
    ``partitions`` on first read; built from :class:`PartitionMetadata`
    objects (``LayoutMetadata(partitions=...)``) it holds the tuple.
    """

    def __init__(self, partitions: Sequence[PartitionMetadata]):
        #: the dense statistics of a table-built snapshot, else ``None``
        self.dense: DenseStats | None = None
        self._partitions = tuple(partitions)

    @classmethod
    def from_dense(cls, dense: DenseStats) -> LayoutMetadata:
        """A snapshot whose statistics are ``dense``."""
        metadata = cls(())
        metadata.dense = dense
        return metadata

    @property
    def partitions(self) -> tuple[PartitionMetadata, ...]:
        """Per-partition statistics: the scalar oracle's view."""
        dense = self.dense
        return self._partitions if dense is None else dense.partitions

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LayoutMetadata):
            return NotImplemented
        return self.partitions == other.partitions

    @cached_property
    def row_counts(self) -> np.ndarray:
        """Rows per partition, in partition order (cached; immutable)."""
        if self.dense is not None:
            return self.dense.row_counts
        partitions = self._partitions
        return np.fromiter(
            (p.row_count for p in partitions), dtype=np.int64, count=len(partitions)
        )

    @cached_property
    def total_rows(self) -> int:
        """Total number of rows across partitions (cached; immutable)."""
        return int(self.row_counts.sum())

    @property
    def num_partitions(self) -> int:
        """Number of (non-empty) partitions."""
        return len(self.row_counts)

    @cached_property
    def partition_ids(self) -> np.ndarray:
        """Partition ids in partition order (cached; immutable)."""
        if self.dense is not None:
            return self.dense.partition_ids
        partitions = self._partitions
        return np.fromiter(
            (p.partition_id for p in partitions), dtype=np.int64, count=len(partitions)
        )

    @cached_property
    def zone_maps(self) -> ZoneMapIndex:
        """This snapshot's compiled zone-map index (cached; immutable).

        The index is a pure function of the snapshot, so the snapshot owns
        the one copy: whoever holds the snapshot — executor, cost
        evaluator — plans on the same compiled arrays, and an index can
        never outlive or lag the metadata it was compiled from.
        """
        from .zonemaps import ZoneMapIndex

        return ZoneMapIndex(self)

    def relevant_partitions(self, predicate) -> list[PartitionMetadata]:
        """Partitions that cannot be skipped for ``predicate`` (sound)."""
        return [p for p in self.partitions if predicate.may_match(p)]

    def accessed_fraction(self, predicate) -> float:
        """Fraction of rows in partitions that must be read for ``predicate``.

        This is the paper's service cost c(s, q) ∈ [0, 1].  An empty table
        costs 0 by convention.
        """
        total = self.total_rows
        if total == 0:
            return 0.0
        accessed = sum(p.row_count for p in self.partitions if predicate.may_match(p))
        return accessed / total

    def skipped_fraction(self, predicate) -> float:
        """Complement of :meth:`accessed_fraction`."""
        return 1.0 - self.accessed_fraction(predicate)


def _column_stats(values: np.ndarray, is_categorical: bool) -> ColumnStats | None:
    if len(values) == 0:
        return None
    lo = values.min()
    hi = values.max()
    if lo != lo or hi != hi:  # NaN propagates through min/max: no stats
        return None
    distinct = None
    if is_categorical:
        unique = np.unique(values)
        if len(unique) <= DISTINCT_SET_CAP:
            distinct = frozenset(unique.tolist())
    return ColumnStats(min=lo.item(), max=hi.item(), distinct=distinct)


def build_partition_metadata(
    table: Table, row_indices: np.ndarray, partition_id: int
) -> PartitionMetadata:
    """Compute :class:`PartitionMetadata` for the given rows of ``table``."""
    categorical = set(table.schema.categorical_names())
    stats: dict[str, ColumnStats] = {}
    for name in table.schema.names():
        column_stats = _column_stats(table[name][row_indices], name in categorical)
        if column_stats is not None:
            stats[name] = column_stats
    return PartitionMetadata(
        partition_id=partition_id, row_count=int(len(row_indices)), stats=stats
    )


@dataclass(frozen=True, eq=False)
class PartitionGroups:
    """Row indices grouped by partition id: one stable sort of an assignment."""

    #: row indices, stably sorted by partition id
    order: np.ndarray
    #: offset in ``order`` where each partition's rows begin
    starts: np.ndarray
    #: each group's partition id (int64, ascending)
    ids: np.ndarray

    def rows(self) -> dict[int, np.ndarray]:
        """Partition id → its row indices (ascending ids, rows in order)."""
        if not len(self.ids):
            return {}
        groups = np.split(self.order, self.starts[1:])
        return dict(zip(self.ids.tolist(), groups, strict=True))


def group_rows(assignment: np.ndarray) -> PartitionGroups:
    """Group the rows of ``assignment`` (row → partition id) by partition."""
    order = np.argsort(assignment, kind="stable")
    sorted_ids = assignment[order]
    starts = np.flatnonzero(np.diff(sorted_ids)) + 1
    if len(order):
        starts = np.concatenate(([0], starts))
    return PartitionGroups(order, starts, sorted_ids[starts].astype(np.int64))


def _value_codes(
    values: np.ndarray, mins: np.ndarray, maxs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ascending candidate values and each row's position among them.

    Integer codes spanning fewer values than there are rows (dictionary
    codes) are positioned by an offset; anything else by ``np.unique``.
    Candidates no row holds are harmless: no partition marks them present.
    """
    if values.dtype.kind in "iu":
        low = mins.min()
        span = int(maxs.max()) - int(low) + 1
        if span <= len(values):
            return low + np.arange(span, dtype=values.dtype), (values - low).astype(np.intp)
    return np.unique(values, return_inverse=True)


def _dense_column(
    values: np.ndarray, starts: np.ndarray, partition_of_row: np.ndarray | None
) -> DenseColumn:
    """One column's :class:`DenseColumn` from its values in group order.

    ``partition_of_row`` (each sorted row's partition position) is given for
    categorical columns only; they also get distinct sets.
    """
    mins = np.minimum.reduceat(values, starts)
    maxs = np.maximum.reduceat(values, starts)
    has_stats = mins == mins  # a NaN anywhere in a partition propagates to its min
    if not has_stats.all():
        mins[~has_stats] = 0
        maxs[~has_stats] = 0
    has_distinct = np.zeros(len(starts), dtype=bool)
    members: list | None = None
    bitmap: np.ndarray | None = None
    if partition_of_row is not None:
        candidates, codes = _value_codes(values, mins, maxs)
        width = len(candidates)
        present = np.zeros(len(starts) * width, dtype=bool)
        present[partition_of_row * width + codes] = True
        present = present.reshape(len(starts), width)
        has_distinct = has_stats & (present.sum(axis=1) <= DISTINCT_SET_CAP)
        if has_distinct.any():
            present &= has_distinct[:, None]
            recorded = present.any(axis=0)
            members = candidates[recorded].tolist()
            bitmap = pack_bits(present[:, recorded])
    return DenseColumn(mins, maxs, has_stats, has_distinct, members, bitmap)


def build_layout_metadata(
    table: Table, assignment: np.ndarray | PartitionGroups
) -> LayoutMetadata:
    """Compute metadata for every non-empty partition of an assignment.

    ``assignment`` maps each row of ``table`` to a partition id, or is that
    map already grouped by :func:`group_rows`.  Empty partitions contribute
    nothing to query cost and are omitted.  The statistics come out dense
    (:class:`DenseStats`): per column, min/max by ``reduceat`` over the rows
    in partition order and, for a categorical column, one presence pass for
    the distinct sets.
    """
    groups = assignment if isinstance(assignment, PartitionGroups) else None
    num_rows = len(assignment) if groups is None else len(groups.order)
    if num_rows != table.num_rows:
        raise ValueError(f"assignment length {num_rows} != table rows {table.num_rows}")
    if table.num_rows == 0:
        return LayoutMetadata(partitions=())
    if groups is None:
        groups = group_rows(np.asarray(assignment))
    order, starts = groups.order, groups.starts
    row_counts = np.diff(starts, append=table.num_rows)
    categorical = set(table.schema.categorical_names())
    partition_of_row: np.ndarray | None = None
    columns: dict[str, DenseColumn | tuple[ColumnStats | None, ...]] = {}
    for name in table.schema.names():
        values = table[name][order]
        dtype = values.dtype
        if dtype.kind not in _REDUCIBLE_KINDS or dtype.itemsize > 8:
            columns[name] = tuple(
                _column_stats(group, name in categorical)
                for group in np.split(values, starts[1:])
            )
            continue
        if name in categorical and partition_of_row is None:
            partition_of_row = np.repeat(np.arange(len(starts)), row_counts)
        columns[name] = _dense_column(
            values, starts, partition_of_row if name in categorical else None
        )
    return LayoutMetadata.from_dense(DenseStats(groups.ids, row_counts, columns))


def partition_row_indices(assignment: np.ndarray) -> dict[int, np.ndarray]:
    """Group row indices by partition id (non-empty partitions only)."""
    return group_rows(assignment).rows()
