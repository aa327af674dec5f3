"""Partition-level metadata: the zone maps that enable data skipping.

For every partition we record, per column, the min/max value and (for
categorical columns up to a cardinality cap) the exact distinct set — the
same information a Parquet footer or a Snowflake micro-partition header
exposes.  Query cost estimation (`fraction of rows accessed`) touches only
this metadata, never the underlying data, exactly as the paper's OREO
prototype does (§VI-A1).

Two evaluation paths consume this metadata:

* the **scalar oracle** defined here — :meth:`LayoutMetadata.accessed_fraction`
  loops over partitions asking ``Predicate.may_match`` per
  :class:`PartitionMetadata`.  It is the reference semantics: simple,
  obviously faithful to the paper, and the ground truth the fast path is
  tested against;
* the **compiled fast path** — :class:`~repro.layouts.zonemaps.ZoneMapIndex`
  compiles a :class:`LayoutMetadata` into dense per-column min/max arrays
  and packed distinct-set bitmaps, and prunes all partitions (and whole
  query batches) with vectorized NumPy ops.  The hot decision loops
  (cost evaluator, layout admission, executor planning) run on it; its
  masks are asserted to agree exactly with the scalar oracle.
"""

from __future__ import annotations

from collections.abc import Mapping
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
    "build_partition_metadata",
    "build_layout_metadata",
    "partition_row_indices",
]

#: Categorical columns with at most this many distinct codes in a partition
#: store the exact distinct set; wider ones fall back to min/max pruning only.
DISTINCT_SET_CAP = 64


@dataclass(frozen=True)
class ColumnStats:
    """Per-column, per-partition statistics."""

    min: float
    max: float
    distinct: frozenset | None = None

    def __post_init__(self):
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


@dataclass(frozen=True)
class LayoutMetadata:
    """All partition metadata for one materialized (or estimated) layout."""

    partitions: tuple[PartitionMetadata, ...]

    @cached_property
    def total_rows(self) -> int:
        """Total number of rows across partitions (cached; immutable)."""
        return sum(p.row_count for p in self.partitions)

    @property
    def num_partitions(self) -> int:
        """Number of (non-empty) partitions."""
        return len(self.partitions)

    @cached_property
    def partition_ids(self) -> np.ndarray:
        """Partition ids in partition order (cached; immutable)."""
        return np.fromiter(
            (p.partition_id for p in self.partitions),
            dtype=np.int64,
            count=len(self.partitions),
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


def build_layout_metadata(table: Table, assignment: np.ndarray) -> LayoutMetadata:
    """Compute metadata for every non-empty partition of an assignment.

    ``assignment`` maps each row of ``table`` to a partition id.  Empty
    partitions contribute nothing to query cost and are omitted.
    """
    if len(assignment) != table.num_rows:
        raise ValueError(
            f"assignment length {len(assignment)} != table rows {table.num_rows}"
        )
    partitions: list[PartitionMetadata] = []
    if table.num_rows == 0:
        return LayoutMetadata(partitions=())
    order = np.argsort(assignment, kind="stable")
    sorted_ids = assignment[order]
    boundaries = np.flatnonzero(np.diff(sorted_ids)) + 1
    groups = np.split(order, boundaries)
    for group in groups:
        pid = int(assignment[group[0]])
        partitions.append(build_partition_metadata(table, group, pid))
    return LayoutMetadata(partitions=tuple(partitions))


def partition_row_indices(assignment: np.ndarray) -> dict[int, np.ndarray]:
    """Group row indices by partition id (non-empty partitions only)."""
    order = np.argsort(assignment, kind="stable")
    sorted_ids = assignment[order]
    if len(order) == 0:
        return {}
    boundaries = np.flatnonzero(np.diff(sorted_ids)) + 1
    groups = np.split(order, boundaries)
    return {int(assignment[group[0]]): group for group in groups}
