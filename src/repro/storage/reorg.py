"""Physical reorganization: rewrite a stored table into a new layout.

Reproduces the four reorganization steps the paper times for Table I:
1) read the partitions from disk, 2) update the BID (partition id) column
according to the new layout's mapping, 3) repartition the rows by BID, and
4) compress and write the new partition files.  The measured elapsed time
over a matching full scan is exactly the α the cost model consumes.

The rewrite returns a new :class:`StoredLayout` whose metadata is a new
snapshot object; caches keyed on snapshot identity (the executor's
compiled index, the cost evaluator) recompile from it rather than being
migrated (``docs/architecture.md``, "Cache freshness").
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..layouts.base import DataLayout
from .partition import StoredLayout
from .partition_store import PartitionStore
from .table import Schema

__all__ = ["ReorgResult", "reorganize"]


@dataclass(frozen=True)
class ReorgResult:
    """Accounting of one physical reorganization."""

    elapsed_seconds: float
    bytes_read: int
    bytes_written: int
    rows_moved: int
    partitions_written: int


def reorganize(
    store: PartitionStore,
    stored: StoredLayout,
    new_layout: DataLayout,
    schema: Schema,
) -> tuple[StoredLayout, ReorgResult]:
    """Rewrite ``stored`` into ``new_layout``; returns the new stored layout.

    The old layout's files are deleted after the swap — matching the
    paper's note that OREO keeps no extra copies except temporarily
    during reorganization.
    """
    start = time.perf_counter()
    bytes_read = stored.total_bytes
    table = store.read_all(stored, schema)           # 1) read partitions
    assignment = new_layout.assign(table)            # 2) update the BID column
    new_stored = store.write_partitions(table, new_layout, assignment)  # 3+4)
    elapsed = time.perf_counter() - start
    if stored.layout.layout_id != new_layout.layout_id:
        store.delete_layout(stored)
    result = ReorgResult(
        elapsed_seconds=elapsed,
        bytes_read=bytes_read,
        bytes_written=new_stored.total_bytes,
        rows_moved=new_stored.total_rows,
        partitions_written=len(new_stored.partitions),
    )
    return new_stored, result
