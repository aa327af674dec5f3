"""Physical query executor with metadata-based partition skipping.

Mirrors the paper's shallow Spark integration (§VI-A1): the optimizer first
consults partition-level metadata to compute the list of partition ids the
query must read (the paper's ``BID IN (...)`` rewrite), then reads exactly
those partition files — and of each only the columns the predicate
references, as a columnar scan does — and evaluates the predicate over
their rows.  Wall
clock is measured around the read+filter work, giving the "query time"
component of Figure 3 and Table I.

Pruning runs on the compiled zone-map engine: the stored layout's
metadata snapshot owns its :class:`~repro.layouts.zonemaps.ZoneMapIndex`
(:attr:`LayoutMetadata.zone_maps <repro.layouts.metadata.LayoutMetadata.zone_maps>`),
so the per-query planning step is a single vectorized pass over all
partitions instead of a Python loop, and the executor holds no index that
could go stale — a reorganization, a consolidation or a streaming append
each install a new snapshot, which brings its own index
(``docs/architecture.md``, "Cache freshness").  Batch execution
(:meth:`QueryExecutor.execute_batch`) goes further and plans a whole query
list with one :class:`~repro.layouts.workload_compiler.CompiledWorkload`
pass, reading each surviving partition at most once for the batch.
:meth:`QueryExecutor.full_scan` alone reads every column, as a
reorganization does.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..layouts.workload_compiler import CompiledWorkload
from ..utils import lru_get, lru_put
from ..queries.query import Query
from .partition import StoredLayout
from .partition_store import PartitionStore

__all__ = ["QueryResult", "ScanResult", "QueryExecutor"]


@dataclass(frozen=True)
class QueryResult:
    """Outcome and accounting of one physical query execution.

    ``bytes_read`` is the on-disk size of the partition files the query
    opened, not the bytes decompressed: a read that projects a file down
    to the predicate's columns is still charged the whole file.
    """

    rows_matched: int
    rows_scanned: int
    total_rows: int
    partitions_scanned: int
    partitions_total: int
    bytes_read: int
    elapsed_seconds: float

    @property
    def accessed_fraction(self) -> float:
        """Fraction of rows read — the physical analogue of c(s, q)."""
        if self.total_rows == 0:
            return 0.0
        return self.rows_scanned / self.total_rows

    @property
    def skipped_fraction(self) -> float:
        """Fraction of rows skipped thanks to the layout."""
        return 1.0 - self.accessed_fraction


@dataclass(frozen=True)
class ScanResult:
    """Outcome of a full-table scan (Table I's query-side measurement)."""

    rows_scanned: int
    bytes_read: int
    elapsed_seconds: float


class QueryExecutor:
    """Executes queries against stored layouts with partition pruning.

    A query reads only the partitions that survive pruning and, of each,
    only the columns its predicate references (one column when it
    references none, to learn the row count).

    The compiled-workload cache is lock-protected, so concurrent
    ``execute``/``execute_batch`` callers (the sharded router's fan-out
    threads hitting one engine) cannot corrupt the LRU bookkeeping;
    execution itself reads immutable snapshots and needs no further
    coordination.
    """

    #: Batch plans repeat (replay drivers re-run the same sample across
    #: layout switches); compiled workloads are layout-independent, so a
    #: small LRU makes the compile cost a one-time charge per sample.
    COMPILED_CACHE_CAP = 32

    def __init__(self, store: PartitionStore):
        self.store = store
        self._compiled: dict[tuple, CompiledWorkload] = {}
        # The plain-dict LRU helpers pop-and-reinsert on every hit, so
        # two concurrent query_batch calls on one executor can interleave
        # mid-refresh and drop or duplicate entries; every cache access
        # serializes on this lock.  Compilation inside the critical
        # section is deliberate: racing callers would otherwise compile
        # the same sample twice and publish whichever finished last.
        self._cache_lock = threading.Lock()

    def _compiled_workload(self, queries: Sequence[Query]) -> CompiledWorkload:
        """Compiled plan for a query batch (bounded LRU, thread-safe)."""
        key = tuple(query.predicate.cache_key() for query in queries)
        with self._cache_lock:
            cached = lru_get(self._compiled, key)
            if cached is None:
                cached = lru_put(
                    self._compiled,
                    key,
                    CompiledWorkload([query.predicate for query in queries]),
                    self.COMPILED_CACHE_CAP,
                )
            return cached

    def execute(self, stored: StoredLayout, query: Query) -> QueryResult:
        """Run one query: prune partitions by metadata, scan the rest."""
        start = time.perf_counter()
        relevant_ids = stored.metadata.zone_maps.relevant_partition_ids(query.predicate)
        referenced = query.predicate.columns()
        rows_matched = 0
        rows_scanned = 0
        bytes_read = 0
        partitions_scanned = 0
        for partition in stored.partitions:
            if partition.partition_id not in relevant_ids:
                continue
            columns = self.store.read_partition(partition, referenced)
            mask = query.predicate.evaluate(columns)
            rows_matched += int(np.count_nonzero(mask))
            rows_scanned += partition.row_count
            bytes_read += partition.byte_size
            partitions_scanned += 1
        elapsed = time.perf_counter() - start
        return QueryResult(
            rows_matched=rows_matched,
            rows_scanned=rows_scanned,
            total_rows=stored.total_rows,
            partitions_scanned=partitions_scanned,
            partitions_total=len(stored.partitions),
            bytes_read=bytes_read,
            elapsed_seconds=elapsed,
        )

    def execute_batch(
        self, stored: StoredLayout, queries: Sequence[Query]
    ) -> list[QueryResult]:
        """Run a query batch with one compiled planning pass.

        The whole batch is planned by a single
        :class:`~repro.layouts.workload_compiler.CompiledWorkload`
        evaluation (one column-wise pass instead of one per query), and
        each surviving partition file is read at most once for the batch.
        That one read loads the union of the columns referenced by every
        query whose plan selects the partition, since all of them evaluate
        against it.
        Decompressed partitions are released as soon as no later query in
        the batch needs them, so peak memory is bounded by the still-live
        working set rather than the whole table.

        Per-query counters (rows, partitions, bytes) match
        :meth:`execute` exactly.  ``elapsed_seconds`` charges each query
        its own read+filter work plus an equal share of the shared
        planning pass, so batch totals remain comparable to summed
        :meth:`execute` timings; a shared partition read is timed against
        the first query that needs it.
        """
        if not queries:
            return []
        planning_start = time.perf_counter()
        matrix = self._compiled_workload(queries).prune_matrix(stored.metadata.zone_maps)
        position_ids = stored.metadata.partition_ids
        by_id = {partition.partition_id: partition for partition in stored.partitions}
        remaining_uses = dict(
            zip(position_ids.tolist(), matrix.sum(axis=0, dtype=np.int64).tolist(), strict=True)
        )
        planning_share = (time.perf_counter() - planning_start) / len(queries)
        referenced = [query.predicate.columns() for query in queries]
        columns_cache: dict[int, dict[str, np.ndarray]] = {}
        results: list[QueryResult] = []
        for row, query in zip(matrix, queries, strict=True):
            start = time.perf_counter()
            rows_matched = 0
            rows_scanned = 0
            bytes_read = 0
            partitions_scanned = 0
            for position in np.flatnonzero(row):
                partition_id = int(position_ids[position])
                partition = by_id.get(partition_id)
                if partition is None:
                    continue
                columns = columns_cache.get(partition_id)
                if columns is None:
                    wanted = frozenset().union(
                        *(referenced[i] for i in np.flatnonzero(matrix[:, position]))
                    )
                    columns = self.store.read_partition(partition, wanted)
                    columns_cache[partition_id] = columns
                mask = query.predicate.evaluate(columns)
                rows_matched += int(np.count_nonzero(mask))
                rows_scanned += partition.row_count
                bytes_read += partition.byte_size
                partitions_scanned += 1
                remaining_uses[partition_id] -= 1
                if remaining_uses[partition_id] <= 0:
                    columns_cache.pop(partition_id, None)
            results.append(
                QueryResult(
                    rows_matched=rows_matched,
                    rows_scanned=rows_scanned,
                    total_rows=stored.total_rows,
                    partitions_scanned=partitions_scanned,
                    partitions_total=len(stored.partitions),
                    bytes_read=bytes_read,
                    elapsed_seconds=time.perf_counter() - start + planning_share,
                )
            )
        return results

    def full_scan(self, stored: StoredLayout) -> ScanResult:
        """Read every partition end to end (Table I's full-table scan)."""
        start = time.perf_counter()
        rows = 0
        bytes_read = 0
        for partition in stored.partitions:
            columns = self.store.read_partition(partition)
            first = next(iter(columns.values()), None)
            rows += len(first) if first is not None else 0
            bytes_read += partition.byte_size
        elapsed = time.perf_counter() - start
        return ScanResult(rows_scanned=rows, bytes_read=bytes_read, elapsed_seconds=elapsed)
