"""Incremental ingestion: batch-wise appends under the current layout.

§III-C: *"For streaming data that is ingested continuously, reorganizing
the entire dataset with each new data point arrival is not practical.
Instead, we could batch newly arrived data and reorganize them separately
from the already ingested data."* — the approach behind incremental
clustering features like Databricks liquid clustering.

:class:`IncrementalStore` implements it: each ingested batch is routed
through the *current* layout's assignment function and written as fresh
partition files (with globally unique partition ids) next to the existing
ones; previously written partitions are never touched.  Data skipping keeps
working because each appended partition carries its own metadata.  Over
time the per-batch partitioning fragments the layout (many small
partitions, weaker clustering across batches), which is exactly what
:meth:`IncrementalStore.consolidate` — a full reorganization into a new
layout — repairs; OREO decides *when* that is worth α.

A table written whole is the one-component case of the same structure:
``IncrementalStore(..., initial=stored)`` adopts what
:meth:`PartitionStore.materialize` wrote exactly as a finished
consolidation adopts its own result, so :class:`~repro.engine.LayoutEngine`
serves ``open(table)`` and streaming ingest from one store object.

An attached :class:`~repro.core.cost_model.CostEvaluator` is kept in sync
with the materialized metadata: every append and every consolidation
installs a new snapshot object and registers it
(:meth:`CostEvaluator.register_metadata`), which drops whatever was cached
against the previous one (``docs/architecture.md``, "Cache freshness").

**Dual-epoch ingest.**  A pipelined consolidation
(:meth:`IncrementalStore.consolidate_async`) freezes its read set at
start, but the stream does not stop for it.  Batches arriving while the
pipeline is in flight are routed through the *old* layout into a sidecar
batch directory: they join the visible snapshot (and the evaluator's
registered metadata) immediately — the same path as an idle append —
while the batch tables are retained in a replay queue.  When the
final commit flips the epoch, the queue is replayed through the *new*
layout's ``assign``, so the post-consolidation state is bit-for-bit the
state a synchronous "consolidate, then ingest" sequence leaves behind:
nothing pauses, nothing is dropped.  On abort the sidecar partitions
simply remain ordinary appended partitions of the old epoch and the
replay queue is discarded (its rows are already in the bookkeeping).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..layouts.base import DataLayout
from ..layouts.metadata import (
    LayoutMetadata,
    PartitionMetadata,
    build_partition_metadata,
    partition_row_indices,
)
from .partition import StoredLayout, StoredPartition
from .partition_store import PartitionStore
from .reorg import ReorgResult, reorganize
from .table import Schema, Table
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation-only import (avoids cycle)
    from ..core.cost_model import CostEvaluator
    from ..core.reorg_scheduler import ReorgScheduler

__all__ = ["IncrementalStore"]


class IncrementalStore:
    """Append-only materialization with batch-local partitioning.

    Stable lower-level API; new code should usually reach it through
    :class:`~repro.engine.LayoutEngine`, which owns this wiring
    (``engine.ingest`` / ``engine.reorganize``) and keeps the executor,
    evaluator and scheduler consistent across consolidations.
    """

    def __init__(
        self,
        store: PartitionStore,
        schema: Schema,
        layout: DataLayout,
        evaluator: CostEvaluator | None = None,
        allow_ingest_during_consolidation: bool = True,
        initial: StoredLayout | None = None,
    ):
        if initial is None:
            initial = StoredLayout(layout, LayoutMetadata(partitions=()), ())
        elif initial.layout.layout_id != layout.layout_id:
            raise ValueError("initial stored layout was not written under `layout`")
        self.store = store
        self.schema = schema
        self.evaluator = evaluator
        self.allow_ingest_during_consolidation = allow_ingest_during_consolidation
        self._batches_ingested = 0
        self._consolidating = False
        #: batches routed through the sidecar while a consolidation was in
        #: flight, retained for replay through the new layout at commit
        self._sidecar_batches: list[Table] = []
        self._adopt(initial)

    def _adopt(self, stored: StoredLayout) -> None:
        """Take ``stored`` as this store's whole state; register its snapshot.

        How a complete layout becomes the store's — ``initial`` at
        construction, a consolidation's result at its commit.
        """
        self.layout = stored.layout
        self._snapshot = stored
        self._next_partition_id = (
            max((p.partition_id for p in stored.partitions), default=-1) + 1
        )
        if self.evaluator is not None:
            self.evaluator.register_metadata(self.layout.layout_id, stored.metadata)

    # ----------------------------------------------------------------- ingest
    def ingest(self, batch: Table) -> int:
        """Route a batch through the current layout; append its partitions.

        Returns the number of partition files written.  Existing partitions
        are untouched (§III-C's incremental-clustering behaviour).  While a
        pipelined consolidation is in flight the batch takes the dual-epoch
        sidecar path: immediately visible against the old epoch, replayed
        through the new layout at the final commit (see the module notes).
        With ``allow_ingest_during_consolidation=False`` the pre-sidecar
        behaviour is restored and the call raises instead.
        """
        if self._consolidating and not self.allow_ingest_during_consolidation:
            # Opt-out (guard-and-wait) mode: the caller asked for the old
            # contract where the stream must drain the scheduler first.
            raise RuntimeError(
                "cannot ingest while an async consolidation is in flight; "
                "drain the scheduler first"
            )
        if batch.schema != self.schema:
            raise ValueError("batch schema does not match the store's schema")
        if batch.num_rows == 0:
            return 0
        if self._consolidating:
            # Dual-epoch path: the pipeline's read set is frozen, so the
            # batch lands in a sidecar directory next to the ordinary
            # per-batch files — visible (and priced) immediately against
            # the old epoch — and is queued for replay through the new
            # layout when the final commit flips.
            written = self._append_batch(batch, self._sidecar_directory(self.layout.layout_id))
            self._sidecar_batches.append(batch)
        else:
            written = self._append_batch(batch, self._batch_directory(self.layout.layout_id))
        return written

    def _batch_directory(self, layout_id: str) -> Path:
        return self.store.root / f"incremental-{layout_id}"

    def _sidecar_directory(self, layout_id: str) -> Path:
        return self.store.root / f"incremental-{layout_id}.sidecar"

    def _append_batch(self, batch: Table, directory: Path, count_batch: bool = True) -> int:
        """Append one batch's partitions under the current layout, atomically.

        All bookkeeping (next id, batch counter, snapshot, evaluator
        registration) is staged locally and committed
        only after every partition file of the batch landed on disk; a
        mid-batch write failure removes the orphaned files and leaves the
        store exactly as it was.
        """
        assignment = self.layout.assign(batch)
        next_id = self._next_partition_id
        staged_parts: list[StoredPartition] = []
        staged_meta: list[PartitionMetadata] = []
        try:
            for _, rows in sorted(partition_row_indices(assignment).items()):
                partition_id = next_id
                next_id += 1
                staged_parts.append(
                    self.store.write_partition_file(batch, rows, partition_id, directory)
                )
                staged_meta.append(build_partition_metadata(batch, rows, partition_id))
        except BaseException:
            for orphan in staged_parts:
                self.store.remove_partition_file(orphan)
            raise
        self._next_partition_id = next_id
        if count_batch:
            self._batches_ingested += 1
        old = self._snapshot
        self._snapshot = StoredLayout(
            layout=self.layout,
            metadata=LayoutMetadata(partitions=(*old.metadata.partitions, *staged_meta)),
            partitions=(*old.partitions, *staged_parts),
        )
        if self.evaluator is not None:
            self.evaluator.register_metadata(self.layout.layout_id, self._snapshot.metadata)
        return len(staged_parts)

    # ------------------------------------------------------------------ views
    def stored(self) -> StoredLayout:
        """Snapshot of the current materialization (queryable as-is)."""
        return self._snapshot

    @property
    def total_rows(self) -> int:
        """Rows ingested so far."""
        return self._snapshot.total_rows

    @property
    def num_partitions(self) -> int:
        """Partition files currently on disk."""
        return len(self._snapshot.partitions)

    @property
    def batches_ingested(self) -> int:
        """Number of ingest() calls that wrote data."""
        return self._batches_ingested

    @property
    def consolidating(self) -> bool:
        """Whether an async consolidation is currently in flight."""
        return self._consolidating

    def fragmentation(self, target_partition_rows: int) -> float:
        """How fragmented the store is versus an ideal consolidation.

        Ratio of actual partition count to the minimum count needed at
        ``target_partition_rows`` rows per partition; 1.0 means perfectly
        consolidated, large values mean many undersized batch partitions.
        """
        if self.total_rows == 0:
            return 1.0
        ideal = max(1, int(np.ceil(self.total_rows / target_partition_rows)))
        return self.num_partitions / ideal

    # ------------------------------------------------------------- consolidate
    def consolidate(self, new_layout: DataLayout) -> ReorgResult:
        """Full reorganization of everything ingested into ``new_layout``.

        This is the reorganization OREO charges α for; afterwards the store
        continues ingesting under the new layout.  Runs synchronously —
        ingest and queries stall until the rewrite lands; see
        :meth:`consolidate_async` for the pipelined variant.
        """
        self._require_idle()
        new_stored, result = reorganize(self.store, self.stored(), new_layout, self.schema)
        self._finish_consolidation(new_stored)
        return result

    def consolidate_async(self, new_layout: DataLayout, scheduler: ReorgScheduler) -> None:
        """Start a pipelined consolidation driven by ``scheduler``.

        The store keeps serving its pre-consolidation snapshot (and the
        attached evaluator keeps pricing it) while the scheduler's ticks
        move data in bounded steps; when the final epoch commits, the
        store's bookkeeping lands in exactly the state :meth:`consolidate`
        leaves behind.  ``scheduler`` is a
        :class:`~repro.core.reorg_scheduler.ReorgScheduler` over this
        store's :class:`PartitionStore`; its ``abort()`` abandons the
        move and releases this store.  Ingesting while the
        consolidation is in flight takes the
        dual-epoch sidecar path (see the module notes): the pipeline's
        frozen read set stays frozen, the batch is visible immediately,
        and the final commit replays it through the new layout so the
        outcome equals a synchronous consolidate-then-ingest sequence.
        """
        self._require_idle()
        if scheduler.store is not self.store:
            raise ValueError("scheduler drives a different PartitionStore")
        scheduler.start(
            self.stored(),
            new_layout,
            self.schema,
            on_complete=lambda new_stored, result: self._finish_consolidation(new_stored),
            # scheduler.abort() releases the ingest guard too, instead of
            # leaving the store wedged behind a dead pipeline.
            on_abort=self._release_consolidation,
        )
        # Only after start() succeeded: an aborted start must not leave
        # the store refusing ingests with nothing in flight to drain.
        self._consolidating = True

    def _require_idle(self) -> None:
        if self._consolidating:
            raise RuntimeError(
                "an async consolidation is already in flight; drain or "
                "abort its scheduler first"
            )

    def _release_consolidation(self) -> None:
        """Drop the in-flight consolidation guard.

        Also discards the sidecar replay queue: on an abort the sidecar
        partitions already sit in the bookkeeping as ordinary appends of
        the old epoch, so replaying them later would duplicate their rows.
        (:meth:`_finish_consolidation` detaches the queue before calling
        this.)
        """
        self._consolidating = False
        self._sidecar_batches = []

    def _remove_batch_files(self, layout_id: str) -> None:
        """Drop ``layout_id``'s per-batch partition files (ingest + sidecar)."""
        self.store.remove_directory(self._batch_directory(layout_id))
        self.store.remove_directory(self._sidecar_directory(layout_id))

    def delete_files(self) -> None:
        """Remove everything this store wrote to disk.

        Both the per-batch ingest files and any consolidated layout
        directory; the in-memory bookkeeping is left untouched.  Raises
        while an async consolidation is in flight (the pipeline still
        reads these files) — callers such as :meth:`LayoutEngine.close`
        with ``cleanup_on_close`` must abort it first.
        """
        self._require_idle()
        self._remove_batch_files(self.layout.layout_id)
        self.store.delete_layout(self.stored())

    def _finish_consolidation(self, new_stored: StoredLayout) -> None:
        """Swap the store's state onto a freshly consolidated layout."""
        # Detach the replay queue before releasing the guard (which
        # discards it): these batches arrived after the pipeline froze its
        # read set, so the consolidated snapshot does not contain them yet.
        replay, self._sidecar_batches = self._sidecar_batches, []
        self._release_consolidation()
        # The incremental directories hold the old batch files; drop them.
        retired_id = self.layout.layout_id
        self._remove_batch_files(retired_id)
        if self.evaluator is not None and retired_id != new_stored.layout.layout_id:
            self.evaluator.forget(retired_id)  # a same-id rewrite retires nothing
        self._adopt(new_stored)
        # Dual-epoch replay: batches that arrived mid-flight now route
        # through the *new* layout, exactly as if they had been ingested
        # right after a synchronous consolidate() — same partition ids,
        # same files, same metadata.  They were
        # already counted as ingested batches on arrival.
        for batch in replay:
            self._append_batch(
                batch, self._batch_directory(self.layout.layout_id), count_batch=False
            )
