"""Pipelined reorganization: bounded movement steps behind a stable snapshot.

:func:`~repro.storage.reorg.reorganize` executes the paper's four
reorganization stages (read, re-assign, repartition, compress-and-write) in
one synchronous call, so every query issued while a reorganization is in
flight stalls for the whole rewrite — one to two orders of magnitude longer
than a scan.  :class:`AsyncReorgPipeline` splits the identical work into
*movement steps*, each touching at most ``step_partitions`` partition files,
so a scheduler can interleave query serving with data movement: queries keep
reading the old layout's files (which stay on disk untouched) while movers
populate a staged copy of the new layout, and the final commit flips the
visible snapshot in one step.

The pipeline advances through four phases:

1. **read** — each step decompresses up to ``step_partitions`` source
   partitions into memory (the same full-read the synchronous path does,
   paced instead of monolithic);
2. **assign** — one step concatenates the pieces in stored-partition order
   (exactly :meth:`PartitionStore.read_all`'s row order) and routes every
   row through ``new_layout.assign``.  Assigning the whole table at once —
   rather than per read batch — is deliberate: layouts may be
   row-order-sensitive (round-robin), and the single-shot assignment is
   what makes the pipeline's output bit-for-bit the synchronous path's;
3. **write** — each step compresses up to ``step_partitions`` target
   partitions into the store's staging buffer
   (:meth:`PartitionStore.begin_staging`) and stamps them with the
   committing epoch; nothing outside the pipeline sees them yet;
4. **commit** — one step flips the staged buffer into the live directory
   (:meth:`PartitionStore.commit_staging`), deletes the old layout's files,
   and exposes the new stored layout — one new metadata snapshot object —
   with the completed :class:`~repro.storage.reorg.ReorgResult`.

Epoch protocol invariants (documented in ``docs/architecture.md``):

* the **visible snapshot** (:attr:`AsyncReorgPipeline.visible`) is the old
  stored layout until the commit step completes, then the new one — a query
  planned between steps sees exactly one epoch, never a mix;
* **epochs are monotonic**: every completed step commits epoch ``n+1``, and
  a partition file stamped with epoch ``e`` is durable from the end of step
  ``e`` onward;
* **staged state is private**: until the commit step no cache — cost
  evaluator, executor plans — is told about the partitions written so far;
  the new epoch becomes known to them as one new snapshot object, at the
  flip;
* **completion is equivalence**: the final metadata and partition files are
  bit-for-bit what the synchronous :func:`~repro.storage.reorg.reorganize`
  produces (asserted by the differential suite in
  ``tests/core/test_reorg_scheduler.py``).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import TypeVar

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
from .reorg import ReorgResult
from .table import Schema, Table

__all__ = ["MovementStep", "AsyncReorgPipeline"]

_MoveIn = TypeVar("_MoveIn")
_MoveOut = TypeVar("_MoveOut")


@dataclass(frozen=True)
class MovementStep:
    """Accounting of one bounded movement step."""

    kind: str  #: "read" | "assign" | "write" | "commit"
    epoch: int  #: the epoch this step committed (monotonically increasing)
    elapsed_seconds: float
    partitions_touched: int
    rows_moved: int
    bytes_moved: int
    #: cumulative fraction of the pipeline's movement work completed after
    #: this step, in [0, 1] — what the scheduler charges the movement
    #: budget against (see :class:`~repro.core.dumts.MovementAmortizer`).
    completed_fraction: float


class AsyncReorgPipeline:
    """Rewrite a stored layout into a new one, ``step_partitions`` at a time.

    Drive it with :meth:`step` (typically via
    :class:`~repro.core.reorg_scheduler.ReorgScheduler`, which interleaves
    queries and charges the movement budget) until
    :attr:`done`; :attr:`result` then holds the same ``(StoredLayout,
    ReorgResult)`` pair the synchronous path returns.  :meth:`run_to_completion`
    drains the remaining steps in one call.

    ``mover_threads`` fans one step's ≤ ``step_partitions`` file reads or
    writes across a bounded thread pool (the files are disjoint and the
    heavy work releases the GIL); the step boundary stays a barrier and
    per-file results are collected in submission order, so the committed
    snapshot — files, metadata, epochs — is bit-for-bit independent of
    the thread count.  The default of 1 is the fully serial behaviour.
    """

    def __init__(
        self,
        store: PartitionStore,
        stored: StoredLayout,
        new_layout: DataLayout,
        schema: Schema,
        step_partitions: int = 16,
        mover_threads: int = 1,
    ):
        if step_partitions < 1:
            raise ValueError("step_partitions must be positive")
        if mover_threads < 1:
            raise ValueError("mover_threads must be positive")
        self.store = store
        self.old_stored = stored
        self.new_layout = new_layout
        self.schema = schema
        self.step_partitions = int(step_partitions)
        self.mover_threads = int(mover_threads)
        self.epoch = 0
        self._phase = "read"
        self._read_position = 0
        self._pieces: list[dict[str, np.ndarray]] = []
        self._table: Table | None = None
        self._groups: list[tuple[int, np.ndarray]] = []
        self._write_position = 0
        self._written: list[StoredPartition] = []
        self._written_metadata: list[PartitionMetadata] = []
        self._staging: Path | None = None
        self._movement_seconds = 0.0
        self._bytes_read = 0
        self._bytes_written = 0
        self._committed: StoredLayout | None = None
        self._result: tuple[StoredLayout, ReorgResult] | None = None
        # Work units for completed_fraction: one per source partition read,
        # one per target partition written, plus one assign and one commit
        # step.  The target count is estimated by the layout's partition
        # budget until the assignment pins it down; the movement amortizer
        # tolerates the estimate shrinking (charges are clamped monotone).
        self._work_done = 0
        self._target_estimate = max(1, new_layout.num_partitions)

    # ------------------------------------------------------------------- views
    @property
    def phase(self) -> str:
        """Current phase: ``read`` → ``assign`` → ``write`` → ``commit`` → ``done``."""
        return self._phase

    @property
    def done(self) -> bool:
        """Whether the final commit has completed."""
        return self._phase == "done"

    @property
    def visible(self) -> StoredLayout:
        """The snapshot queries must run against right now.

        Old epoch until the commit step lands, new epoch afterwards —
        never a mixture of the two.
        """
        if self._committed is not None:
            return self._committed
        return self.old_stored

    @property
    def result(self) -> tuple[StoredLayout, ReorgResult]:
        """The completed reorganization; raises until :attr:`done`."""
        if self._committed is None:
            raise RuntimeError("pipeline has not committed yet")
        if self._result is None:
            new_stored = self._committed
            self._result = (
                new_stored,
                ReorgResult(
                    elapsed_seconds=self._movement_seconds,
                    bytes_read=self._bytes_read,
                    bytes_written=self._bytes_written,
                    rows_moved=new_stored.total_rows,
                    partitions_written=len(new_stored.partitions),
                ),
            )
        return self._result

    def _total_work(self) -> int:
        targets = len(self._groups) if self._groups else self._target_estimate
        return len(self.old_stored.partitions) + targets + 2

    def completed_fraction(self) -> float:
        """Fraction of movement work done, against the current work estimate."""
        if self.done:
            return 1.0
        return min(1.0, self._work_done / self._total_work())

    # ------------------------------------------------------------------- steps
    def step(self) -> MovementStep:
        """Run one bounded movement step and commit its epoch."""
        if self.done:
            raise RuntimeError("pipeline already completed")
        start = time.perf_counter()
        if self._phase == "read":
            outcome = self._step_read()
        elif self._phase == "assign":
            outcome = self._step_assign()
        elif self._phase == "write":
            outcome = self._step_write()
        else:
            outcome = self._step_commit()
        kind, touched, rows, bytes_moved = outcome
        elapsed = time.perf_counter() - start
        self._movement_seconds += elapsed
        self.epoch += 1
        return MovementStep(
            kind=kind,
            epoch=self.epoch,
            elapsed_seconds=elapsed,
            partitions_touched=touched,
            rows_moved=rows,
            bytes_moved=bytes_moved,
            completed_fraction=self.completed_fraction(),
        )

    def run_to_completion(self) -> tuple[StoredLayout, ReorgResult]:
        """Drain every remaining step; returns the committed result."""
        while not self.done:
            self.step()
        return self.result

    # ---------------------------------------------------------------- internal
    def _map_movers(
        self, fn: Callable[[_MoveIn], _MoveOut], items: Sequence[_MoveIn]
    ) -> list[_MoveOut]:
        """Apply one step's per-file work, fanned over the mover pool.

        The files a step touches are disjoint and numpy/zlib release the
        GIL, so ``mover_threads > 1`` overlaps the (de)compression.
        Results are collected in submission order regardless of completion
        order, and each file's bytes depend only on its own rows — the
        committed snapshot is bit-for-bit the serial one, which is why the
        differential equivalence suites gate the parallel path directly.
        """
        if self.mover_threads == 1 or len(items) <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=min(self.mover_threads, len(items))) as pool:
            return list(pool.map(fn, items))

    def _step_read(self):
        batch = self.old_stored.partitions[
            self._read_position : self._read_position + self.step_partitions
        ]
        rows = 0
        bytes_moved = 0
        self._pieces.extend(self._map_movers(self.store.read_partition, batch))
        for partition in batch:
            rows += partition.row_count
            bytes_moved += partition.byte_size
        self._read_position += len(batch)
        self._bytes_read += bytes_moved
        self._work_done += len(batch)
        if self._read_position >= len(self.old_stored.partitions):
            self._phase = "assign"
        return "read", len(batch), rows, bytes_moved

    def _step_assign(self):
        self._table = self.store.merge_pieces(self._pieces, self.schema)
        self._pieces = []
        if self._table.num_rows == 0:
            # Zero stored partitions: nothing to route, and a layout's
            # assign() need not accept an empty table (merge_pieces's
            # fallback columns carry no dtype information).  An empty
            # assignment yields zero write groups, so the pipeline falls
            # through read → assign → commit and lands on the same empty
            # snapshot the synchronous reorganize() produces.
            assignment = np.zeros(0, dtype=np.int64)
        else:
            assignment = self.new_layout.assign(self._table)
        self._groups = sorted(
            partition_row_indices(assignment).items(),
            key=lambda item: item[0],
        )
        self._staging = self.store.begin_staging(self.new_layout.layout_id)
        self._phase = "write" if self._groups else "commit"
        self._work_done += 1
        return "assign", 0, int(self._table.num_rows), 0

    def _write_one(
        self, group: tuple[int, np.ndarray], committing_epoch: int
    ) -> tuple[StoredPartition, PartitionMetadata]:
        partition_id, row_indices = group
        written = self.store.write_partition_file(
            self._table,
            row_indices,
            int(partition_id),
            self._staging,
            epoch=committing_epoch,
        )
        metadata = build_partition_metadata(self._table, row_indices, int(partition_id))
        return written, metadata

    def _step_write(self):
        # The assign step materialized the table and opened the staging
        # buffer before the phase machine could reach "write".
        assert self._table is not None and self._staging is not None
        batch = self._groups[
            self._write_position : self._write_position + self.step_partitions
        ]
        committing_epoch = self.epoch + 1
        rows = 0
        bytes_moved = 0
        outcomes = self._map_movers(
            lambda group: self._write_one(group, committing_epoch), batch
        )
        for written, metadata in outcomes:
            self._written.append(written)
            self._written_metadata.append(metadata)
            rows += written.row_count
            bytes_moved += written.byte_size
        self._write_position += len(batch)
        self._bytes_written += bytes_moved
        self._work_done += len(batch)
        if self._write_position >= len(self._groups):
            self._phase = "commit"
        return "write", len(batch), rows, bytes_moved

    def _step_commit(self):
        old = self.old_stored
        same_id = old.layout.layout_id == self.new_layout.layout_id
        live = self.store.commit_staging(self.new_layout.layout_id)
        if not same_id:
            self.store.delete_layout(old)
        partitions = tuple(
            StoredPartition(
                partition_id=p.partition_id,
                path=live / p.path.name,
                row_count=p.row_count,
                byte_size=p.byte_size,
                epoch=p.epoch,
            )
            for p in self._written
        )
        self._committed = StoredLayout(
            layout=self.new_layout,
            metadata=LayoutMetadata(partitions=tuple(self._written_metadata)),
            partitions=partitions,
        )
        # Release the staged rows and every O(rows) planning structure;
        # only the committed result (descriptors + metadata) stays alive.
        self._table = None
        self._groups = []
        self._pieces = []
        self._written_metadata = []
        self._phase = "done"
        return "commit", len(partitions), 0, 0
