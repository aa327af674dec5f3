"""Reorg scheduler: drive a pipelined reorganization behind query serving.

:class:`~repro.storage.async_reorg.AsyncReorgPipeline` knows how to move
data in bounded steps; this module decides *when* the steps run.  One
:meth:`ReorgScheduler.tick` advances the pipeline by exactly one movement
step and charges the movement budget through a
:class:`~repro.core.dumts.MovementAmortizer`, so the per-step installments
sum to exactly the α the D-UMTS decision was charged — pipelining never
changes the competitive-ratio ledger.

Mid-flight the attached caches are not touched: the old epoch keeps being
planned and priced from its own snapshot, and the target keeps whatever
price the evaluator held for it before the move.  At the final commit the
scheduler applies the cache-freshness rule (``docs/architecture.md``): the
evaluator registers the committed snapshot under the target id — the
physical truth replaces any pre-move estimate — and forgets the retired
id.  An executor needs no word: it plans on the index the visible
snapshot owns.

Between ticks the caller keeps serving queries with its own executor
against :attr:`visible` — the old epoch until the final commit, the new
epoch afterwards, never a mixture.  What is in flight is recorded once, in
:attr:`ReorgScheduler.pipeline` (``old_stored``, ``new_layout``, progress);
``IncrementalStore`` and :class:`~repro.engine.LayoutEngine` read it there
instead of mirroring it.  The scheduler is cooperative by design: steps and
queries interleave deterministically in one thread, which is both what makes
the differential equivalence suite possible and an honest reproduction of
the paper's background reorganization (§III-B) under a global interpreter
lock.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ..layouts.base import DataLayout
from ..storage.async_reorg import AsyncReorgPipeline, MovementStep
from ..storage.partition import StoredLayout
from ..storage.partition_store import PartitionStore
from ..storage.reorg import ReorgResult
from ..storage.table import Schema
from .cost_model import CostEvaluator
from .dumts import MovementAmortizer

__all__ = ["ScheduledStep", "ReorgScheduler"]


@dataclass(frozen=True)
class ScheduledStep:
    """One scheduler tick: the movement step plus its ledger installment."""

    step: MovementStep
    #: α-installment charged for this step (0.0 when no budget is attached)
    movement_charge: float
    #: True when this tick's step was the final commit
    completed: bool


class ReorgScheduler:
    """Interleaves bounded data movement with query serving.

    ``evaluator`` is optional: attach a cost evaluator that nothing else
    keeps fresh (``IncrementalStore`` registers its own commits).
    ``alpha`` attaches a movement budget; every started reorganization
    then charges exactly ``alpha`` across its steps
    (:class:`~repro.core.dumts.MovementAmortizer`) —
    ``alpha=0.0`` is a *tracked* free budget, distinct from ``None``
    (untracked).  ``mover_threads`` fans each step's file I/O across a
    bounded thread pool inside the pipeline; scheduling stays cooperative
    (one step per tick) and the committed bytes are identical either way.

    Stable lower-level API; new code should usually reach it through
    :class:`~repro.engine.LayoutEngine` with ``async_reorg=True``, which
    owns this wiring (``engine.reorganize`` / ``engine.step`` /
    ``engine.run_until_idle``) and serializes back-to-back moves.
    """

    def __init__(
        self,
        store: PartitionStore,
        evaluator: CostEvaluator | None = None,
        alpha: float | None = None,
        step_partitions: int = 16,
        mover_threads: int = 1,
    ):
        if step_partitions < 1:
            raise ValueError("step_partitions must be positive")
        if mover_threads < 1:
            raise ValueError("mover_threads must be positive")
        self.store = store
        self.evaluator = evaluator
        self.alpha = alpha
        self.step_partitions = int(step_partitions)
        self.mover_threads = int(mover_threads)
        self._pipeline: AsyncReorgPipeline | None = None
        self._amortizer: MovementAmortizer | None = None
        self._on_complete: Callable[[StoredLayout, ReorgResult], None] | None = None
        self._on_abort: Callable[[], None] | None = None

    # ------------------------------------------------------------------- state
    @property
    def active(self) -> bool:
        """Whether a reorganization is currently in flight."""
        return self._pipeline is not None and not self._pipeline.done

    @property
    def pipeline(self) -> AsyncReorgPipeline | None:
        """The current (or most recently completed) pipeline."""
        return self._pipeline

    @property
    def visible(self) -> StoredLayout:
        """The stored layout queries must run against right now."""
        if self._pipeline is None:
            raise RuntimeError("no reorganization has been started")
        return self._pipeline.visible

    # ------------------------------------------------------------------- start
    def start(
        self,
        stored: StoredLayout,
        new_layout: DataLayout,
        schema: Schema,
        on_complete: Callable[[StoredLayout, ReorgResult], None] | None = None,
        on_abort: Callable[[], None] | None = None,
    ) -> AsyncReorgPipeline:
        """Begin a pipelined reorganization of ``stored`` into ``new_layout``.

        Queries served against :attr:`visible` keep reading ``stored``
        until the final commit, and the attached evaluator does not hear
        of the move before then (see the module notes).
        """
        if self.active:
            raise RuntimeError("a reorganization is already in flight")
        # Validate everything that can raise before mutating any state:
        # a half-started scheduler would refuse both retry and drain.
        # ``is not None``, not truthiness: an explicit alpha=0.0 attaches
        # a tracked-but-free budget (installments all 0.0, settling to
        # exactly 0.0) rather than silently dropping the ledger.
        amortizer = MovementAmortizer(self.alpha) if self.alpha is not None else None
        pipeline = AsyncReorgPipeline(
            self.store,
            stored,
            new_layout,
            schema,
            step_partitions=self.step_partitions,
            mover_threads=self.mover_threads,
        )
        self._pipeline = pipeline
        self._on_complete = on_complete
        self._on_abort = on_abort
        self._amortizer = amortizer
        return pipeline

    # -------------------------------------------------------------------- tick
    def tick(self) -> ScheduledStep | None:
        """Advance the in-flight reorganization by one movement step.

        Returns ``None`` when nothing is in flight.  On the final commit
        the visible snapshot flips, the attached evaluator moves to the
        new epoch, and any ``on_complete`` callback fires.
        """
        if not self.active:
            return None
        pipeline = self._pipeline
        step = pipeline.step()
        charge = 0.0
        if self._amortizer is not None:
            charge = self._amortizer.charge(step.completed_fraction)
        completed = pipeline.done
        if completed:
            if self._amortizer is not None:
                charge += self._amortizer.settle()
            self._commit_final()
        return ScheduledStep(step=step, movement_charge=charge, completed=completed)

    def drain(self) -> tuple[StoredLayout, ReorgResult]:
        """Run every remaining step back to back; returns the final result."""
        if self._pipeline is None:
            raise RuntimeError("no reorganization has been started")
        while self.active:
            self.tick()
        return self._pipeline.result

    def abort(self) -> float:
        """Abandon an in-flight reorganization without committing it.

        The staged buffer is discarded and the visible snapshot remains the
        old epoch (which the pipeline never touched, and which the attached
        evaluator never left) — after which :meth:`start` can be called again.
        Returns the movement budget to *refund*: the installments already
        emitted for the abandoned move (a retried
        move charges its full α afresh, so without the refund a ledger
        summing per-step charges would over-count the aborted attempt).
        An ``on_abort`` callback supplied to :meth:`start` fires so owners
        (e.g. ``IncrementalStore``) can release their own in-flight state.
        No-op (refund 0.0) when nothing is in flight.
        """
        if not self.active:
            return 0.0
        pipeline, self._pipeline = self._pipeline, None
        self.store.abort_staging(pipeline.new_layout.layout_id)
        refund = self._amortizer.charged if self._amortizer is not None else 0.0
        self._amortizer = None
        self._on_complete = None
        if self._on_abort is not None:
            callback, self._on_abort = self._on_abort, None
            callback()
        return refund

    @property
    def charged(self) -> float:
        """Movement budget charged for the current/last reorganization."""
        if self._amortizer is None:
            return 0.0
        return self._amortizer.charged

    # ---------------------------------------------------------------- internal
    def _commit_final(self) -> None:
        new_stored, result = self._pipeline.result
        target_id = new_stored.layout.layout_id
        retired_id = self._pipeline.old_stored.layout.layout_id
        if self.evaluator is not None:
            self.evaluator.register_metadata(target_id, new_stored.metadata)
        if self.evaluator is not None and retired_id != target_id:
            self.evaluator.forget(retired_id)  # a same-id rewrite retires nothing
        self._on_abort = None
        if self._on_complete is not None:
            callback, self._on_complete = self._on_complete, None
            callback(new_stored, result)
