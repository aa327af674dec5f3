"""Physical replay: turn logical schedules into wall-clock measurements.

The paper's end-to-end numbers (Figure 3) time real query execution and
real reorganization on disk.  We reproduce that with a two-phase design:

1. the *logical* run (harness) makes all reorganization decisions from
   partition metadata — exactly how OREO decides in the paper — and records
   the effective layout per query plus the layout objects themselves;
2. :func:`replay_physical` then re-executes the schedule against the
   on-disk :class:`~repro.storage.partition_store.PartitionStore`: each
   layout change becomes a real read-reshuffle-compress-write
   reorganization, and queries are executed with metadata pruning against
   the current stored layout.

Like the paper (§VI-A1: "estimate the total query time using a sample of
2000 queries, around 10% of the workload"), query timing uses a strided
sample of the stream and extrapolates; every reorganization is executed
for real.

Since the :mod:`repro.engine` facade landed, :func:`replay_physical` is a
thin driver over :class:`~repro.engine.LayoutEngine`: the logical
schedule becomes a :class:`~repro.engine.policies.SchedulePolicy`, the
engine runs the serve → decide → move loop (synchronous or pipelined per
``async_reorg``), and the driver only samples timings and shapes the
result.  The pre-facade loop is kept verbatim as
:func:`_replay_physical_direct` — the reference implementation the
differential suite asserts the engine path against, bit for bit
(metadata, partition bytes, deterministic counters).

Two reorganization modes are supported.  The default synchronous mode
executes each layout switch as one blocking
:func:`~repro.storage.reorg.reorganize` call, so queries issued while the
rewrite runs would have stalled for its whole duration.  With
``async_reorg=True`` every switch instead runs through the
:class:`~repro.core.reorg_scheduler.ReorgScheduler`: one bounded movement
step is interleaved after each query, queries keep reading the old epoch's
files until the final commit flips the snapshot, and the per-query stall is
bounded by a single step instead of the whole rewrite (``bench/``'s
``serve_mixed`` workload measures query latency during a live move).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..core.reorg_scheduler import ReorgScheduler
from ..engine import EngineConfig, LayoutEngine, SchedulePolicy
from ..queries.query import QueryStream
from ..storage.executor import QueryExecutor
from ..storage.partition_store import PartitionStore
from ..storage.reorg import reorganize
from ..storage.table import Table
from .harness import MethodResult

__all__ = ["PhysicalRunResult", "replay_physical"]


@dataclass(frozen=True)
class PhysicalRunResult:
    """Wall-clock totals of one physically replayed run."""

    query_seconds: float
    reorg_seconds: float
    num_switches: int
    queries_timed: int
    queries_total: int
    #: logical movement cost charged during replay when ``alpha`` was
    #: supplied: α per synchronous switch, or the per-step amortized
    #: installments of the pipelined mode — which sum to exactly α per
    #: reorganization, so both modes agree with the decision ledger.
    movement_charged: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Combined (extrapolated) query plus reorganization time."""
        return self.query_seconds + self.reorg_seconds


def _validate_replay(sample_stride: int, history: list[str], stream: QueryStream) -> None:
    """Shared input validation of both replay implementations."""
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    if len(history) != len(stream):
        raise ValueError(
            f"schedule length {len(history)} != stream length {len(stream)}"
        )


def replay_physical(
    table: Table,
    stream: QueryStream,
    result: MethodResult,
    store_root: Path | str,
    sample_stride: int = 10,
    compress: bool = True,
    async_reorg: bool = False,
    step_partitions: int = 16,
    alpha: float | None = None,
) -> PhysicalRunResult:
    """Execute a logical schedule physically and measure wall-clock time.

    ``sample_stride`` controls the query-timing sample (1 = time every
    query); total query time is extrapolated as ``mean(sampled) * total``.
    With ``async_reorg=True`` layout switches run pipelined: the switch
    starts a :class:`~repro.core.reorg_scheduler.ReorgScheduler` pipeline,
    subsequent queries are served against the old epoch with one bounded
    movement step (``step_partitions`` files) ticked in between each, and
    the physically effective layout flips only when the last step commits.
    A switch arriving while a pipeline is still in flight drains the
    pipeline first, mirroring how the logical model serializes
    reorganizations.  Supplying ``alpha`` additionally tracks the logical
    movement charge (``PhysicalRunResult.movement_charged``): the
    synchronous mode charges α at each switch, the pipelined mode spreads
    the same α across each reorganization's steps — totals agree with the
    decision ledger either way.

    This is a thin driver over :class:`~repro.engine.LayoutEngine` with a
    :class:`~repro.engine.policies.SchedulePolicy`; the differential suite
    asserts it bit-for-bit equal to the pre-facade loop
    (:func:`_replay_physical_direct`).
    """
    history = result.ledger.layout_history
    _validate_replay(sample_stride, history, stream)
    config = EngineConfig(
        store_root=store_root,
        alpha=alpha,
        async_reorg=async_reorg,
        step_partitions=step_partitions,
        compress=compress,
        cleanup_on_close=True,
    )
    engine = LayoutEngine(config, policy=SchedulePolicy(history, result.layouts))
    engine.open(table, initial_layout=result.layouts[history[0]])
    sampled_seconds: list[float] = []
    try:
        for index, query in enumerate(stream):
            if index % sample_stride == 0:
                outcome = engine.query(query)
                sampled_seconds.append(outcome.elapsed_seconds)
            else:
                engine.observe(query)
        # The stream may end with a move in flight: finish it so the
        # result accounts for the whole reorganization.
        engine.run_until_idle()
    finally:
        # Unwinding on error aborts any in-flight pipeline in O(1); the
        # store's files are removed either way (cleanup_on_close).
        engine.close()

    stats = engine.stats()
    queries_timed = len(sampled_seconds)
    mean_query = sum(sampled_seconds) / queries_timed if queries_timed else 0.0
    return PhysicalRunResult(
        query_seconds=mean_query * len(stream),
        reorg_seconds=stats.reorg_seconds,
        num_switches=stats.num_switches,
        queries_timed=queries_timed,
        queries_total=len(stream),
        movement_charged=stats.movement_charged,
    )


def _replay_physical_direct(
    table: Table,
    stream: QueryStream,
    result: MethodResult,
    store_root: Path | str,
    sample_stride: int = 10,
    compress: bool = True,
    async_reorg: bool = False,
    step_partitions: int = 16,
    alpha: float | None = None,
) -> PhysicalRunResult:
    """The pre-facade replay loop, kept as the differential reference.

    Hand-wires ``PartitionStore`` + ``QueryExecutor`` + ``ReorgScheduler``
    exactly as :func:`replay_physical` did before the
    :class:`~repro.engine.LayoutEngine` facade existed.  The differential
    suite (``tests/engine/test_replay_differential.py``) asserts the
    engine-driven path produces identical metadata, partition bytes and
    deterministic counters in both modes; it exists for that proof, not
    for production use.
    """
    history = result.ledger.layout_history
    _validate_replay(sample_stride, history, stream)
    store = PartitionStore(store_root, compress=compress)
    executor = QueryExecutor(store)
    scheduler = (
        ReorgScheduler(store, alpha=alpha, step_partitions=step_partitions)
        if async_reorg
        else None
    )

    current_id = history[0]
    stored = store.materialize(table, result.layouts[current_id])
    reorg_seconds = 0.0
    movement_charged = 0.0
    sampled_seconds: list[float] = []
    num_switches = 0

    def settle_pipeline():
        """Drain the in-flight pipeline and account for it exactly once."""
        nonlocal stored, reorg_seconds, movement_charged
        stored, completed = scheduler.drain()
        reorg_seconds += completed.elapsed_seconds
        movement_charged += scheduler.charged

    try:
        for index, query in enumerate(stream):
            target_id = history[index]
            if target_id != current_id:
                if scheduler is not None:
                    if scheduler.active:
                        # Back-to-back switch decisions serialize: finish
                        # the in-flight move before starting the next.
                        settle_pipeline()
                    scheduler.start(stored, result.layouts[target_id], table.schema)
                else:
                    stored, reorg_result = reorganize(
                        store, stored, result.layouts[target_id], table.schema
                    )
                    reorg_seconds += reorg_result.elapsed_seconds
                    if alpha is not None:
                        movement_charged += alpha
                num_switches += 1
                current_id = target_id
            if scheduler is not None and scheduler.pipeline is not None:
                # Serve against the visible epoch (old until the flip).
                stored = scheduler.visible
            if index % sample_stride == 0:
                outcome = executor.execute(stored, query)
                sampled_seconds.append(outcome.elapsed_seconds)
            if scheduler is not None and scheduler.active:
                scheduler.tick()
                if not scheduler.active:
                    settle_pipeline()
        if scheduler is not None and scheduler.active:
            # The stream ended with a move in flight: finish it so the
            # result accounts for the whole reorganization.
            settle_pipeline()
    except BaseException:
        # Unwinding on error (or Ctrl-C): the result is discarded, so
        # don't execute the remaining movement steps just to clean up —
        # abort is O(1) and leaves the old epoch's files (= `stored`).
        if scheduler is not None and scheduler.active:
            scheduler.abort()
        raise
    finally:
        store.delete_layout(stored)

    queries_timed = len(sampled_seconds)
    mean_query = sum(sampled_seconds) / queries_timed if queries_timed else 0.0
    return PhysicalRunResult(
        query_seconds=mean_query * len(stream),
        reorg_seconds=reorg_seconds,
        num_switches=num_switches,
        queries_timed=queries_timed,
        queries_total=len(stream),
        movement_charged=movement_charged,
    )
