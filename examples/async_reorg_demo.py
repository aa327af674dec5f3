"""Serving a streaming workload while a reorganization runs in the background.

The workload has drifted: a 256-partition table clustered by arrival date
must be re-clustered onto the newly hot price column.  The synchronous
path would block every query for the whole rewrite; the pipelined path
(:class:`~repro.core.reorg_scheduler.ReorgScheduler` driving an
:class:`~repro.storage.async_reorg.AsyncReorgPipeline`) moves at most
``STEP_PARTITIONS`` partition files per movement step and serves a query
between steps — against the old epoch until the final commit flips the
snapshot, against the new epoch afterwards.  The still-arriving date
queries keep their millisecond latencies for the whole move, because the
old epoch's files (and its compiled zone maps) stay live until the flip.

The demo prints each epoch commit as it lands (phase, partitions touched,
movement-budget installment) and closes with a latency histogram of the
queries served mid-reorganization next to the stall the synchronous
rewrite would have imposed on them.

This demo deliberately drives the *mechanism* layer (scheduler +
pipeline) by hand to show every moving part; production callers get the
same behaviour from :class:`repro.engine.LayoutEngine` with
``async_reorg=True`` — see ``examples/engine_quickstart.py``.

Run:  python examples/async_reorg_demo.py
"""

from __future__ import annotations

import tempfile
import time

import numpy as np

from repro.core import CostEvaluator
from repro.core.reorg_scheduler import ReorgScheduler
from repro.layouts import RangeLayoutBuilder
from repro.queries import Query, between
from repro.storage import PartitionStore, QueryExecutor
from repro.workloads import tpch

NUM_ROWS = 30_000
NUM_PARTITIONS = 256
STEP_PARTITIONS = 16
ALPHA = 80.0
HOT_COLUMN = "l_extendedprice"


def narrow_queries(table, column, count, rng):
    """Narrow range queries on ``column`` (1/64th of its span each)."""
    values = table[column]
    lo, hi = float(np.min(values)), float(np.max(values))
    span = (hi - lo) / 64.0
    starts = rng.uniform(lo, hi - span, size=count)
    return [Query(predicate=between(column, float(s), float(s) + span)) for s in starts]


def histogram(latencies_ms, buckets=(1, 2, 5, 10, 25, 50, 100, 250)):
    """Text histogram of millisecond latencies."""
    lines = []
    previous = 0.0
    for bucket in (*buckets, float("inf")):
        count = sum(1 for value in latencies_ms if previous <= value < bucket)
        label = f"<{bucket:g} ms" if bucket != float("inf") else f">={previous:g} ms"
        lines.append(f"  {label:>10s} {'#' * count}{' ' if count else ''}({count})")
        previous = bucket
    return "\n".join(lines)


def main() -> None:
    rng = np.random.default_rng(7)
    bundle = tpch.load(NUM_ROWS, rng)
    table = bundle.table
    # the traffic still arriving during the move: date-range queries the
    # current layout prunes well
    serving_stream = narrow_queries(table, bundle.default_sort_column, 256, rng)
    # the drifted traffic the re-clustering prepares for
    hot_stream = narrow_queries(table, HOT_COLUMN, 16, rng)

    with tempfile.TemporaryDirectory() as root:
        store = PartitionStore(root)
        executor = QueryExecutor(store)
        evaluator = CostEvaluator(table)

        arrival_order = RangeLayoutBuilder(bundle.default_sort_column).build(
            table, [], NUM_PARTITIONS, rng
        )
        stored = store.materialize(table, arrival_order)
        evaluator.register_metadata(arrival_order.layout_id, stored.metadata)
        hot = RangeLayoutBuilder(HOT_COLUMN).build(table, [], NUM_PARTITIONS, rng)

        before = np.mean(
            [executor.execute(stored, q).accessed_fraction for q in hot_stream]
        )
        print(
            f"re-clustering {NUM_PARTITIONS} partitions "
            f"{bundle.default_sort_column} -> {HOT_COLUMN} "
            f"in steps of {STEP_PARTITIONS} files (alpha={ALPHA:g})\n"
        )

        scheduler = ReorgScheduler(
            store,
            evaluator=evaluator,
            alpha=ALPHA,
            step_partitions=STEP_PARTITIONS,
        )
        scheduler.start(stored, hot, table.schema)

        latencies_ms = []
        position = 0
        print(f"{'epoch':>5s} {'phase':>7s} {'files':>6s} {'charge':>7s} {'query p50 so far':>17s}")
        while scheduler.active:
            ticked = scheduler.tick()
            start = time.perf_counter()
            executor.execute(scheduler.visible, serving_stream[position % len(serving_stream)])
            position += 1
            latencies_ms.append(
                (ticked.step.elapsed_seconds / 2.0 + time.perf_counter() - start) * 1e3
            )
            step = ticked.step
            print(
                f"{step.epoch:5d} {step.kind:>7s} {step.partitions_touched:6d} "
                f"{ticked.movement_charge:7.2f} {float(np.median(latencies_ms)):17.2f}"
            )

        new_stored, result = scheduler.pipeline.result
        after = np.mean(
            [executor.execute(new_stored, q).accessed_fraction for q in hot_stream]
        )
        sync_stall_ms = result.elapsed_seconds * 1e3 / 2.0  # expected mid-rewrite wait

        print(
            f"\ncommitted epoch {scheduler.pipeline.epoch}: "
            f"{result.partitions_written} partitions, "
            f"{result.rows_moved} rows, movement charged {scheduler.charged:g} "
            f"(= alpha, spread over {scheduler.pipeline.epoch} steps)"
        )
        print(
            f"hot-column access fraction {before:.3f} -> {after:.3f}; "
            f"queries served during the move: {len(latencies_ms)}"
        )
        print("\nlatency histogram of queries served mid-reorganization:")
        print(histogram(latencies_ms))
        print(
            f"\nsynchronous rewrite took {result.elapsed_seconds * 1e3:.0f} ms of "
            f"movement: a query arriving mid-rewrite would have stalled "
            f"~{sync_stall_ms:.0f} ms; the pipelined p50 above is "
            f"{float(np.median(latencies_ms)):.1f} ms."
        )


if __name__ == "__main__":
    main()
