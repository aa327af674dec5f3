"""Engine quickstart: the whole online loop behind one facade.

Ingests a stream of batches into a :class:`repro.engine.LayoutEngine`,
serves range queries while data keeps arriving, then triggers a
*pipelined* consolidation — queries keep being served from the old epoch
while bounded movement steps run in between them — and prints the event
stream an :class:`repro.engine.EventLog` observer recorded along the way:
ingests, served queries, the reorg start, every movement step, the
α-installments, and the final commit.  An observer is any object with an
``on_event(name, payload)`` method; ``MovementLedger`` below is a
five-line one that re-derives the engine's movement account from the
stream alone.

This is the API every scale-out direction plugs into; the pre-facade
wiring (`PartitionStore` + `IncrementalStore` + `QueryExecutor` +
`ReorgScheduler` by hand) is still available underneath but no longer
necessary.

Run:  python examples/engine_quickstart.py
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro.engine import EngineConfig, EventLog, LayoutEngine
from repro.layouts import RangeLayoutBuilder
from repro.queries import Query, between
from repro.workloads import tpch

BATCHES = 6
BATCH_ROWS = 3_000
ALPHA = 8.0


def quantity_queries(table, count: int, rng: np.random.Generator) -> list[Query]:
    """Selective range queries on l_quantity (prune well when clustered)."""
    values = table["l_quantity"]
    lo, hi = float(np.min(values)), float(np.max(values))
    span = (hi - lo) / 12.0
    starts = rng.uniform(lo, hi - span, size=count)
    return [
        Query(predicate=between("l_quantity", float(s), float(s) + span))
        for s in starts
    ]


class MovementLedger:
    """Observer summing ``movement_charged`` — the α side of the paper's
    cost identity (service cost + α per move), rebuilt from events."""

    total = 0.0

    def on_event(self, name: str, payload: dict) -> None:
        if name == "movement_charged":
            self.total += payload["amount"]


def main() -> None:
    rng = np.random.default_rng(7)
    log = EventLog()
    ledger = MovementLedger()

    with tempfile.TemporaryDirectory() as root:
        config = EngineConfig(
            store_root=root,
            builder=RangeLayoutBuilder("l_shipdate"),
            num_partitions=8,
            data_sample_fraction=0.25,
            alpha=ALPHA,
            async_reorg=True,      # reorgs run as bounded steps
            step_partitions=2,     # ≤2 partition files moved per step
        )
        with LayoutEngine(config, events=[log, ledger]) as engine:
            # 1. Stream batches in; each is appended under the current
            #    layout without rewriting old partitions (§III-C).
            for batch_index in range(BATCHES):
                batch = tpch.make_table(BATCH_ROWS, rng)
                engine.ingest(batch)
            print(
                f"ingested {engine.stats().rows_ingested} rows in {BATCHES} "
                f"batches -> {len(engine.stored().partitions)} partition files "
                f"(layout: {engine.current_layout.layout_id})"
            )

            # 2. Serve a few queries against the fragmented store.
            probe = tpch.make_table(2_000, rng)
            queries = quantity_queries(probe, 12, rng)
            before = [engine.query(q).accessed_fraction for q in queries[:6]]

            # 3. Consolidate into a quantity-clustered layout *while
            #    serving*: each query below is answered from the old epoch
            #    with one movement step ticked in between.
            sample = tpch.make_table(2_000, rng)
            target = RangeLayoutBuilder("l_quantity").build(sample, [], 8, rng)
            engine.reorganize(target)
            served_during_move = 0
            while engine.reorg_active:
                engine.query(queries[served_during_move % len(queries)])
                served_during_move += 1
            print(
                f"pipelined consolidation committed after serving "
                f"{served_during_move} queries mid-move"
            )

            # 4. Same queries, new epoch: pruning on the clustered layout.
            after = [engine.query(q).accessed_fraction for q in queries[:6]]
            print(
                f"mean accessed fraction: {np.mean(before):.3f} before -> "
                f"{np.mean(after):.3f} after consolidation"
            )
            stats = engine.stats()
            # the installments seen on the event stream sum to the ledger
            assert abs(ledger.total - stats.movement_charged) < 1e-9
            print(
                f"stats: {stats.queries_served} queries, "
                f"{stats.num_switches} switch(es), movement charged "
                f"{stats.movement_charged:.1f} (= alpha {ALPHA})"
            )

    # 5. The observer saw every transition, in order.
    print("\nevent stream (condensed):")
    counts: dict[str, int] = {}
    for name, _ in log.records:
        counts[name] = counts.get(name, 0) + 1
    for name in (
        "open", "ingest", "query_served", "reorg_started", "reorg_step",
        "movement_charged", "reorg_committed", "close",
    ):
        print(f"  {name:18s} x{counts.get(name, 0)}")
    steps = [p["kind"] for n, p in log.records if n == "reorg_step"]
    print(f"  step kinds: {' '.join(steps)}")


if __name__ == "__main__":
    main()
