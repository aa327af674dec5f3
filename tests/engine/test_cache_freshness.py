"""Cache-freshness differential: both caches equal from-scratch builds, always.

``docs/architecture.md`` ("Cache freshness") states one rule: a physical
mutation installs a new metadata snapshot object, which owns its compiled
index, and whatever the cost evaluator cached against the old one is
dropped, never migrated.  This suite drives a synchronous materialized engine, a
pipelined materialized engine and a streaming engine (all with a
``wants_costs`` policy, so the evaluator is wired) through every call that
mutates physical state, and after **every** call compares

* the executor's pruning set — the visible snapshot's own index — with a
  from-scratch ``ZoneMapIndex`` over the visible snapshot;
* the evaluator's prices — asked directly, not through ``engine.query``,
  which re-registers the current snapshot and would mask a missed
  registration — with the scalar ``accessed_fraction`` oracle, for the
  current layout and for the move's target;
* mid-flight, the target's price with its pre-move price;
* after a commit, the evaluator's snapshot for the target with the stored
  one by identity, its index with the executor's, and the evaluator for
  any trace of the retired id.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import EngineConfig, GreedyPolicy, LayoutEngine
from repro.layouts import RangeLayoutBuilder, ZoneMapIndex
from repro.queries import Query, between, eq

PROBES = (
    Query(predicate=between("x", 10.0, 35.0)),
    Query(predicate=between("y", 5, 20)),
    Query(predicate=eq("color", 1)),
)


@pytest.fixture
def layouts(simple_table, rng):
    """Three value-deterministic layouts: source, target, and a second target."""
    return tuple(
        RangeLayoutBuilder(column).build(simple_table, [], partitions, rng)
        for column, partitions in (("x", 5), ("y", 6), ("x", 3))
    )


def _engine(tmp_path, target, async_reorg):
    config = EngineConfig(
        store_root=tmp_path / "store", alpha=4.0, async_reorg=async_reorg, step_partitions=2
    )
    # A margin no cost difference can beat: the policy prices the target on
    # every query (wiring the evaluator) but the test decides when to move.
    return LayoutEngine(config, policy=GreedyPolicy([target], margin=2.0))


def check(engine, target=None, target_snapshot=None, pre_move=None):
    """Both caches against from-scratch builds of the visible epoch.

    ``target_snapshot`` is the metadata the evaluator must be pricing the
    target from (its pre-move estimate mid-flight); ``pre_move`` the prices
    it gave before the move started.
    """
    visible = engine.stored()
    current = visible.layout
    fresh = ZoneMapIndex(visible.metadata)
    for position, probe in enumerate(PROBES):
        planned = visible.metadata.zone_maps.relevant_partition_ids(probe.predicate)
        assert planned == fresh.relevant_partition_ids(probe.predicate)
        executed = engine.executor.execute(visible, probe)
        assert executed.partitions_scanned == len(planned)
        priced = [current] if target is None else [current, target]
        costs = engine.evaluator.costs_for_query(priced, probe)
        assert costs[current.layout_id] == visible.metadata.accessed_fraction(probe.predicate)
        if target is not None:
            assert costs[target.layout_id] == target_snapshot.accessed_fraction(probe.predicate)
            assert costs[target.layout_id] == pre_move[position]


def check_committed(engine, retired_id):
    """After a commit: the target prices from the stored snapshot itself —
    on the very index the executor plans with — and the retired id left no
    trace in the evaluator."""
    stored = engine.stored()
    assert engine.current_layout is stored.layout
    assert engine.evaluator.metadata(stored.layout) is stored.metadata
    assert not engine.evaluator.has_metadata(retired_id)
    assert engine.evaluator.cache_sizes()[0] == 1
    assert engine.evaluator.zone_maps(stored.layout) is stored.metadata.zone_maps
    check(engine)


def prices(engine, layout):
    return [engine.evaluator.costs_for_query([layout], probe)[layout.layout_id] for probe in PROBES]


@pytest.mark.parametrize("async_reorg", [False, True], ids=["sync", "pipelined"])
def test_materialized_engine_caches_stay_fresh(tmp_path, simple_table, layouts, async_reorg):
    source, target, other = layouts
    estimate = target.metadata_for(simple_table)
    with _engine(tmp_path, target, async_reorg).open(simple_table, source) as engine:
        check(engine)
        for probe in PROBES:
            engine.query(probe)
            check(engine)
        pre_move = prices(engine, target)
        engine.reorganize(target)
        while engine.reorg_active:  # pipelined only: the sync move has landed
            check(engine, target, estimate, pre_move)
            engine.query(PROBES[0])
            if engine.reorg_active:
                check(engine, target, estimate, pre_move)
                engine.step()
        check_committed(engine, source.layout_id)
        engine.query(PROBES[1])
        check_committed(engine, source.layout_id)

        # A second move, abandoned part-way (a no-op on the sync engine,
        # whose move has committed by the time reorganize() returns).
        estimate = other.metadata_for(simple_table)
        pre_move = prices(engine, other)
        engine.reorganize(other)
        if async_reorg:
            engine.step()
            engine.step()
            check(engine, other, estimate, pre_move)
            assert engine.abort_reorg() > 0.0
            assert engine.current_layout is target
            check(engine, other, estimate, pre_move)
            engine.query(PROBES[2])
            check(engine, other, estimate, pre_move)
        else:
            assert engine.abort_reorg() == 0.0
            check_committed(engine, target.layout_id)


@pytest.mark.parametrize("async_reorg", [False, True], ids=["sync", "pipelined"])
def test_streaming_engine_caches_stay_fresh(tmp_path, simple_table, layouts, async_reorg):
    source, target, other = layouts
    batches = [simple_table.take(np.arange(start, start + 200)) for start in range(0, 1000, 200)]
    with _engine(tmp_path, target, async_reorg).open(initial_layout=source) as engine:
        def check_registered(**mid_flight):
            stored = engine.stored()
            assert engine.evaluator.metadata(stored.layout) is stored.metadata
            check(engine, **mid_flight)

        for batch in batches[:2]:
            engine.ingest(batch)
            check_registered()
            engine.query(PROBES[0])
            check_registered()

        # A streaming evaluator has no table: the target is priceable only
        # from a registered estimate, which the commit must replace.
        estimate = target.metadata_for(simple_table)
        engine.evaluator.register_metadata(target.layout_id, estimate)
        move = dict(target=target, target_snapshot=estimate, pre_move=prices(engine, target))
        engine.reorganize(target)
        if async_reorg:
            check_registered(**move)
            engine.step()
            check_registered(**move)
        engine.ingest(batches[2])  # mid-flight: the dual-epoch sidecar, priced now
        while engine.reorg_active:
            check_registered(**move)
            engine.query(PROBES[1])
            if engine.reorg_active:
                check_registered(**move)
                engine.step()
        assert engine.stored().total_rows == 600  # pipelined: the replay landed
        check_committed(engine, source.layout_id)
        engine.ingest(batches[3])
        check_committed(engine, source.layout_id)

        if async_reorg:
            # Abandon a move after a sidecar ingest: the rows stay, as
            # ordinary appends of the old epoch; the estimate is untouched.
            estimate = other.metadata_for(simple_table)
            engine.evaluator.register_metadata(other.layout_id, estimate)
            move = dict(target=other, target_snapshot=estimate, pre_move=prices(engine, other))
            engine.reorganize(other)
            engine.step()
            engine.ingest(batches[4])
            check_registered(**move)
            assert engine.abort_reorg() > 0.0
            assert engine.current_layout is target
            assert engine.stored().total_rows == 1000
            check_registered(**move)
            engine.evaluator.forget(other.layout_id)

        # Same-id consolidation: the id stays, its snapshot is replaced.
        fragmented = engine.stored().metadata
        engine.reorganize(target)
        check_registered()
        engine.run_until_idle()
        assert engine.stored().metadata is not fragmented
        check_registered()
        assert engine.evaluator.cache_sizes()[0] == 1
