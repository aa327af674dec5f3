"""Scheduler tests: async/sync equivalence, epochs, and ledger truthfulness."""

from __future__ import annotations

import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core import CostEvaluator, MovementAmortizer, Reorganizer, ReorganizerConfig
from repro.core.reorg_scheduler import ReorgScheduler
from repro.layouts import CompiledWorkload, RangeLayoutBuilder, RoundRobinLayout, ZoneMapIndex
from repro.queries import Query, between
from repro.storage import ColumnSpec, IncrementalStore, PartitionStore, QueryExecutor, Schema, reorganize


@pytest.fixture
def store(tmp_path):
    return PartitionStore(tmp_path / "store")


@pytest.fixture
def target(simple_table, rng):
    return RangeLayoutBuilder("x").build(simple_table, [], 6, rng)


@pytest.fixture
def queries(rng):
    lows = rng.uniform(0.0, 80.0, size=12)
    return [Query(predicate=between("x", float(lo), float(lo) + 15.0)) for lo in lows]


class TestDifferentialEquivalence:
    """Pipeline completion is bit-for-bit a synchronous ``reorganize()``."""

    def test_async_completion_matches_sync(
        self, store, simple_table, target, queries, tmp_path
    ):
        # --- synchronous reference -------------------------------------
        sync_store = PartitionStore(tmp_path / "sync")
        sync_stored = sync_store.materialize(simple_table, RoundRobinLayout(5))
        sync_new, _ = reorganize(sync_store, sync_stored, target, simple_table.schema)
        sync_evaluator = CostEvaluator(simple_table)
        sync_evaluator.register_metadata(target.layout_id, sync_new.metadata)
        sync_costs = sync_evaluator.cost_vector(target, queries)

        # --- pipelined run, caches moved to the new epoch at the commit --
        stored = store.materialize(simple_table, RoundRobinLayout(5))
        executor = QueryExecutor(store)
        evaluator = CostEvaluator(simple_table)
        scheduler = ReorgScheduler(store, evaluator=evaluator, step_partitions=2)
        scheduler.start(stored, target, simple_table.schema)
        new_stored, _ = scheduler.drain()

        # metadata: bit-for-bit the synchronous snapshot
        assert new_stored.metadata == sync_new.metadata
        assert evaluator._metadata[target.layout_id] is new_stored.metadata

        # zone maps: the index compiled from the committed snapshot agrees
        # with one compiled from the synchronous metadata on every mask
        compiled_index = evaluator.zone_maps(target)
        assert compiled_index is new_stored.metadata.zone_maps
        fresh = ZoneMapIndex(sync_new.metadata)
        for query in queries:
            np.testing.assert_array_equal(
                compiled_index._mask(query.predicate, False),
                fresh._mask(query.predicate, False),
            )
            np.testing.assert_array_equal(
                compiled_index._mask(query.predicate, True),
                fresh._mask(query.predicate, True),
            )

        # costs: pricing the committed snapshot returns the synchronous
        # evaluator's floats exactly
        np.testing.assert_array_equal(
            evaluator.cost_vector(target, queries), sync_costs
        )
        assert (
            evaluator._query_costs[target.layout_id]
            == sync_evaluator._query_costs[target.layout_id]
        )

        # stacked slabs: the stack's tensor equals one built from the
        # synchronous metadata
        compiled = CompiledWorkload([query.predicate for query in queries])
        evaluator._ensure_stacked(target)
        committed_tensor = evaluator._stacked.prune_tensor(compiled, [target.layout_id])
        sync_evaluator._ensure_stacked(target)
        sync_tensor = sync_evaluator._stacked.prune_tensor(compiled, [target.layout_id])
        np.testing.assert_array_equal(committed_tensor, sync_tensor)

        # executor plans: executing the committed snapshot returns the same
        # physical counters, on the index the evaluator prices with
        sync_executor = QueryExecutor(sync_store)
        for query in queries[:4]:
            ours = executor.execute(new_stored, query)
            theirs = sync_executor.execute(sync_new, query)
            assert ours.rows_matched == theirs.rows_matched
            assert ours.rows_scanned == theirs.rows_scanned
            assert ours.partitions_scanned == theirs.partitions_scanned
        assert scheduler.visible.metadata.zone_maps is compiled_index

    def test_start_leaves_priced_target_untouched_mid_flight(
        self, store, simple_table, target, queries
    ):
        # The decision layer already prices the target from logical
        # metadata; seeding the staging snapshot over it would make
        # mid-flight decisions see the target as free.
        stored = store.materialize(simple_table, RoundRobinLayout(5))
        evaluator = CostEvaluator(simple_table)
        logical = evaluator.cost_vector(target, queries)
        assert float(logical.max()) > 0.0
        scheduler = ReorgScheduler(store, evaluator=evaluator, step_partitions=2)
        scheduler.start(stored, target, simple_table.schema)
        scheduler.tick()
        np.testing.assert_array_equal(evaluator.cost_vector(target, queries), logical)
        new_stored, _ = scheduler.drain()
        # the final commit swaps the evaluator onto the physical truth
        assert evaluator._metadata[target.layout_id] is new_stored.metadata
        np.testing.assert_array_equal(evaluator.cost_vector(target, queries), logical)

    def test_unpriced_target_priced_logically_mid_flight(
        self, store, simple_table, target, queries
    ):
        # A target the evaluator has never priced must not read as free
        # while the move is in flight: pricing derives the logical
        # metadata on demand, untouched by the staging snapshot.
        stored = store.materialize(simple_table, RoundRobinLayout(5))
        evaluator = CostEvaluator(simple_table)
        scheduler = ReorgScheduler(store, evaluator=evaluator, step_partitions=2)
        scheduler.start(stored, target, simple_table.schema)
        scheduler.tick()
        mid_flight = evaluator.cost_vector(target, queries)
        assert float(mid_flight.max()) > 0.0
        reference = CostEvaluator(simple_table).cost_vector(target, queries)
        np.testing.assert_array_equal(mid_flight, reference)
        new_stored, _ = scheduler.drain()
        # the commit swaps in the physical truth (same floats here: the
        # layout is value-deterministic, so logical == physical)
        assert evaluator._metadata[target.layout_id] is new_stored.metadata
        np.testing.assert_array_equal(
            evaluator.cost_vector(target, queries), reference
        )

    def test_invalid_alpha_does_not_half_start(self, store, simple_table, target):
        stored = store.materialize(simple_table, RoundRobinLayout(4))
        scheduler = ReorgScheduler(store, alpha=-1.0)
        with pytest.raises(ValueError):
            scheduler.start(stored, target, simple_table.schema)
        assert not scheduler.active  # no half-started state left behind
        scheduler.alpha = 5.0
        scheduler.start(stored, target, simple_table.schema)
        scheduler.drain()
        assert scheduler.charged == 5.0

    def test_same_id_repartition_revalidates_old_caches(
        self, store, simple_table, rng, queries
    ):
        layout = RangeLayoutBuilder("x").build(simple_table, [], 6, rng)
        stored = store.materialize(simple_table, layout)
        evaluator = CostEvaluator(simple_table)
        evaluator.register_metadata(layout.layout_id, stored.metadata)
        before = evaluator.cost_vector(layout, queries)

        scheduler = ReorgScheduler(store, evaluator=evaluator, step_partitions=2)
        scheduler.start(stored, layout, simple_table.schema)
        # mid-flight the evaluator still prices the old epoch
        scheduler.tick()
        np.testing.assert_array_equal(evaluator.cost_vector(layout, queries), before)
        new_stored, _ = scheduler.drain()
        assert evaluator._metadata[layout.layout_id] is new_stored.metadata
        np.testing.assert_array_equal(evaluator.cost_vector(layout, queries), before)


class TestInterleaving:
    """Queries issued mid-pipeline see one epoch, never a mixture."""

    def test_queries_see_old_epoch_then_new(
        self, store, simple_table, target, queries
    ):
        stored = store.materialize(simple_table, RoundRobinLayout(5))
        executor = QueryExecutor(store)
        old_expected = {
            id(q): executor.execute(stored, q) for q in queries
        }
        scheduler = ReorgScheduler(store, step_partitions=1)
        scheduler.start(stored, target, simple_table.schema)
        position = 0
        flipped = False
        while scheduler.active:
            query = queries[position % len(queries)]
            outcome = executor.execute(scheduler.visible, query)
            reference = old_expected[id(query)]
            assert outcome.partitions_total == reference.partitions_total
            assert outcome.rows_scanned == reference.rows_scanned
            assert outcome.rows_matched == reference.rows_matched
            position += 1
            ticked = scheduler.tick()
            flipped = flipped or ticked.completed
        assert flipped
        new_stored = scheduler.visible
        assert new_stored is scheduler.pipeline.result[0]
        for query in queries:
            outcome = executor.execute(scheduler.visible, query)
            assert outcome.partitions_total == len(new_stored.partitions)
            assert outcome.rows_matched == old_expected[id(query)].rows_matched

    def test_tick_without_start_returns_none(self, store):
        scheduler = ReorgScheduler(store)
        assert scheduler.tick() is None

    def test_double_start_rejected(self, store, simple_table, target):
        stored = store.materialize(simple_table, RoundRobinLayout(4))
        scheduler = ReorgScheduler(store)
        scheduler.start(stored, target, simple_table.schema)
        with pytest.raises(RuntimeError):
            scheduler.start(stored, target, simple_table.schema)

    def test_serve_requires_executor(self, store, simple_table, target, range_query):
        """Serving is the caller's: the scheduler holds no executor, only
        the snapshot (``visible``) a caller-owned one must run against —
        and not even that before a move has started."""
        stored = store.materialize(simple_table, RoundRobinLayout(4))
        scheduler = ReorgScheduler(store)
        assert not hasattr(scheduler, "serve") and not hasattr(scheduler, "executor")
        with pytest.raises(RuntimeError, match="no reorganization has been started"):
            scheduler.visible  # noqa: B018 - the property raises
        scheduler.start(stored, target, simple_table.schema)
        scheduler.tick()
        outcome = QueryExecutor(store).execute(scheduler.visible, range_query)
        assert scheduler.visible is stored
        assert outcome.partitions_total == len(stored.partitions)

    def test_on_complete_fires_once_at_commit(self, store, simple_table, target):
        stored = store.materialize(simple_table, RoundRobinLayout(4))
        scheduler = ReorgScheduler(store, step_partitions=2)
        landed = []
        scheduler.start(
            stored,
            target,
            simple_table.schema,
            on_complete=lambda new_stored, result: landed.append(
                (new_stored, result)
            ),
        )
        while scheduler.active:
            assert landed == []
            scheduler.tick()
        assert len(landed) == 1
        assert landed[0][0] is scheduler.pipeline.result[0]


class TestLedgerEquality:
    """Pipelining never changes the competitive-ratio ledger."""

    def test_installments_sum_to_alpha_exactly(
        self, store, simple_table, target
    ):
        alpha = 80.0
        stored = store.materialize(simple_table, RoundRobinLayout(5))
        scheduler = ReorgScheduler(store, alpha=alpha, step_partitions=1)
        scheduler.start(stored, target, simple_table.schema)
        charges = []
        while scheduler.active:
            charges.append(scheduler.tick().movement_charge)
        assert scheduler.charged == alpha
        assert math.fsum(charges) == pytest.approx(alpha, abs=1e-9)
        assert all(charge >= 0.0 for charge in charges)

    def test_abort_refunds_emitted_installments(self, store, simple_table, target):
        # An aborted move must not leave its partial installments on the
        # ledger: abort returns the refund, and a retry charges a clean α.
        alpha = 5.0
        stored = store.materialize(simple_table, RoundRobinLayout(5))
        scheduler = ReorgScheduler(store, alpha=alpha, step_partitions=1)
        scheduler.start(stored, target, simple_table.schema)
        charged = 0.0
        for _ in range(3):
            charged += scheduler.tick().movement_charge
        assert charged > 0.0
        refund = scheduler.abort()
        assert refund == charged  # net charge for the aborted move is zero
        assert scheduler.pipeline is None  # the abandoned flight is gone
        scheduler.start(stored, target, simple_table.schema)
        retry_charges = []
        while scheduler.active:
            retry_charges.append(scheduler.tick().movement_charge)
        assert scheduler.charged == alpha
        assert math.fsum(retry_charges) == pytest.approx(alpha, abs=1e-9)
        assert scheduler.abort() == 0.0  # nothing in flight: nothing to refund

    def test_amortizer_monotone_under_shrinking_estimate(self):
        amortizer = MovementAmortizer(80.0)
        # a shrinking work estimate can lower the cumulative fraction;
        # charges must clamp at zero, never claw money back
        assert amortizer.charge(0.5) == pytest.approx(40.0)
        assert amortizer.charge(0.3) == 0.0
        assert amortizer.charge(0.6) == pytest.approx(8.0)
        assert amortizer.settle() == pytest.approx(32.0)
        assert amortizer.charged == 80.0
        assert amortizer.settle() == 0.0

    def test_amortizer_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            MovementAmortizer(-1.0)

    def test_amortizer_accepts_zero_alpha(self):
        # α = 0.0 is a valid tracked budget: every installment is 0.0 and
        # the ledger settles at exactly zero (distinct from "untracked").
        amortizer = MovementAmortizer(0.0)
        assert amortizer.charge(0.5) == 0.0
        assert amortizer.settle() == 0.0
        assert amortizer.charged == 0.0

    def test_zero_alpha_attaches_tracked_budget(self, store, simple_table, target):
        # Regression for the falsy-zero bug: `if self.alpha` treated an
        # explicit alpha=0.0 like alpha=None and attached no amortizer.
        stored = store.materialize(simple_table, RoundRobinLayout(5))
        scheduler = ReorgScheduler(store, alpha=0.0, step_partitions=1)
        scheduler.start(stored, target, simple_table.schema)
        assert scheduler._amortizer is not None  # tracked, not dropped
        charges = []
        while scheduler.active:
            charges.append(scheduler.tick().movement_charge)
        assert scheduler.charged == 0.0
        assert charges and all(charge == 0.0 for charge in charges)

    def test_decision_charge_equals_pipeline_total(
        self, store, simple_table, target, rng
    ):
        # The D-UMTS decision charges α the moment the switch is decided;
        # executing that switch through the pipeline must charge the very
        # same total, regardless of the step budget.
        config = ReorganizerConfig(alpha=40.0)
        reorganizer = Reorganizer("old", config, rng)
        reorganizer.add_layout("new")
        decision_charge = 0.0
        costs = {"old": 1.0, "new": 0.0}
        while True:
            step = reorganizer.observe(costs)
            decision_charge += step.movement_cost
            if step.decision.switched:
                break
        assert decision_charge == config.alpha

        for step_partitions in (1, 3, 100):
            stored = store.materialize(simple_table, RoundRobinLayout(5))
            scheduler = ReorgScheduler(
                store, alpha=config.alpha, step_partitions=step_partitions
            )
            scheduler.start(stored, target, simple_table.schema)
            installments = []
            while scheduler.active:
                installments.append(scheduler.tick().movement_charge)
            assert scheduler.charged == decision_charge
            assert math.fsum(installments) == pytest.approx(decision_charge, abs=1e-9)


class TestIncrementalStoreAsync:
    def _batches(self, simple_schema, count=4, rows=200):
        from repro.storage import Table

        batches = []
        for seed in range(count):
            generator = np.random.default_rng(1000 + seed)
            batches.append(
                Table(
                    simple_schema,
                    {
                        "x": generator.uniform(0.0, 100.0, size=rows),
                        "y": generator.integers(0, 50, size=rows).astype(np.int64),
                        "color": generator.integers(0, 3, size=rows).astype(np.int32),
                    },
                )
            )
        return batches

    def test_consolidate_async_matches_sync(
        self, tmp_path, simple_schema, simple_table, rng, queries
    ):
        batches = self._batches(simple_schema)
        layout = RoundRobinLayout(3)
        target = RangeLayoutBuilder("x").build(simple_table, [], 5, rng)

        def build(root):
            store = PartitionStore(tmp_path / root)
            evaluator = CostEvaluator(simple_table)
            incremental = IncrementalStore(store, simple_schema, layout, evaluator)
            for batch in batches:
                incremental.ingest(batch)
            return store, evaluator, incremental

        _, sync_evaluator, sync_incremental = build("sync")
        sync_incremental.consolidate(target)

        store, evaluator, incremental = build("async")
        pre_consolidation = incremental.stored()
        scheduler = ReorgScheduler(
            store, evaluator=evaluator, alpha=80.0, step_partitions=2
        )
        incremental.consolidate_async(target, scheduler)
        assert scheduler.active
        # until the final commit the store still serves its old snapshot
        assert incremental.stored().metadata is pre_consolidation.metadata
        scheduler.drain()

        assert incremental.layout is target
        assert incremental.stored().metadata == sync_incremental.stored().metadata
        assert incremental.num_partitions == sync_incremental.num_partitions
        assert incremental._next_partition_id == sync_incremental._next_partition_id
        np.testing.assert_array_equal(
            evaluator.cost_vector(target, queries),
            sync_evaluator.cost_vector(target, queries),
        )
        # ingestion continues under the new layout, both modes agreeing
        extra = self._batches(simple_schema, count=1, rows=100)[0]
        incremental.ingest(extra)
        sync_incremental.ingest(extra)
        assert incremental.stored().metadata == sync_incremental.stored().metadata

    def test_consolidate_async_rejects_busy_scheduler(
        self, tmp_path, simple_schema, simple_table, rng
    ):
        batches = self._batches(simple_schema, count=2)
        store = PartitionStore(tmp_path / "busy")
        incremental = IncrementalStore(store, simple_schema, RoundRobinLayout(3))
        for batch in batches:
            incremental.ingest(batch)
        target = RangeLayoutBuilder("x").build(simple_table, [], 5, rng)
        other = RangeLayoutBuilder("y").build(simple_table, [], 4, rng)
        scheduler = ReorgScheduler(store, step_partitions=1)
        incremental.consolidate_async(target, scheduler)
        with pytest.raises(RuntimeError):
            incremental.consolidate_async(other, scheduler)
        scheduler.drain()

    def test_sync_consolidate_rejected_while_async_in_flight(
        self, tmp_path, simple_schema, simple_table, rng
    ):
        # A sync consolidate (or a second async one via a fresh scheduler)
        # would rewrite the files the in-flight pipeline is reading.
        batches = self._batches(simple_schema, count=2)
        store = PartitionStore(tmp_path / "cross")
        incremental = IncrementalStore(store, simple_schema, RoundRobinLayout(3))
        for batch in batches:
            incremental.ingest(batch)
        target = RangeLayoutBuilder("x").build(simple_table, [], 5, rng)
        other = RangeLayoutBuilder("y").build(simple_table, [], 4, rng)
        scheduler = ReorgScheduler(store, step_partitions=1)
        incremental.consolidate_async(target, scheduler)
        with pytest.raises(RuntimeError, match="consolidation is already in flight"):
            incremental.consolidate(other)
        with pytest.raises(RuntimeError, match="consolidation is already in flight"):
            incremental.consolidate_async(other, ReorgScheduler(store))
        scheduler.drain()

    def test_abort_consolidation_recovers_the_store(
        self, tmp_path, simple_schema, simple_table, rng
    ):
        batches = self._batches(simple_schema, count=3)
        store = PartitionStore(tmp_path / "abort")
        incremental = IncrementalStore(store, simple_schema, RoundRobinLayout(3))
        for batch in batches[:2]:
            incremental.ingest(batch)
        before = incremental.stored()
        target = RangeLayoutBuilder("x").build(simple_table, [], 5, rng)
        scheduler = ReorgScheduler(store, step_partitions=1)
        incremental.consolidate_async(target, scheduler)
        scheduler.tick()
        scheduler.abort()
        assert not scheduler.active and not incremental.consolidating
        assert not store.staging_path(target.layout_id).exists()
        # the store still serves and ingests its pre-consolidation state
        assert incremental.stored().metadata is before.metadata
        assert all(p.path.exists() for p in before.partitions)
        incremental.ingest(batches[2])
        # and a fresh consolidation can start over
        incremental.consolidate_async(target, scheduler)
        scheduler.drain()
        assert incremental.layout is target

    def test_direct_scheduler_abort_releases_ingest_guard(
        self, tmp_path, simple_schema, simple_table, rng
    ):
        # Aborting through the scheduler (the path its own docstring
        # advertises) must not leave the store wedged behind a dead
        # pipeline.
        batches = self._batches(simple_schema, count=2)
        store = PartitionStore(tmp_path / "direct-abort")
        incremental = IncrementalStore(store, simple_schema, RoundRobinLayout(3))
        incremental.ingest(batches[0])
        target = RangeLayoutBuilder("x").build(simple_table, [], 5, rng)
        scheduler = ReorgScheduler(store, step_partitions=1)
        incremental.consolidate_async(target, scheduler)
        scheduler.tick()
        scheduler.abort()
        incremental.ingest(batches[1])  # guard released, no wedge
        assert incremental.batches_ingested == 2

    def test_consolidate_async_rejects_foreign_store_scheduler(
        self, tmp_path, simple_schema, simple_table, rng
    ):
        store = PartitionStore(tmp_path / "mine")
        foreign = ReorgScheduler(PartitionStore(tmp_path / "theirs"))
        incremental = IncrementalStore(store, simple_schema, RoundRobinLayout(3))
        incremental.ingest(self._batches(simple_schema, count=1)[0])
        target = RangeLayoutBuilder("x").build(simple_table, [], 5, rng)
        with pytest.raises(ValueError, match="different PartitionStore"):
            incremental.consolidate_async(target, foreign)

    def test_scheduler_abort_without_start_is_noop(self, store):
        assert ReorgScheduler(store).abort() == 0.0  # must not raise

    def test_scheduler_rejects_invalid_step_budget_at_construction(self, store):
        # Fail fast: a bad --reorg-step-partitions must not surface only
        # at the first switch, minutes into an experiment run.
        with pytest.raises(ValueError, match="step_partitions"):
            ReorgScheduler(store, step_partitions=0)

    def test_scheduler_abort_drops_seeded_caches(
        self, store, simple_table, target, queries
    ):
        stored = store.materialize(simple_table, RoundRobinLayout(5))
        executor = QueryExecutor(store)
        evaluator = CostEvaluator(simple_table)
        scheduler = ReorgScheduler(store, evaluator=evaluator, step_partitions=1)
        scheduler.start(stored, target, simple_table.schema)
        for _ in range(3):
            scheduler.tick()
        scheduler.abort()
        assert not scheduler.active
        # the evaluator never heard of the abandoned target, and the old
        # epoch still plans on its own index
        assert target.layout_id not in evaluator._metadata
        probe = queries[0]
        assert (
            executor.execute(stored, probe).partitions_scanned
            == len(ZoneMapIndex(stored.metadata).relevant_partition_ids(probe.predicate))
        )
        # restartable, and completion still matches the synchronous result
        scheduler.start(stored, target, simple_table.schema)
        new_stored, _ = scheduler.drain()
        assert evaluator._metadata[target.layout_id] is new_stored.metadata

    def test_ingest_guard_opt_out_still_rejects_mid_flight(
        self, tmp_path, simple_schema, simple_table, rng
    ):
        # allow_ingest_during_consolidation=False restores the pre-sidecar
        # contract: refuse mid-flight appends, work again after the commit.
        batches = self._batches(simple_schema, count=3)
        store = PartitionStore(tmp_path / "guard")
        incremental = IncrementalStore(
            store,
            simple_schema,
            RoundRobinLayout(3),
            allow_ingest_during_consolidation=False,
        )
        for batch in batches[:2]:
            incremental.ingest(batch)
        target = RangeLayoutBuilder("x").build(simple_table, [], 5, rng)
        scheduler = ReorgScheduler(store, step_partitions=1)
        incremental.consolidate_async(target, scheduler)
        rows_before = incremental.total_rows
        with pytest.raises(RuntimeError, match="consolidation is in flight"):
            incremental.ingest(batches[2])
        assert incremental.total_rows == rows_before  # nothing half-applied
        scheduler.drain()
        assert incremental.total_rows == rows_before
        incremental.ingest(batches[2])  # post-commit ingest works again
        assert incremental.total_rows == rows_before + batches[2].num_rows


class TestDualEpochIngest:
    """Ingest during an in-flight consolidation: visible now, replayed at commit."""

    def _batches(self, simple_schema, count=4, rows=200):
        from repro.storage import Table

        batches = []
        for seed in range(count):
            generator = np.random.default_rng(1000 + seed)
            batches.append(
                Table(
                    simple_schema,
                    {
                        "x": generator.uniform(0.0, 100.0, size=rows),
                        "y": generator.integers(0, 50, size=rows).astype(np.int64),
                        "color": generator.integers(0, 3, size=rows).astype(np.int32),
                    },
                )
            )
        return batches

    def test_matches_serialized_consolidate_then_ingest_bit_for_bit(
        self, tmp_path, simple_schema, simple_table, rng, queries
    ):
        batches = self._batches(simple_schema, count=5)
        layout = RoundRobinLayout(3)
        target = RangeLayoutBuilder("x").build(simple_table, [], 5, rng)

        # --- serialized reference: consolidate fully, then ingest ------
        ref_store = PartitionStore(tmp_path / "ref")
        ref_evaluator = CostEvaluator(simple_table)
        reference = IncrementalStore(ref_store, simple_schema, layout, ref_evaluator)
        for batch in batches[:3]:
            reference.ingest(batch)
        reference.consolidate(target)
        for batch in batches[3:]:
            reference.ingest(batch)

        # --- dual-epoch run: the same late batches arrive mid-flight ---
        store = PartitionStore(tmp_path / "dual")
        evaluator = CostEvaluator(simple_table)
        incremental = IncrementalStore(store, simple_schema, layout, evaluator)
        for batch in batches[:3]:
            incremental.ingest(batch)
        scheduler = ReorgScheduler(store, evaluator=evaluator, step_partitions=1)
        incremental.consolidate_async(target, scheduler)
        pending = list(batches[3:])
        while scheduler.active:
            scheduler.tick()
            if pending and scheduler.active:
                incremental.ingest(pending.pop(0))
        assert not pending  # every late batch arrived while in flight

        # bookkeeping equality: metadata, ids, counters
        assert incremental.layout is target
        assert incremental.stored().metadata == reference.stored().metadata
        assert incremental._next_partition_id == reference._next_partition_id
        assert incremental.batches_ingested == reference.batches_ingested
        # file equality: same relative paths, same bytes, partition by
        # partition — the post-commit store IS the serialized one
        ours = incremental.stored().partitions
        theirs = reference.stored().partitions
        assert len(ours) == len(theirs)
        for mine, ref in zip(ours, theirs):
            assert mine.partition_id == ref.partition_id
            assert mine.path.relative_to(store.root) == ref.path.relative_to(ref_store.root)
            assert mine.path.read_bytes() == ref.path.read_bytes()
        # evaluator equality: prices after the sidecar appends and the
        # replay agree with the serialized evaluator
        np.testing.assert_array_equal(
            evaluator.cost_vector(target, queries),
            ref_evaluator.cost_vector(target, queries),
        )

    def test_sidecar_rows_queryable_before_commit(
        self, tmp_path, simple_schema, simple_table, rng
    ):
        batches = self._batches(simple_schema, count=3)
        store = PartitionStore(tmp_path / "visible")
        incremental = IncrementalStore(store, simple_schema, RoundRobinLayout(3))
        for batch in batches[:2]:
            incremental.ingest(batch)
        target = RangeLayoutBuilder("x").build(simple_table, [], 5, rng)
        executor = QueryExecutor(store)
        scheduler = ReorgScheduler(store, step_partitions=1)
        incremental.consolidate_async(target, scheduler)
        scheduler.tick()
        rows_before = incremental.total_rows
        written = incremental.ingest(batches[2])
        assert written > 0
        assert incremental.consolidating  # still in flight: sidecar path
        assert incremental.total_rows == rows_before + batches[2].num_rows
        everything = Query(predicate=between("x", -1.0, 101.0))
        served = executor.execute(incremental.stored(), everything)
        assert served.rows_matched == incremental.total_rows
        scheduler.drain()
        # nothing dropped by the commit's replay either
        served = executor.execute(incremental.stored(), everything)
        assert served.rows_matched == sum(b.num_rows for b in batches)

    def test_abort_keeps_sidecar_rows_without_replay_duplication(
        self, tmp_path, simple_schema, simple_table, rng
    ):
        batches = self._batches(simple_schema, count=3)
        store = PartitionStore(tmp_path / "abort-sidecar")
        incremental = IncrementalStore(store, simple_schema, RoundRobinLayout(3))
        for batch in batches[:2]:
            incremental.ingest(batch)
        target = RangeLayoutBuilder("x").build(simple_table, [], 5, rng)
        scheduler = ReorgScheduler(store, step_partitions=1)
        incremental.consolidate_async(target, scheduler)
        scheduler.tick()
        incremental.ingest(batches[2])  # lands in the sidecar
        total = sum(b.num_rows for b in batches)
        scheduler.abort()
        # the sidecar partitions are ordinary appends of the old epoch now
        assert incremental.total_rows == total
        assert all(p.path.exists() for p in incremental.stored().partitions)
        # a fresh consolidation must not replay the abandoned queue on top
        incremental.consolidate_async(target, scheduler)
        scheduler.drain()
        assert incremental.total_rows == total

    def test_same_id_consolidation_with_sidecar_appends(
        self, tmp_path, simple_schema, simple_table, rng, queries
    ):
        # Same-id defragmentation while the stream keeps appending: the
        # evaluator holds the sidecar-extended snapshot, the final commit
        # registers the frozen read set's rewrite and the replay then
        # re-extends it — no row is lost.
        batches = self._batches(simple_schema, count=3)
        layout = RoundRobinLayout(3)
        store = PartitionStore(tmp_path / "same-id")
        evaluator = CostEvaluator(simple_table)
        incremental = IncrementalStore(store, simple_schema, layout, evaluator)
        for batch in batches[:2]:
            incremental.ingest(batch)
        scheduler = ReorgScheduler(store, evaluator=evaluator, step_partitions=1)
        incremental.consolidate_async(layout, scheduler)
        scheduler.tick()
        incremental.ingest(batches[2])
        scheduler.drain()
        assert incremental.total_rows == sum(b.num_rows for b in batches)
        assert incremental.layout is layout
        # the evaluator landed on the final (replayed) snapshot and prices it
        assert evaluator._metadata[layout.layout_id] is incremental.stored().metadata
        assert evaluator.cost_vector(layout, queries).shape == (len(queries),)


class IngestDuringConsolidationMachine(RuleBasedStateMachine):
    """Interleaved ingest-during-consolidation vs a serialized reference.

    Three stores advance together under a random interleaving of ingest,
    consolidation starts and movement ticks:

    * ``live`` takes the dual-epoch path — mid-flight batches route
      through the sidecar and are replayed at the commit;
    * ``reference`` serializes every flight: consolidate first, then the
      batches that arrived mid-flight — the semantics the dual-epoch path
      must reproduce exactly, checked at every commit (metadata and ids);
    * ``mirror`` never consolidates — it pins per-row query equality of
      the *visible* snapshot at every step: the old epoch plus the
      sidecar always serves every row ever ingested, never a row twice.

    Each flight's movement installments must also sum to exactly α
    (ledger equality, aborted flights refunded to zero).
    """

    ALPHA = 2.5
    QUERIES = (
        Query(predicate=between("x", 10.0, 40.0)),
        Query(predicate=between("x", 35.0, 90.0)),
    )

    def __init__(self):
        super().__init__()
        self._tmp = Path(tempfile.mkdtemp(prefix="dual-epoch-stateful-"))
        self.schema = Schema(
            columns=(
                ColumnSpec("x", "numeric"),
                ColumnSpec("y", "numeric"),
            )
        )
        layout = RoundRobinLayout(3)
        self.live_store = PartitionStore(self._tmp / "live")
        self.ref_store = PartitionStore(self._tmp / "ref")
        self.mirror_store = PartitionStore(self._tmp / "mirror")
        self.live = IncrementalStore(self.live_store, self.schema, layout)
        self.reference = IncrementalStore(self.ref_store, self.schema, layout)
        self.mirror = IncrementalStore(self.mirror_store, self.schema, layout)
        self.live_executor = QueryExecutor(self.live_store)
        self.mirror_executor = QueryExecutor(self.mirror_store)
        self.scheduler = ReorgScheduler(
            self.live_store, alpha=self.ALPHA, step_partitions=1
        )
        self.deferred: list = []
        self.flight_charges: list[float] = []
        self.target = None

    def teardown(self):
        shutil.rmtree(self._tmp, ignore_errors=True)

    def _make_batch(self, seed: int, rows: int):
        from repro.storage import Table

        generator = np.random.default_rng(seed)
        return Table(
            self.schema,
            {
                "x": generator.uniform(0.0, 100.0, size=rows),
                "y": generator.uniform(0.0, 1.0, size=rows),
            },
        )

    @rule(seed=st.integers(0, 10**6), rows=st.integers(20, 60))
    def ingest(self, seed, rows):
        batch = self._make_batch(seed, rows)
        in_flight = self.live.consolidating
        self.live.ingest(batch)
        self.mirror.ingest(batch)
        if in_flight:
            self.deferred.append(batch)  # the reference sees it post-commit
        else:
            self.reference.ingest(batch)

    @precondition(lambda self: not self.live.consolidating and self.live.num_partitions > 0)
    @rule(k=st.sampled_from([2, 4, 5]))
    def start_consolidation(self, k):
        self.target = RoundRobinLayout(k)
        self.live.consolidate_async(self.target, self.scheduler)
        self.flight_charges = []

    @precondition(lambda self: self.live.consolidating)
    @rule()
    def tick(self):
        scheduled = self.scheduler.tick()
        self.flight_charges.append(scheduled.movement_charge)
        if scheduled.completed:
            # ledger equality: the flight charged exactly α over its steps
            assert math.fsum(self.flight_charges) == pytest.approx(
                self.ALPHA, abs=1e-9
            )
            # serialize the reference: consolidate, then the deferred stream
            self.reference.consolidate(self.target)
            for batch in self.deferred:
                self.reference.ingest(batch)
            self.deferred = []
            # commit equality: dual-epoch == consolidate-then-ingest
            assert self.live.stored().metadata == self.reference.stored().metadata
            assert self.live._next_partition_id == self.reference._next_partition_id
            assert self.live.batches_ingested == self.reference.batches_ingested

    @precondition(lambda self: self.live.consolidating)
    @rule()
    def abort_flight(self):
        refund = self.scheduler.abort()
        assert refund == pytest.approx(math.fsum(self.flight_charges), abs=1e-9)
        # the sidecar rows stay as ordinary appends; re-sync the reference
        # (which never saw a consolidation) with the abandoned deferrals
        for batch in self.deferred:
            self.reference.ingest(batch)
        self.deferred = []
        self.flight_charges = []

    @invariant()
    def visible_rows_never_pause(self):
        # every row ever ingested is queryable right now, exactly once
        assert self.live.total_rows == self.mirror.total_rows
        live_stored = self.live.stored()
        mirror_stored = self.mirror.stored()
        for query in self.QUERIES:
            ours = self.live_executor.execute(live_stored, query)
            theirs = self.mirror_executor.execute(mirror_stored, query)
            assert ours.rows_matched == theirs.rows_matched


IngestDuringConsolidationMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=30, deadline=None
)
TestIngestDuringConsolidationStateful = IngestDuringConsolidationMachine.TestCase
