"""Tests for the physical query executor: pruning + correctness."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.layouts import RangeLayout, RangeLayoutBuilder, RoundRobinLayout, ZoneMapIndex
from repro.queries import Comparison, Query, between, eq
from repro.queries.predicates import Not
from repro.storage import ColumnSpec, PartitionStore, QueryExecutor, Schema, Table


@pytest.fixture
def executor(tmp_path):
    return QueryExecutor(PartitionStore(tmp_path / "store"))


@pytest.fixture
def stored_range(executor, simple_table, rng):
    """simple_table partitioned by x-ranges (prunable for x-predicates)."""
    layout = RangeLayoutBuilder("x").build(simple_table, [], 8, rng)
    return executor.store.materialize(simple_table, layout)


class TestExecution:
    def test_matches_equal_brute_force(self, executor, stored_range, simple_table):
        query = Query(predicate=between("x", 10.0, 20.0))
        result = executor.execute(stored_range, query)
        expected = int(query.predicate.evaluate(simple_table.columns).sum())
        assert result.rows_matched == expected

    def test_range_layout_prunes_partitions(self, executor, stored_range):
        query = Query(predicate=between("x", 10.0, 20.0))
        result = executor.execute(stored_range, query)
        assert result.partitions_scanned < result.partitions_total
        assert result.rows_scanned < result.total_rows

    def test_unaligned_layout_scans_everything(self, executor, simple_table):
        stored = executor.store.materialize(simple_table, RoundRobinLayout(8))
        query = Query(predicate=between("x", 10.0, 20.0))
        result = executor.execute(stored, query)
        assert result.partitions_scanned == result.partitions_total

    def test_no_false_negatives_under_pruning(self, executor, stored_range, simple_table):
        # Every matching row must be found even though partitions are skipped.
        for low in (0.0, 25.0, 50.0, 99.0):
            query = Query(predicate=between("x", low, low + 10.0))
            result = executor.execute(stored_range, query)
            expected = int(query.predicate.evaluate(simple_table.columns).sum())
            assert result.rows_matched == expected

    def test_impossible_query_scans_nothing(self, executor, stored_range):
        query = Query(predicate=between("x", 1e6, 2e6))
        result = executor.execute(stored_range, query)
        assert result.partitions_scanned == 0
        assert result.rows_matched == 0
        assert result.accessed_fraction == 0.0

    def test_fractions_sum_to_one(self, executor, stored_range):
        query = Query(predicate=between("x", 10.0, 20.0))
        result = executor.execute(stored_range, query)
        assert result.accessed_fraction + result.skipped_fraction == pytest.approx(1.0)

    def test_elapsed_positive(self, executor, stored_range):
        result = executor.execute(stored_range, Query(predicate=eq("y", 3)))
        assert result.elapsed_seconds > 0

    def test_bytes_read_consistent(self, executor, stored_range):
        query = Query(predicate=between("x", 10.0, 20.0))
        result = executor.execute(stored_range, query)
        assert 0 < result.bytes_read <= stored_range.total_bytes


class TestFullScan:
    def test_scan_reads_all_rows(self, executor, stored_range, simple_table):
        result = executor.full_scan(stored_range)
        assert result.rows_scanned == simple_table.num_rows
        assert result.bytes_read == stored_range.total_bytes
        assert result.elapsed_seconds > 0


class TestZoneMapCache:
    """The executor keeps no index: it plans on the one its snapshot owns."""

    def test_index_cache_bounded_across_many_layouts(self, executor, simple_table, rng):
        """Regression: retired layouts must not accumulate compiled indices."""
        indexes = []
        for _ in range(20):
            layout = RoundRobinLayout(4)
            stored = executor.store.materialize(simple_table, layout)
            executor.execute(stored, Query(predicate=between("x", 0.0, 5.0)))
            indexes.append(weakref.ref(stored.metadata.zone_maps))
        gc.collect()
        # only the last layout is still referenced (by ``stored``)
        assert [ref() is not None for ref in indexes] == [False] * 19 + [True]

    def test_forget_drops_index(self, executor, simple_table):
        """Retiring a layout takes no call: its index goes with its snapshot."""
        stored = executor.store.materialize(simple_table, RoundRobinLayout(4))
        executor.execute(stored, Query(predicate=between("x", 0.0, 5.0)))
        executor.execute_batch(stored, [Query(predicate=between("x", 0.0, 5.0))])
        index = weakref.ref(stored.metadata.zone_maps)
        del stored
        gc.collect()
        assert index() is None

    def test_recompiles_when_metadata_replaced(
        self, executor, simple_table, rng, monkeypatch
    ):
        compiled_from = []
        compile_index = ZoneMapIndex.__init__

        def counting(self, metadata):
            compiled_from.append(metadata)
            compile_index(self, metadata)

        monkeypatch.setattr(ZoneMapIndex, "__init__", counting)
        query = Query(predicate=between("x", 0.0, 5.0))
        layout = RangeLayoutBuilder("x").build(simple_table, [], 8, rng)
        first = executor.store.materialize(simple_table, layout)
        executor.execute(first, query)
        executor.execute_batch(first, [query])
        # same snapshot, same index object: compiled once for both paths
        assert compiled_from == [first.metadata]
        second = executor.store.materialize(simple_table, layout)
        executor.execute(second, query)
        # new snapshot (same layout id), new index
        assert compiled_from == [first.metadata, second.metadata]
        assert second.metadata.zone_maps is not first.metadata.zone_maps


class TestExecuteBatch:
    def test_batch_results_match_single_execution(self, executor, stored_range, simple_table):
        queries = [
            Query(predicate=between("x", float(i * 12), float(i * 12 + 15))) for i in range(6)
        ] + [Query(predicate=eq("y", 3))]
        batch = executor.execute_batch(stored_range, queries)
        assert len(batch) == len(queries)
        for query, batched in zip(queries, batch, strict=True):
            single = executor.execute(stored_range, query)
            assert batched.rows_matched == single.rows_matched
            assert batched.rows_scanned == single.rows_scanned
            assert batched.partitions_scanned == single.partitions_scanned
            assert batched.bytes_read == single.bytes_read
            assert batched.total_rows == single.total_rows

    def test_batch_matches_brute_force(self, executor, stored_range, simple_table):
        queries = [Query(predicate=between("x", 5.0, 42.0)), Query(predicate=eq("color", 1))]
        for query, result in zip(queries, executor.execute_batch(stored_range, queries), strict=True):
            expected = int(query.predicate.evaluate(simple_table.columns).sum())
            assert result.rows_matched == expected

    def test_empty_batch(self, executor, stored_range):
        assert executor.execute_batch(stored_range, []) == []


class TestCompiledPlanCache:
    def test_batch_plan_compiled_once_per_sample(self, executor, stored_range):
        queries = [Query(predicate=between("x", float(i * 9), float(i * 9 + 12))) for i in range(4)]
        first = executor.execute_batch(stored_range, queries)
        key = tuple(q.predicate.cache_key() for q in queries)
        assert key in executor._compiled
        compiled = executor._compiled[key]
        second = executor.execute_batch(stored_range, queries)
        assert executor._compiled[key] is compiled  # reused, not recompiled
        for a, b in zip(first, second, strict=True):
            assert (a.rows_matched, a.rows_scanned, a.partitions_scanned) == (
                b.rows_matched,
                b.rows_scanned,
                b.partitions_scanned,
            )

    def test_batch_plan_cache_bounded(self, executor, stored_range):
        for i in range(QueryExecutor.COMPILED_CACHE_CAP + 8):
            executor.execute_batch(
                stored_range, [Query(predicate=between("x", float(i), float(i) + 0.5))]
            )
        assert len(executor._compiled) <= QueryExecutor.COMPILED_CACHE_CAP


class TestNaNSoundness:
    """A NaN in a partition must never let pruning skip matching rows.

    ``min``/``max`` of a column holding a NaN are NaN, and every comparison
    against NaN is False: stats recorded from them would prune the first
    partition below for ``x < 5`` although three of its rows match.  Such a
    partition records no stats for the column instead.
    """

    PREDICATES = (
        Comparison("x", "<", 5.0),
        between("x", 0.0, 5.0),
        Comparison("x", "==", 2.0),
        Comparison("x", "!=", 2.0),
        Not(Comparison("x", "<", 5.0)),
    )

    @pytest.fixture
    def table(self):
        schema = Schema(columns=(ColumnSpec("k", "numeric"), ColumnSpec("x", "numeric")))
        return Table(
            schema,
            {
                "k": np.arange(8, dtype=np.int64),
                "x": np.array([1.0, 2.0, np.nan, 3.0, 10.0, 11.0, 12.0, 13.0]),
            },
        )

    @pytest.fixture
    def stored(self, executor, table):
        return executor.store.materialize(table, RangeLayout("k", np.array([3.5])))

    def test_execute_finds_every_row(self, executor, stored, table):
        for predicate in self.PREDICATES:
            truth = int(predicate.evaluate(table.columns).sum())
            assert executor.execute(stored, Query(predicate)).rows_matched == truth, predicate

    def test_execute_batch_finds_every_row(self, executor, stored, table):
        queries = [Query(predicate) for predicate in self.PREDICATES]
        for query, result in zip(queries, executor.execute_batch(stored, queries), strict=True):
            truth = int(query.predicate.evaluate(table.columns).sum())
            assert result.rows_matched == truth, query.predicate

    def test_scalar_oracle_keeps_every_matching_partition(self, stored, table):
        assignment = stored.layout.assign(table)
        for predicate in self.PREDICATES:
            relevant = [p.partition_id for p in stored.metadata.relevant_partitions(predicate)]
            matches = predicate.evaluate(table.columns)
            kept = int(matches[np.isin(assignment, relevant)].sum())
            assert kept == int(matches.sum()), predicate
