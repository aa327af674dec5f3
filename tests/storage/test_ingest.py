"""Tests for incremental batch ingestion (§III-C)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.layouts import RangeLayout, RangeLayoutBuilder
from repro.queries import Query, between
from repro.storage import PartitionStore, QueryExecutor, Table
from repro.storage.ingest import IncrementalStore


@pytest.fixture
def store(tmp_path):
    return PartitionStore(tmp_path / "store")


@pytest.fixture
def incremental(store, simple_schema):
    layout = RangeLayout("x", np.array([25.0, 50.0, 75.0]))
    return IncrementalStore(store, simple_schema, layout)


def make_batch(simple_schema, rng, n=500):
    return Table(
        simple_schema,
        {
            "x": rng.uniform(0.0, 100.0, size=n),
            "y": rng.integers(0, 50, size=n).astype(np.int64),
            "color": rng.integers(0, 3, size=n).astype(np.int32),
        },
    )


class TestIngest:
    def test_empty_batch_noop(self, incremental, simple_schema):
        empty = Table(
            simple_schema,
            {"x": np.empty(0), "y": np.empty(0), "color": np.empty(0, dtype=np.int32)},
        )
        assert incremental.ingest(empty) == 0
        assert incremental.num_partitions == 0

    def test_schema_mismatch_rejected(self, incremental):
        from repro.storage import ColumnSpec, Schema

        other = Table(Schema(columns=(ColumnSpec("z", "numeric"),)), {"z": np.zeros(3)})
        with pytest.raises(ValueError, match="schema"):
            incremental.ingest(other)

    def test_batches_accumulate(self, incremental, simple_schema, rng):
        for _ in range(3):
            incremental.ingest(make_batch(simple_schema, rng))
        assert incremental.total_rows == 1500
        assert incremental.batches_ingested == 3

    def test_partition_ids_globally_unique(self, incremental, simple_schema, rng):
        incremental.ingest(make_batch(simple_schema, rng))
        incremental.ingest(make_batch(simple_schema, rng))
        ids = [p.partition_id for p in incremental.stored().partitions]
        assert len(ids) == len(set(ids))

    def test_existing_partitions_untouched(self, incremental, simple_schema, rng):
        incremental.ingest(make_batch(simple_schema, rng))
        first_paths = {p.path: p.path.stat().st_mtime for p in incremental.stored().partitions}
        incremental.ingest(make_batch(simple_schema, rng))
        for path, mtime in first_paths.items():
            assert path.exists()
            assert path.stat().st_mtime == mtime

    def test_queries_see_all_batches(self, incremental, simple_schema, rng, store):
        batches = [make_batch(simple_schema, rng) for _ in range(3)]
        for batch in batches:
            incremental.ingest(batch)
        merged = Table.concat(batches)
        executor = QueryExecutor(store)
        query = Query(predicate=between("x", 10.0, 30.0))
        result = executor.execute(incremental.stored(), query)
        expected = int(query.predicate.evaluate(merged.columns).sum())
        assert result.rows_matched == expected

    def test_skipping_still_works_per_batch(self, incremental, simple_schema, rng, store):
        for _ in range(3):
            incremental.ingest(make_batch(simple_schema, rng))
        executor = QueryExecutor(store)
        result = executor.execute(
            incremental.stored(), Query(predicate=between("x", 10.0, 20.0))
        )
        # The layout ranges on x, so each batch contributes prunable parts.
        assert result.partitions_scanned < result.partitions_total


class TestFragmentation:
    def test_fresh_store(self, incremental):
        assert incremental.fragmentation(1000) == 1.0

    def test_grows_with_batches(self, incremental, simple_schema, rng):
        for _ in range(4):
            incremental.ingest(make_batch(simple_schema, rng))
        # 16 partitions for 2000 rows vs ideal 2 at 1000 rows/partition.
        assert incremental.fragmentation(1000) > 4.0


class TestConsolidate:
    def test_reduces_partition_count(self, incremental, simple_schema, rng):
        for _ in range(4):
            incremental.ingest(make_batch(simple_schema, rng))
        fragmented = incremental.num_partitions
        new_layout = RangeLayoutBuilder("x").build(
            make_batch(simple_schema, rng, 2000), [], 4, rng
        )
        incremental.consolidate(new_layout)
        assert incremental.num_partitions <= 4 < fragmented

    def test_preserves_rows(self, incremental, simple_schema, rng, store):
        batches = [make_batch(simple_schema, rng) for _ in range(3)]
        for batch in batches:
            incremental.ingest(batch)
        new_layout = RangeLayoutBuilder("y").build(batches[0], [], 4, rng)
        result = incremental.consolidate(new_layout)
        assert result.rows_moved == 1500
        assert incremental.total_rows == 1500
        merged = Table.concat(batches)
        restored = store.read_all(incremental.stored(), simple_schema)
        assert np.sort(restored["x"]).tolist() == pytest.approx(
            np.sort(merged["x"]).tolist()
        )

    def test_old_batch_files_removed(self, incremental, simple_schema, rng, store):
        incremental.ingest(make_batch(simple_schema, rng))
        old_paths = [p.path for p in incremental.stored().partitions]
        new_layout = RangeLayoutBuilder("x").build(
            make_batch(simple_schema, rng), [], 4, rng
        )
        incremental.consolidate(new_layout)
        assert not any(path.exists() for path in old_paths)

    def test_ingestion_continues_after_consolidation(
        self, incremental, simple_schema, rng
    ):
        incremental.ingest(make_batch(simple_schema, rng))
        new_layout = RangeLayoutBuilder("x").build(
            make_batch(simple_schema, rng), [], 4, rng
        )
        incremental.consolidate(new_layout)
        incremental.ingest(make_batch(simple_schema, rng))
        ids = [p.partition_id for p in incremental.stored().partitions]
        assert len(ids) == len(set(ids))
        assert incremental.total_rows == 1000


class FlakyStore(PartitionStore):
    """Fault-injection store: the ``fail_at``-th file write raises."""

    def __init__(self, root):
        super().__init__(root)
        self.writes = 0
        self.fail_at: int | None = None

    def write_partition_file(self, *args, **kwargs):
        self.writes += 1
        if self.fail_at is not None and self.writes == self.fail_at:
            self.fail_at = None
            raise OSError("injected: disk full")
        return super().write_partition_file(*args, **kwargs)


class TestIngestAtomicity:
    """A mid-batch write failure leaves the store exactly as it was."""

    def _disk_files(self, store):
        return sorted(p for p in store.root.rglob("*") if p.is_file())

    def test_mid_batch_failure_rolls_back_everything(
        self, tmp_path, simple_schema, simple_table, rng
    ):
        from repro.core import CostEvaluator

        store = FlakyStore(tmp_path / "store")
        layout = RangeLayout("x", np.array([25.0, 50.0, 75.0]))
        evaluator = CostEvaluator(simple_table)
        incremental = IncrementalStore(
            store, simple_schema, layout, evaluator=evaluator
        )
        first = make_batch(simple_schema, rng)
        incremental.ingest(first)
        query = Query(predicate=between("x", 10.0, 40.0))
        price_before = evaluator.query_cost(layout, query)
        snapshot_before = incremental.stored()
        files_before = self._disk_files(store)
        next_id_before = incremental._next_partition_id

        # Fail on the 3rd file of the next batch: files 1-2 become orphans.
        store.fail_at = store.writes + 3
        doomed = make_batch(simple_schema, rng)
        with pytest.raises(OSError, match="injected"):
            incremental.ingest(doomed)

        # Bookkeeping is untouched: no half-ingested batch is visible.
        after = incremental.stored()
        assert after.metadata is snapshot_before.metadata
        assert after.partitions == snapshot_before.partitions
        assert incremental.batches_ingested == 1
        assert incremental.total_rows == 500
        assert incremental._next_partition_id == next_id_before
        # The orphaned files written before the failure were removed.
        assert self._disk_files(store) == files_before
        # The evaluator still prices the pre-failure snapshot.
        assert evaluator._metadata[layout.layout_id] is snapshot_before.metadata
        assert evaluator.query_cost(layout, query) == price_before

        # A retry of the same batch succeeds cleanly with contiguous ids.
        assert incremental.ingest(doomed) > 0
        assert incremental.total_rows == 1000
        assert incremental.batches_ingested == 2
        ids = [p.partition_id for p in incremental.stored().partitions]
        assert ids == sorted(ids) and len(ids) == len(set(ids))
        # The retry left every pre-failure partition as it was.
        kept = len(snapshot_before.metadata.partitions)
        assert (
            incremental.stored().metadata.partitions[:kept]
            == snapshot_before.metadata.partitions
        )
        # Every row of both batches is queryable.
        merged = Table.concat([first, doomed])
        result = QueryExecutor(store).execute(incremental.stored(), query)
        assert result.rows_matched == int(query.predicate.evaluate(merged.columns).sum())

    def test_failure_on_first_file_leaves_empty_store_empty(
        self, tmp_path, simple_schema, rng
    ):
        store = FlakyStore(tmp_path / "store")
        layout = RangeLayout("x", np.array([25.0, 50.0, 75.0]))
        incremental = IncrementalStore(store, simple_schema, layout)
        store.fail_at = 1
        with pytest.raises(OSError, match="injected"):
            incremental.ingest(make_batch(simple_schema, rng))
        assert incremental.num_partitions == 0
        assert incremental.total_rows == 0
        assert incremental.batches_ingested == 0
        assert incremental._next_partition_id == 0
        assert self._disk_files(store) == []


class TestEvaluatorSync:
    """An attached CostEvaluator prices the live materialized metadata: each
    append registers the new snapshot, invalidating the old one's prices."""

    def _build(self, store, simple_schema, simple_table):
        from repro.core import CostEvaluator

        layout = RangeLayout("x", np.array([25.0, 50.0, 75.0]))
        evaluator = CostEvaluator(simple_table)
        incremental = IncrementalStore(
            store, simple_schema, layout, evaluator=evaluator
        )
        return incremental, evaluator, layout

    def test_prices_track_appends(self, store, simple_schema, simple_table, rng):
        incremental, evaluator, layout = self._build(store, simple_schema, simple_table)
        query = Query(predicate=between("x", 10.0, 40.0))
        assert evaluator.query_cost(layout, query) == 0.0  # nothing ingested yet
        incremental.ingest(make_batch(simple_schema, rng))
        # The append registered the new snapshot: the price cached against
        # the empty store is gone, not served stale...
        assert evaluator._metadata[layout.layout_id] is incremental.stored().metadata
        assert evaluator.cache_sizes() == (1, 0)
        # ...and repricing matches the scalar oracle on the *materialized* metadata.
        expected = incremental.stored().metadata.accessed_fraction(query.predicate)
        assert evaluator.query_cost(layout, query) == expected
        incremental.ingest(make_batch(simple_schema, rng, n=200))
        expected = incremental.stored().metadata.accessed_fraction(query.predicate)
        assert evaluator.query_cost(layout, query) == expected

    def test_consolidate_reregisters_new_layout(
        self, store, simple_schema, simple_table, rng
    ):
        incremental, evaluator, layout = self._build(store, simple_schema, simple_table)
        incremental.ingest(make_batch(simple_schema, rng))
        query = Query(predicate=between("x", 0.0, 30.0))
        evaluator.query_cost(layout, query)
        new_layout = RangeLayoutBuilder("x").build(
            make_batch(simple_schema, rng), [], 4, rng
        )
        incremental.consolidate(new_layout)
        assert layout.layout_id not in evaluator._metadata  # forgotten
        registered = evaluator._metadata[new_layout.layout_id]
        assert registered is incremental.stored().metadata
        expected = registered.accessed_fraction(query.predicate)
        assert evaluator.query_cost(new_layout, query) == expected
