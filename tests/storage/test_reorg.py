"""Tests for physical reorganization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.layouts import RangeLayoutBuilder, RoundRobinLayout
from repro.queries import Query, between
from repro.storage import PartitionStore, QueryExecutor, partition_store, reorganize


@pytest.fixture
def store(tmp_path):
    return PartitionStore(tmp_path / "store")


class TestReorganize:
    def test_preserves_row_multiset(self, store, simple_table, rng):
        stored = store.materialize(simple_table, RoundRobinLayout(4))
        target = RangeLayoutBuilder("x").build(simple_table, [], 6, rng)
        new_stored, result = reorganize(store, stored, target, simple_table.schema)
        restored = store.read_all(new_stored, simple_table.schema)
        assert np.sort(restored["x"]).tolist() == np.sort(simple_table["x"]).tolist()
        assert result.rows_moved == simple_table.num_rows

    def test_old_layout_deleted_by_default(self, store, simple_table, rng):
        stored = store.materialize(simple_table, RoundRobinLayout(4))
        target = RangeLayoutBuilder("x").build(simple_table, [], 6, rng)
        old_paths = [p.path for p in stored.partitions]
        reorganize(store, stored, target, simple_table.schema)
        assert not any(path.exists() for path in old_paths)

    def test_new_layout_is_queryable(self, store, simple_table, rng):
        from repro.queries import Query, between
        from repro.storage import QueryExecutor

        stored = store.materialize(simple_table, RoundRobinLayout(4))
        target = RangeLayoutBuilder("x").build(simple_table, [], 6, rng)
        new_stored, _ = reorganize(store, stored, target, simple_table.schema)
        executor = QueryExecutor(store)
        query = Query(predicate=between("x", 10.0, 20.0))
        result = executor.execute(new_stored, query)
        expected = int(query.predicate.evaluate(simple_table.columns).sum())
        assert result.rows_matched == expected
        # The range layout must actually prune after reorganization.
        assert result.partitions_scanned < result.partitions_total

    def test_accounting_fields(self, store, simple_table, rng):
        stored = store.materialize(simple_table, RoundRobinLayout(4))
        target = RangeLayoutBuilder("x").build(simple_table, [], 6, rng)
        _, result = reorganize(store, stored, target, simple_table.schema)
        assert result.elapsed_seconds > 0
        assert result.bytes_read == stored.total_bytes
        assert result.bytes_written > 0
        assert result.partitions_written >= 1

    def test_reorg_to_same_layout_id_keeps_files(self, store, simple_table):
        layout = RoundRobinLayout(4)
        stored = store.materialize(simple_table, layout)
        new_stored, _ = reorganize(store, stored, layout, simple_table.schema)
        assert all(p.path.exists() for p in new_stored.partitions)

    def test_failed_same_id_rewrite_leaves_the_old_epoch_readable(
        self, store, simple_table, monkeypatch
    ):
        """A same-id rewrite (a streaming engine's second consolidation) that
        fails on its second file must not have destroyed the only copy."""
        layout = RoundRobinLayout(4)
        stored = store.materialize(simple_table, layout)
        write = partition_store.write_columns
        calls = []

        def failing_write(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            return write(*args, **kwargs)

        monkeypatch.setattr(partition_store, "write_columns", failing_write)
        with pytest.raises(OSError, match="No space left"):
            reorganize(store, stored, layout, simple_table.schema)
        monkeypatch.undo()
        assert not store.staging_path(layout.layout_id).exists()
        survivor = store.read_all(stored, simple_table.schema)
        for name in simple_table.schema.names():
            np.testing.assert_array_equal(
                np.sort(survivor[name]), np.sort(simple_table[name])
            )
        executor = QueryExecutor(store)
        query = Query(predicate=between("x", 10.0, 20.0))
        expected = int(query.predicate.evaluate(simple_table.columns).sum())
        assert executor.execute(stored, query).rows_matched == expected
