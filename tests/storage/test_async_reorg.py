"""Tests for the pipelined reorganization (bounded movement steps)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.layouts import RangeLayoutBuilder, RoundRobinLayout
from repro.storage import (
    AsyncReorgPipeline,
    PartitionStore,
    QueryExecutor,
    reorganize,
)
from repro.storage.partition_store import PARTITION_SUFFIX


@pytest.fixture
def store(tmp_path):
    return PartitionStore(tmp_path / "store")


@pytest.fixture
def target(simple_table, rng):
    return RangeLayoutBuilder("x").build(simple_table, [], 6, rng)


def run_pipeline(pipeline):
    steps = []
    while not pipeline.done:
        steps.append(pipeline.step())
    return steps


class TestDoubleBuffering:
    def test_staged_files_invisible_until_commit(self, store, simple_table):
        staging = store.begin_staging("lay")
        assert staging.exists()
        store.write_partition_file(simple_table, np.arange(10), 0, staging)
        assert not (store.root / "lay").exists()
        live = store.commit_staging("lay")
        assert live.exists()
        assert not staging.exists()
        assert (live / f"part-00000{PARTITION_SUFFIX}").exists()

    def test_begin_staging_resets_stale_buffer(self, store, simple_table):
        staging = store.begin_staging("lay")
        store.write_partition_file(simple_table, np.arange(10), 0, staging)
        staging = store.begin_staging("lay")
        assert list(staging.glob(f"*{PARTITION_SUFFIX}")) == []

    def test_commit_staging_replaces_live_directory(self, store, simple_table):
        layout = RoundRobinLayout(4)
        stored = store.materialize(simple_table, layout)
        staging = store.begin_staging(layout.layout_id)
        store.write_partition_file(simple_table, np.arange(5), 0, staging)
        live = store.commit_staging(layout.layout_id)
        names = sorted(f.name for f in live.glob(f"*{PARTITION_SUFFIX}"))
        assert names == [f"part-00000{PARTITION_SUFFIX}"]
        assert not any(p.path.exists() for p in stored.partitions[1:])

    def test_commit_without_staging_raises(self, store):
        with pytest.raises(FileNotFoundError):
            store.commit_staging("nothing-staged")

    def test_commit_staging_leaves_no_retired_residue(self, store, simple_table):
        # The flip parks the old live directory at <id>.retired between the
        # two renames (so a complete copy always exists on disk) and must
        # clean it up afterwards — including a stale one from a crash.
        layout = RoundRobinLayout(4)
        store.materialize(simple_table, layout)
        stale = store.root / f"{layout.layout_id}.retired"
        stale.mkdir()
        (stale / f"leftover{PARTITION_SUFFIX}").write_bytes(b"x")
        staging = store.begin_staging(layout.layout_id)
        store.write_partition_file(simple_table, np.arange(5), 0, staging)
        live = store.commit_staging(layout.layout_id)
        assert not stale.exists()
        names = sorted(f.name for f in live.glob(f"*{PARTITION_SUFFIX}"))
        assert names == [f"part-00000{PARTITION_SUFFIX}"]

    def test_abort_staging_discards_buffer(self, store, simple_table):
        staging = store.begin_staging("lay")
        store.write_partition_file(simple_table, np.arange(10), 0, staging)
        store.abort_staging("lay")
        assert not staging.exists()
        assert not (store.root / "lay").exists()

    def test_epoch_stamp_round_trips(self, store, simple_table, tmp_path):
        written = store.write_partition_file(
            simple_table, np.arange(10), 3, tmp_path / "d", epoch=7
        )
        assert written.epoch == 7


class TestPipelinePhases:
    def test_phase_progression_and_bounded_steps(self, store, simple_table, target):
        stored = store.materialize(simple_table, RoundRobinLayout(5))
        pipeline = AsyncReorgPipeline(
            store, stored, target, simple_table.schema, step_partitions=2
        )
        steps = run_pipeline(pipeline)
        kinds = [s.kind for s in steps]
        assert kinds[: kinds.index("assign")] == ["read"] * kinds.index("assign")
        assert kinds.count("assign") == 1
        assert kinds[-1] == "commit"
        for step in steps:
            if step.kind in ("read", "write"):
                assert 1 <= step.partitions_touched <= 2

    def test_epochs_monotonic_and_stamped(self, store, simple_table, target):
        stored = store.materialize(simple_table, RoundRobinLayout(5))
        pipeline = AsyncReorgPipeline(
            store, stored, target, simple_table.schema, step_partitions=2
        )
        steps = run_pipeline(pipeline)
        assert [s.epoch for s in steps] == list(range(1, len(steps) + 1))
        new_stored, _ = pipeline.result
        write_epochs = {s.epoch for s in steps if s.kind == "write"}
        assert {p.epoch for p in new_stored.partitions} == write_epochs

    def test_visible_snapshot_is_old_until_commit(self, store, simple_table, target):
        stored = store.materialize(simple_table, RoundRobinLayout(5))
        pipeline = AsyncReorgPipeline(
            store, stored, target, simple_table.schema, step_partitions=2
        )
        while not pipeline.done:
            assert pipeline.visible is stored
            # every old file stays readable for the whole pipeline
            assert all(p.path.exists() for p in stored.partitions)
            pipeline.step()
        assert pipeline.visible is pipeline.result[0]

    def test_old_snapshot_queryable_mid_flight(self, store, simple_table, target):
        from repro.queries import Query, between

        stored = store.materialize(simple_table, RoundRobinLayout(5))
        executor = QueryExecutor(store)
        query = Query(predicate=between("x", 10.0, 30.0))
        expected = executor.execute(stored, query).rows_matched
        pipeline = AsyncReorgPipeline(
            store, stored, target, simple_table.schema, step_partitions=2
        )
        while not pipeline.done:
            assert executor.execute(pipeline.visible, query).rows_matched == expected
            pipeline.step()

    def test_step_after_done_raises(self, store, simple_table, target):
        stored = store.materialize(simple_table, RoundRobinLayout(3))
        pipeline = AsyncReorgPipeline(store, stored, target, simple_table.schema)
        pipeline.run_to_completion()
        with pytest.raises(RuntimeError):
            pipeline.step()

    def test_result_before_commit_raises(self, store, simple_table, target):
        stored = store.materialize(simple_table, RoundRobinLayout(3))
        pipeline = AsyncReorgPipeline(store, stored, target, simple_table.schema)
        with pytest.raises(RuntimeError):
            pipeline.result

    def test_completed_fraction_monotone(self, store, simple_table, target):
        stored = store.materialize(simple_table, RoundRobinLayout(5))
        pipeline = AsyncReorgPipeline(
            store, stored, target, simple_table.schema, step_partitions=1
        )
        fractions = [s.completed_fraction for s in run_pipeline(pipeline)]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

    def test_invalid_step_partitions(self, store, simple_table, target):
        stored = store.materialize(simple_table, RoundRobinLayout(3))
        with pytest.raises(ValueError):
            AsyncReorgPipeline(
                store, stored, target, simple_table.schema, step_partitions=0
            )


class TestPipelineEquivalence:
    @pytest.mark.parametrize("mover_threads", [1, 4])
    def test_matches_synchronous_reorganize(
        self, store, simple_table, target, tmp_path, mover_threads
    ):
        sync_store = PartitionStore(tmp_path / "sync")
        sync_stored = sync_store.materialize(simple_table, RoundRobinLayout(5))
        sync_new, sync_result = reorganize(
            sync_store, sync_stored, target, simple_table.schema
        )

        stored = store.materialize(simple_table, RoundRobinLayout(5))
        pipeline = AsyncReorgPipeline(
            store,
            stored,
            target,
            simple_table.schema,
            step_partitions=2,
            mover_threads=mover_threads,
        )
        new_stored, result = pipeline.run_to_completion()

        assert new_stored.metadata == sync_new.metadata
        assert [
            (p.partition_id, p.row_count, p.byte_size) for p in new_stored.partitions
        ] == [(p.partition_id, p.row_count, p.byte_size) for p in sync_new.partitions]
        for ours, theirs in zip(new_stored.partitions, sync_new.partitions, strict=True):
            assert ours.path.read_bytes() == theirs.path.read_bytes()
        assert result.bytes_read == sync_result.bytes_read
        assert result.bytes_written == sync_result.bytes_written
        assert result.rows_moved == sync_result.rows_moved
        assert result.partitions_written == sync_result.partitions_written

    def test_old_layout_deleted_after_commit(self, store, simple_table, target):
        stored = store.materialize(simple_table, RoundRobinLayout(5))
        old_paths = [p.path for p in stored.partitions]
        AsyncReorgPipeline(
            store, stored, target, simple_table.schema
        ).run_to_completion()
        assert not any(path.exists() for path in old_paths)

    def test_same_layout_id_double_buffers(self, store, simple_table, rng):
        # Re-materializing under the same id must keep the old files
        # readable until the flip (the sync path destroys them up front).
        layout = RangeLayoutBuilder("x").build(simple_table, [], 6, rng)
        stored = store.materialize(simple_table, layout)
        pipeline = AsyncReorgPipeline(
            store, stored, layout, simple_table.schema, step_partitions=2
        )
        while not pipeline.done:
            assert all(p.path.exists() for p in stored.partitions)
            pipeline.step()
        new_stored, _ = pipeline.result
        assert all(p.path.exists() for p in new_stored.partitions)
        # a value-deterministic layout re-read in stored order: same snapshot
        assert new_stored.metadata == stored.metadata

    def test_row_multiset_preserved(self, store, simple_table, target):
        stored = store.materialize(simple_table, RoundRobinLayout(5))
        pipeline = AsyncReorgPipeline(store, stored, target, simple_table.schema)
        new_stored, _ = pipeline.run_to_completion()
        restored = store.read_all(new_stored, simple_table.schema)
        assert np.sort(restored["x"]).tolist() == np.sort(simple_table["x"]).tolist()

    def test_mover_threads_must_be_positive(self, store, simple_table, target):
        stored = store.materialize(simple_table, RoundRobinLayout(3))
        with pytest.raises(ValueError, match="mover_threads"):
            AsyncReorgPipeline(
                store, stored, target, simple_table.schema, mover_threads=0
            )

    def test_elapsed_covers_all_steps(self, store, simple_table, target):
        stored = store.materialize(simple_table, RoundRobinLayout(5))
        pipeline = AsyncReorgPipeline(
            store, stored, target, simple_table.schema, step_partitions=2
        )
        steps = run_pipeline(pipeline)
        _, result = pipeline.result
        assert result.elapsed_seconds == pytest.approx(
            sum(s.elapsed_seconds for s in steps)
        )


class TestEmptyStore:
    """A pipeline over a zero-partition snapshot is a clean no-op."""

    def _empty_stored(self):
        from repro.layouts import LayoutMetadata
        from repro.storage import StoredLayout

        return StoredLayout(
            layout=RoundRobinLayout(3),
            metadata=LayoutMetadata(partitions=()),
            partitions=(),
        )

    def test_pipeline_commits_empty_snapshot(self, store, simple_table, target):
        pipeline = AsyncReorgPipeline(
            store, self._empty_stored(), target, simple_table.schema
        )
        steps = run_pipeline(pipeline)
        # Nothing to read or write: one empty read step, then assign+commit.
        assert [s.kind for s in steps] == ["read", "assign", "commit"]
        assert steps[0].partitions_touched == 0
        new_stored, result = pipeline.result
        assert new_stored.partitions == ()
        assert new_stored.metadata.partitions == ()
        assert result.rows_moved == 0
        assert result.partitions_written == 0
        assert result.bytes_read == 0
        assert result.bytes_written == 0

    def test_matches_synchronous_reorganize_on_empty(
        self, store, simple_table, target, tmp_path
    ):
        sync_store = PartitionStore(tmp_path / "sync")
        sync_new, sync_result = reorganize(
            sync_store, self._empty_stored(), target, simple_table.schema
        )
        pipeline = AsyncReorgPipeline(
            store, self._empty_stored(), target, simple_table.schema
        )
        new_stored, result = pipeline.run_to_completion()
        assert new_stored.metadata == sync_new.metadata
        assert new_stored.partitions == sync_new.partitions == ()
        assert result.rows_moved == sync_result.rows_moved == 0
