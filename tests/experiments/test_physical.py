"""Tests for physical replay of logical schedules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    ExperimentHarness,
    HarnessConfig,
    load_bundle,
    make_builder,
    replay_physical,
)
from repro.storage.partition_store import PARTITION_SUFFIX


@pytest.fixture(scope="module")
def setup():
    bundle = load_bundle("tpch", 6_000, seed=0)
    stream = bundle.workload(200, 3, np.random.default_rng(5))
    config = HarnessConfig(
        alpha=5.0,
        window_size=30,
        generation_interval=30,
        num_partitions=8,
        data_sample_fraction=0.05,
        seed=0,
    )
    harness = ExperimentHarness(bundle, stream, make_builder("qdtree", bundle), config)
    return bundle, stream, harness


class TestReplay:
    def test_replay_matches_logical_switch_count(self, setup, tmp_path):
        bundle, stream, harness = setup
        result = harness.run_greedy()
        physical = replay_physical(
            bundle.table, stream, result, tmp_path / "replay", sample_stride=20
        )
        assert physical.num_switches == result.summary.num_switches
        assert physical.queries_total == len(stream)

    def test_timings_positive(self, setup, tmp_path):
        bundle, stream, harness = setup
        result = harness.run_static()
        physical = replay_physical(
            bundle.table, stream, result, tmp_path / "replay2", sample_stride=20
        )
        assert physical.query_seconds > 0
        assert physical.reorg_seconds == 0.0  # static never reorganizes
        assert physical.total_seconds == pytest.approx(
            physical.query_seconds + physical.reorg_seconds
        )

    def test_stride_controls_sample_size(self, setup, tmp_path):
        bundle, stream, harness = setup
        result = harness.run_static()
        physical = replay_physical(
            bundle.table, stream, result, tmp_path / "replay3", sample_stride=50
        )
        assert physical.queries_timed == len(stream) // 50 + (1 if len(stream) % 50 else 0)

    def test_invalid_stride(self, setup, tmp_path):
        bundle, stream, harness = setup
        result = harness.run_static()
        with pytest.raises(ValueError):
            replay_physical(bundle.table, stream, result, tmp_path, sample_stride=0)

    def test_schedule_length_mismatch_rejected(self, setup, tmp_path):
        bundle, stream, harness = setup
        result = harness.run_static()
        shorter = bundle.workload(10, 2, np.random.default_rng(1))
        with pytest.raises(ValueError, match="schedule length"):
            replay_physical(bundle.table, shorter, result, tmp_path)

    def test_store_cleaned_up(self, setup, tmp_path):
        bundle, stream, harness = setup
        result = harness.run_static()
        root = tmp_path / "cleanup"
        replay_physical(bundle.table, stream, result, root, sample_stride=50)
        leftover = [f for f in root.rglob(f"*{PARTITION_SUFFIX}")]
        assert leftover == []


def two_layout_schedule(bundle, stream, alpha=5.0, switch_at=5):
    """A hand-built MethodResult that switches layouts mid-stream."""
    from repro.core import RunLedger
    from repro.experiments.harness import MethodResult
    from repro.layouts import RangeLayoutBuilder

    rng = np.random.default_rng(9)
    first = RangeLayoutBuilder(bundle.default_sort_column).build(
        bundle.table, [], 8, rng
    )
    second = RangeLayoutBuilder("l_quantity").build(bundle.table, [], 8, rng)
    ledger = RunLedger()
    for index in range(len(stream)):
        switched = index == switch_at
        ledger.record(
            0.1,
            alpha if switched else 0.0,
            (first if index < switch_at else second).layout_id,
            switched=switched,
        )
    return MethodResult(
        method="manual",
        summary=ledger.summary(),
        ledger=ledger,
        layouts={first.layout_id: first, second.layout_id: second},
    )


class TestAsyncReplay:
    def test_async_replay_matches_switch_count(self, setup, tmp_path):
        bundle, stream, harness = setup
        result = two_layout_schedule(bundle, stream)
        physical = replay_physical(
            bundle.table,
            stream,
            result,
            tmp_path / "async-replay",
            sample_stride=20,
            async_reorg=True,
            step_partitions=2,
        )
        assert physical.num_switches == result.summary.num_switches == 1
        assert physical.queries_total == len(stream)
        assert physical.reorg_seconds > 0.0

    def test_replay_movement_charge_matches_ledger_in_both_modes(
        self, setup, tmp_path
    ):
        # The ledger-equality criterion end to end: replaying the same
        # schedule charges the same total movement as the logical ledger,
        # whether switches block or are spread over pipeline steps.
        bundle, stream, harness = setup
        result = two_layout_schedule(bundle, stream, alpha=5.0)
        expected = result.summary.total_reorg_cost
        assert expected == 5.0  # the schedule genuinely switches
        sync = replay_physical(
            bundle.table,
            stream,
            result,
            tmp_path / "ledger-sync",
            sample_stride=50,
            alpha=5.0,
        )
        pipelined = replay_physical(
            bundle.table,
            stream,
            result,
            tmp_path / "ledger-async",
            sample_stride=50,
            async_reorg=True,
            step_partitions=2,
            alpha=5.0,
        )
        assert sync.movement_charged == pytest.approx(expected)
        assert pipelined.movement_charged == pytest.approx(expected)
        assert sync.movement_charged == sync.num_switches * 5.0

    def test_async_replay_aborts_pipeline_on_error(self, setup, tmp_path, monkeypatch):
        # An executor failure mid-pipeline must unwind in O(1) (abort the
        # staged move), not execute the remaining movement steps.
        bundle, stream, harness = setup
        result = two_layout_schedule(bundle, stream)
        fail_at = result.ledger.switch_steps[0] + 2
        from repro.storage import executor as executor_module

        real = executor_module.QueryExecutor.execute
        count = {"n": -1}

        def flaky(self, stored, query):
            count["n"] += 1
            if count["n"] == fail_at:
                raise RuntimeError("boom")
            return real(self, stored, query)

        monkeypatch.setattr(executor_module.QueryExecutor, "execute", flaky)
        root = tmp_path / "abort-replay"
        with pytest.raises(RuntimeError, match="boom"):
            replay_physical(
                bundle.table,
                stream,
                result,
                root,
                sample_stride=1,
                async_reorg=True,
                step_partitions=1,
            )
        assert not list(root.rglob("*.staging"))  # staged buffer discarded

    def test_async_replay_cleans_up(self, setup, tmp_path):
        bundle, stream, harness = setup
        result = two_layout_schedule(bundle, stream)
        root = tmp_path / "async-cleanup"
        replay_physical(
            bundle.table,
            stream,
            result,
            root,
            sample_stride=50,
            async_reorg=True,
            step_partitions=2,
        )
        assert [f for f in root.rglob(f"*{PARTITION_SUFFIX}")] == []
