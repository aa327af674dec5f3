"""LayoutEngine facade unit tests: lifecycle, serving, policies, reorgs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    Decision,
    EngineConfig,
    EventLog,
    GreedyPolicy,
    LayoutEngine,
    NeverReorganize,
    OreoPolicy,
    ReorgPolicy,
    SchedulePolicy,
)
from repro.core import OREO, OreoConfig
from repro.layouts import QdTreeBuilder, RangeLayoutBuilder
from repro.queries import Query, between
from repro.storage.partition_store import PARTITION_SUFFIX
from repro.workloads import tpch


@pytest.fixture(scope="module")
def bundle():
    return tpch.load(4_000, np.random.default_rng(0))


@pytest.fixture(scope="module")
def layouts(bundle):
    rng = np.random.default_rng(1)
    first = RangeLayoutBuilder(bundle.default_sort_column).build(
        bundle.table, [], 6, rng
    )
    second = RangeLayoutBuilder("l_quantity").build(bundle.table, [], 6, rng)
    return first, second


@pytest.fixture(scope="module")
def queries(bundle):
    rng = np.random.default_rng(2)
    values = bundle.table["l_quantity"]
    lo, hi = float(np.min(values)), float(np.max(values))
    span = (hi - lo) / 16.0
    return [
        Query(predicate=between("l_quantity", float(s), float(s) + span))
        for s in rng.uniform(lo, hi - span, size=24)
    ]


class TestLifecycle:
    def test_open_close_materialized(self, tmp_path, bundle, layouts, queries):
        first, _ = layouts
        config = EngineConfig(store_root=tmp_path / "s", cleanup_on_close=True)
        engine = LayoutEngine(config).open(bundle.table, first)
        assert engine.current_layout is first
        result = engine.query(queries[0])
        assert result.total_rows == bundle.table.num_rows
        engine.close()
        assert not list((tmp_path / "s").rglob(f"*{PARTITION_SUFFIX}"))
        engine.close()  # idempotent

    def test_double_open_rejected(self, tmp_path, bundle, layouts):
        first, _ = layouts
        config = EngineConfig(store_root=tmp_path / "s")
        engine = LayoutEngine(config).open(bundle.table, first)
        with pytest.raises(RuntimeError, match="already open"):
            engine.open(bundle.table, first)
        engine.close()

    def test_reopen_after_close_starts_fresh(self, tmp_path, bundle, layouts, queries):
        first, second = layouts
        config = EngineConfig(store_root=tmp_path / "s", cleanup_on_close=True)
        engine = LayoutEngine(config)
        with engine.open(bundle.table, first):
            engine.query(queries[0])
        assert engine.stats().queries_served == 1  # readable after close
        # a fresh lifetime: state and counters reset, files re-materialized
        with engine.open(bundle.table, second):
            result = engine.query(queries[0])
            assert result.total_rows == bundle.table.num_rows
            assert engine.stats().queries_served == 1
            assert engine.current_layout is second

    def test_reopen_streaming_after_materialized(self, tmp_path, bundle, layouts):
        first, _ = layouts
        config = EngineConfig(
            store_root=tmp_path / "s",
            builder=RangeLayoutBuilder(bundle.default_sort_column),
            data_sample_fraction=0.5,
            cleanup_on_close=True,
        )
        engine = LayoutEngine(config)
        with engine.open(bundle.table, first):
            pass
        with engine:  # reopened without a table: streaming mode now valid
            assert engine.ingest(bundle.table.sample(0.3, np.random.default_rng(0))) > 0

    def test_query_before_open_rejected(self, tmp_path, queries):
        engine = LayoutEngine(EngineConfig(store_root=tmp_path / "s"))
        with pytest.raises(RuntimeError, match="not open"):
            engine.query(queries[0])

    def test_context_manager_opens_streaming(self, tmp_path, bundle):
        config = EngineConfig(
            store_root=tmp_path / "s",
            builder=RangeLayoutBuilder(bundle.default_sort_column),
            data_sample_fraction=0.5,
        )
        with LayoutEngine(config) as engine:
            written = engine.ingest(bundle.table)
            assert written > 0
            assert engine.stats().rows_ingested == bundle.table.num_rows

    def test_empty_engine_query_rejected(self, tmp_path, queries):
        with LayoutEngine(EngineConfig(store_root=tmp_path / "s")) as engine:
            with pytest.raises(RuntimeError, match="no data"):
                engine.query(queries[0])

    def test_derive_layout_requires_builder(self, tmp_path, bundle):
        with LayoutEngine(EngineConfig(store_root=tmp_path / "s")) as engine:
            with pytest.raises(RuntimeError, match="builder"):
                engine.ingest(bundle.table)

    def test_materialized_engine_refuses_ingest(self, tmp_path, bundle, layouts):
        first, _ = layouts
        config = EngineConfig(store_root=tmp_path / "s", cleanup_on_close=True)
        with LayoutEngine(config).open(bundle.table, first) as engine:
            with pytest.raises(RuntimeError, match="materialized"):
                engine.ingest(bundle.table)


class TestServing:
    def test_query_batch_matches_execute(self, tmp_path, bundle, layouts, queries):
        first, _ = layouts
        config = EngineConfig(store_root=tmp_path / "s", cleanup_on_close=True)
        with LayoutEngine(config).open(bundle.table, first) as engine:
            batch = engine.query_batch(queries[:6])
            singles = [engine.query(q) for q in queries[:6]]
            assert [r.rows_matched for r in batch] == [
                r.rows_matched for r in singles
            ]
            assert [r.rows_scanned for r in batch] == [
                r.rows_scanned for r in singles
            ]
            assert engine.stats().queries_served == 12

    def test_query_batch_empty(self, tmp_path, bundle, layouts):
        first, _ = layouts
        config = EngineConfig(store_root=tmp_path / "s", cleanup_on_close=True)
        with LayoutEngine(config).open(bundle.table, first) as engine:
            assert engine.query_batch([]) == []

    def test_stats_accumulate(self, tmp_path, bundle, layouts, queries):
        first, _ = layouts
        config = EngineConfig(store_root=tmp_path / "s", cleanup_on_close=True)
        with LayoutEngine(config).open(bundle.table, first) as engine:
            for query in queries[:4]:
                engine.query(query)
            stats = engine.stats()
            assert stats.queries_served == 4
            assert stats.bytes_read > 0
            assert stats.num_switches == 0


class TestManualReorg:
    def test_sync_reorganize(self, tmp_path, bundle, layouts, queries):
        first, second = layouts
        config = EngineConfig(
            store_root=tmp_path / "s", alpha=7.0, cleanup_on_close=True
        )
        with LayoutEngine(config).open(bundle.table, first) as engine:
            before = engine.query(queries[0])
            engine.reorganize(second)
            after = engine.query(queries[0])
            assert engine.current_layout is second
            stats = engine.stats()
            assert stats.num_switches == 1
            assert stats.reorgs_completed == 1
            assert stats.movement_charged == 7.0
            assert stats.reorg_seconds > 0.0
            assert before.rows_matched == after.rows_matched

    def test_sync_reorganize_same_id_noop(self, tmp_path, bundle, layouts):
        first, _ = layouts
        config = EngineConfig(store_root=tmp_path / "s", cleanup_on_close=True)
        with LayoutEngine(config).open(bundle.table, first) as engine:
            engine.reorganize(first)
            assert engine.stats().num_switches == 0

    def test_pipelined_reorganize_serves_old_epoch(
        self, tmp_path, bundle, layouts, queries
    ):
        first, second = layouts
        config = EngineConfig(
            store_root=tmp_path / "s",
            alpha=7.0,
            async_reorg=True,
            step_partitions=1,
            cleanup_on_close=True,
        )
        with LayoutEngine(config).open(bundle.table, first) as engine:
            engine.reorganize(second)
            assert engine.reorg_active
            assert engine.stored().layout is first  # old epoch until the flip
            matched = engine.query(queries[0]).rows_matched
            engine.run_until_idle()
            assert not engine.reorg_active
            assert engine.stored().layout is second
            assert engine.query(queries[0]).rows_matched == matched
            stats = engine.stats()
            assert stats.reorgs_completed == 1
            assert stats.movement_charged == pytest.approx(7.0)

    def test_pipelined_step_returns_none_when_idle(self, tmp_path, bundle, layouts):
        first, _ = layouts
        config = EngineConfig(
            store_root=tmp_path / "s", async_reorg=True, cleanup_on_close=True
        )
        with LayoutEngine(config).open(bundle.table, first) as engine:
            assert engine.step() is None

    def test_back_to_back_reorgs_serialize(self, tmp_path, bundle, layouts, queries):
        first, second = layouts
        config = EngineConfig(
            store_root=tmp_path / "s",
            alpha=3.0,
            async_reorg=True,
            step_partitions=1,
            cleanup_on_close=True,
        )
        rng = np.random.default_rng(7)
        third = RangeLayoutBuilder("l_extendedprice").build(bundle.table, [], 4, rng)
        with LayoutEngine(config).open(bundle.table, first) as engine:
            engine.reorganize(second)
            assert engine.reorg_active
            engine.reorganize(third)  # drains the in-flight move first
            engine.run_until_idle()
            stats = engine.stats()
            assert stats.num_switches == 2
            assert stats.reorgs_completed == 2
            assert stats.movement_charged == pytest.approx(6.0)
            assert engine.stored().layout is third

    def test_abort_reorg_mid_session(self, tmp_path, bundle, layouts, queries):
        """abort_reorg cancels cleanly and the same target can be retried."""
        first, second = layouts
        config = EngineConfig(
            store_root=tmp_path / "s",
            alpha=6.0,
            async_reorg=True,
            step_partitions=1,
            cleanup_on_close=True,
        )
        with LayoutEngine(config).open(bundle.table, first) as engine:
            assert engine.abort_reorg() == 0.0  # idle: no-op
            engine.reorganize(second)
            engine.step()
            engine.step()
            refund = engine.abort_reorg()
            assert refund > 0.0
            assert not engine.reorg_active
            # decision level rolled back to the epoch still on disk
            assert engine.current_layout is first
            assert engine.stored().layout is first
            assert not list((tmp_path / "s").rglob("*.staging"))
            assert engine.stats().movement_charged == 0.0
            engine.query(queries[0])  # serving still works on the old epoch
            # re-stating the aborted target must switch again, not no-op
            engine.reorganize(second)
            engine.run_until_idle()
            assert engine.stored().layout is second
            assert engine.stats().movement_charged == pytest.approx(6.0)

    def test_close_aborts_inflight_pipeline(self, tmp_path, bundle, layouts):
        first, second = layouts
        log = EventLog()
        config = EngineConfig(
            store_root=tmp_path / "s",
            async_reorg=True,
            step_partitions=1,
            cleanup_on_close=True,
        )
        engine = LayoutEngine(config, events=log).open(bundle.table, first)
        engine.reorganize(second)
        assert engine.reorg_active
        engine.close()
        assert "reorg_aborted" in log.names()
        assert not list((tmp_path / "s").rglob("*.staging"))
        assert not list((tmp_path / "s").rglob(f"*{PARTITION_SUFFIX}"))


class TestStreamingReorg:
    def _streaming_engine(self, tmp_path, bundle, **overrides):
        config = EngineConfig(
            store_root=tmp_path / "s",
            builder=RangeLayoutBuilder(bundle.default_sort_column),
            data_sample_fraction=0.5,
            num_partitions=4,
            cleanup_on_close=True,
            **overrides,
        )
        return LayoutEngine(config)

    def test_sync_consolidation(self, tmp_path, bundle, queries):
        rng = np.random.default_rng(3)
        target = RangeLayoutBuilder("l_quantity").build(bundle.table, [], 4, rng)
        with self._streaming_engine(tmp_path, bundle, alpha=5.0) as engine:
            for chunk in range(4):
                engine.ingest(bundle.table.sample(0.2, np.random.default_rng(chunk)))
            fragmented = engine.stored()
            engine.reorganize(target)
            assert engine.stored().layout is target
            assert len(engine.stored().partitions) < len(fragmented.partitions)
            assert engine.stats().movement_charged == 5.0
            assert engine.query(queries[0]).total_rows == engine.stored().total_rows

    def test_pipelined_consolidation_serves_during_move(
        self, tmp_path, bundle, queries
    ):
        rng = np.random.default_rng(3)
        target = RangeLayoutBuilder("l_quantity").build(bundle.table, [], 4, rng)
        with self._streaming_engine(
            tmp_path, bundle, alpha=5.0, async_reorg=True, step_partitions=1
        ) as engine:
            for chunk in range(4):
                engine.ingest(bundle.table.sample(0.2, np.random.default_rng(chunk)))
            total_rows = engine.stored().total_rows
            engine.reorganize(target)
            assert engine.reorg_active
            # the stream never pauses: a mid-flight batch takes the
            # dual-epoch sidecar and is queryable immediately
            mid_flight = bundle.table.sample(0.1, rng)
            assert engine.ingest(mid_flight) > 0
            total_rows += mid_flight.num_rows
            served = engine.query(queries[0])
            assert served.total_rows == total_rows
            engine.run_until_idle()
            assert engine.stored().layout is target
            assert engine.stored().total_rows == total_rows  # nothing dropped
            assert engine.stats().movement_charged == pytest.approx(5.0)
            # ingestion continues under the new layout
            assert engine.ingest(bundle.table.sample(0.1, rng)) > 0

    def test_ingest_during_reorg_opt_out_restores_guard(
        self, tmp_path, bundle, queries
    ):
        rng = np.random.default_rng(3)
        target = RangeLayoutBuilder("l_quantity").build(bundle.table, [], 4, rng)
        with self._streaming_engine(
            tmp_path,
            bundle,
            alpha=5.0,
            async_reorg=True,
            step_partitions=1,
            ingest_during_reorg=False,
        ) as engine:
            for chunk in range(3):
                engine.ingest(bundle.table.sample(0.2, np.random.default_rng(chunk)))
            engine.reorganize(target)
            assert engine.reorg_active
            with pytest.raises(RuntimeError, match="consolidation"):
                engine.ingest(bundle.table.sample(0.1, rng))
            engine.run_until_idle()
            assert engine.ingest(bundle.table.sample(0.1, rng)) > 0

    def test_mover_threads_commit_identical_partition_bytes(
        self, tmp_path, bundle, queries
    ):
        # mover_threads=4 must be invisible in the committed state: same
        # files, same bytes, same query answers as the serial engine.
        rng = np.random.default_rng(3)
        target = RangeLayoutBuilder("l_quantity").build(bundle.table, [], 4, rng)
        stored = {}
        for threads in (1, 4):
            with self._streaming_engine(
                tmp_path / f"threads-{threads}",
                bundle,
                alpha=5.0,
                async_reorg=True,
                step_partitions=2,
                mover_threads=threads,
            ) as engine:
                for chunk in range(4):
                    engine.ingest(
                        bundle.table.sample(0.2, np.random.default_rng(chunk))
                    )
                engine.reorganize(target)
                engine.run_until_idle()
                snapshot = engine.stored()
                stored[threads] = [
                    (p.partition_id, p.epoch, p.path.read_bytes())
                    for p in snapshot.partitions
                ]
                assert snapshot.layout is target
        assert stored[1] == stored[4]


class TestPolicies:
    def test_never_reorganize_stays_put(self, tmp_path, bundle, layouts, queries):
        first, _ = layouts
        config = EngineConfig(store_root=tmp_path / "s", cleanup_on_close=True)
        policy = NeverReorganize()
        with LayoutEngine(config, policy=policy).open(bundle.table, first) as engine:
            for query in queries[:8]:
                engine.query(query)
            assert engine.stats().num_switches == 0
            assert engine.current_layout is first

    def test_greedy_switches_to_cheaper_candidate(
        self, tmp_path, bundle, layouts, queries
    ):
        first, second = layouts
        # first partitions on the date column; the l_quantity range queries
        # prune far better on second, so greedy must switch immediately.
        config = EngineConfig(store_root=tmp_path / "s", cleanup_on_close=True)
        policy = GreedyPolicy([second])
        with LayoutEngine(config, policy=policy).open(bundle.table, first) as engine:
            for query in queries[:4]:
                engine.query(query)
            assert engine.stats().num_switches == 1
            assert engine.current_layout is second

    def test_oreo_policy_runs_through_engine(self, tmp_path, bundle, queries):
        rng = np.random.default_rng(11)
        initial = RangeLayoutBuilder(bundle.default_sort_column).build(
            bundle.table, [], 4, rng
        )
        oreo = OREO(
            bundle.table,
            QdTreeBuilder(),
            initial,
            OreoConfig(
                alpha=2.0,
                window_size=6,
                generation_interval=6,
                num_partitions=4,
                data_sample_fraction=0.2,
            ),
            rng,
        )
        policy = OreoPolicy(oreo)
        config = EngineConfig(
            store_root=tmp_path / "s", alpha=2.0, cleanup_on_close=True
        )
        with LayoutEngine(config, policy=policy).open(bundle.table, initial) as engine:
            for query in queries:
                engine.query(query)
            stats = engine.stats()
            # the policy's logical ledger and the engine's physical ledger
            # agree on the movement total
            assert stats.movement_charged == pytest.approx(
                policy.ledger.total_reorg_cost
            )
            assert policy.ledger.num_switches == stats.num_switches
            assert engine.current_layout.layout_id == policy.current_layout.layout_id

    def test_two_policies_through_one_engine_instance(
        self, tmp_path, bundle, layouts, queries
    ):
        """OREO-backed and never-reorganize run through the same engine."""
        first, _ = layouts
        rng = np.random.default_rng(13)
        oreo = OREO(
            bundle.table,
            QdTreeBuilder(),
            first,
            OreoConfig(
                alpha=2.0,
                window_size=6,
                generation_interval=6,
                num_partitions=4,
                data_sample_fraction=0.2,
            ),
            rng,
        )
        config = EngineConfig(
            store_root=tmp_path / "s", alpha=2.0, cleanup_on_close=True
        )
        engine = LayoutEngine(config, policy=NeverReorganize())
        with engine.open(bundle.table, first):
            for query in queries[:6]:
                engine.query(query)
            assert engine.stats().num_switches == 0
            engine.policy = OreoPolicy(oreo)  # drop-in swap, engine unchanged
            for query in queries:
                engine.query(query)
            assert isinstance(engine.policy, ReorgPolicy)
            assert engine.stats().queries_served == 6 + len(queries)

    def test_schedule_policy_replays_history(self, tmp_path, bundle, layouts, queries):
        first, second = layouts
        history = [first.layout_id] * 3 + [second.layout_id] * 3
        policy = SchedulePolicy(
            history, {first.layout_id: first, second.layout_id: second}
        )
        config = EngineConfig(store_root=tmp_path / "s", cleanup_on_close=True)
        with LayoutEngine(config, policy=policy).open(bundle.table, first) as engine:
            for query in queries[:6]:
                engine.query(query)
            assert engine.stats().num_switches == 1
            assert engine.current_layout is second
            with pytest.raises(RuntimeError, match="exhausted"):
                engine.query(queries[6])

    def test_schedule_policy_rejects_unknown_layouts(self, layouts):
        first, _ = layouts
        with pytest.raises(ValueError, match="unknown layouts"):
            SchedulePolicy(["nope"], {first.layout_id: first})

    def test_custom_policy_duck_types(self, tmp_path, bundle, layouts, queries):
        first, second = layouts

        class SwitchOnce:
            def __init__(self):
                self.seen = 0

            def observe(self, query, costs):
                self.seen += 1
                return Decision(target=second if self.seen == 2 else None)

        config = EngineConfig(store_root=tmp_path / "s", cleanup_on_close=True)
        policy = SwitchOnce()
        assert isinstance(policy, ReorgPolicy)  # structural protocol
        with LayoutEngine(config, policy=policy).open(bundle.table, first) as engine:
            for query in queries[:4]:
                engine.query(query)
            assert engine.stats().num_switches == 1
            assert engine.current_layout is second


class TestStreamingEdgeCases:
    def test_reorganize_before_any_data_rejected(self, tmp_path, layouts):
        first, second = layouts
        # open(initial_layout=...) sets the layout but holds no data yet
        engine = LayoutEngine(EngineConfig(store_root=tmp_path / "s")).open(
            initial_layout=first
        )
        with pytest.raises(RuntimeError, match="no data"):
            engine.reorganize(second)
        engine.close()

    def test_policy_switch_on_dataless_engine_raises(self, tmp_path, layouts, queries):
        """A policy-requested switch on a data-less engine raises the same
        clean error as explicit reorganize() — never a silent drop."""
        first, second = layouts

        class AlwaysSwitch:
            def observe(self, query, costs):
                return Decision(target=second)

        engine = LayoutEngine(
            EngineConfig(store_root=tmp_path / "s"), policy=AlwaysSwitch()
        ).open(initial_layout=first)
        with pytest.raises(RuntimeError, match="no data"):
            engine.observe(queries[0])
        engine.close()

    def test_wants_costs_policy_with_unpriceable_candidates(
        self, tmp_path, bundle, layouts, queries
    ):
        """Streaming engine + greedy: un-registered candidates are skipped,
        not crashed on (no table to derive their metadata from)."""
        _, second = layouts
        config = EngineConfig(
            store_root=tmp_path / "s",
            builder=RangeLayoutBuilder(bundle.default_sort_column),
            data_sample_fraction=0.5,
            num_partitions=4,
            cleanup_on_close=True,
        )
        policy = GreedyPolicy([second])
        with LayoutEngine(config, policy=policy) as engine:
            engine.ingest(bundle.table.sample(0.3, np.random.default_rng(0)))
            engine.query(queries[0])  # candidate unpriceable -> stay put
            assert engine.stats().num_switches == 0
            # registering the candidate's physical snapshot makes it priceable
            engine.evaluator.register_metadata(
                second.layout_id, second.metadata_for(bundle.table)
            )
            for query in queries[:4]:
                engine.query(query)
            assert engine.stats().num_switches == 1
            assert engine.current_layout is second

    def test_same_id_reorganize_consolidates_streaming_store(
        self, tmp_path, bundle, queries
    ):
        """reorganize(current_layout) on a streaming engine defragments."""
        with self._streaming_engine_for_consolidation(tmp_path, bundle) as engine:
            for seed in range(4):
                engine.ingest(bundle.table.sample(0.2, np.random.default_rng(seed)))
            fragmented = len(engine.stored().partitions)
            before = engine.query(queries[0]).rows_matched
            engine.reorganize(engine.current_layout)  # same id: consolidation
            assert len(engine.stored().partitions) < fragmented
            assert engine.stored().layout is engine.current_layout
            assert engine.query(queries[0]).rows_matched == before
            assert engine.stats().num_switches == 1
            assert engine.stats().movement_charged == 5.0

    def _streaming_engine_for_consolidation(self, tmp_path, bundle):
        return LayoutEngine(
            EngineConfig(
                store_root=tmp_path / "s",
                builder=RangeLayoutBuilder(bundle.default_sort_column),
                data_sample_fraction=0.5,
                num_partitions=4,
                alpha=5.0,
                cleanup_on_close=True,
            )
        )

    def test_empty_first_batch_is_a_noop(self, tmp_path, bundle):
        """An empty first batch must not pin the schema or derive a layout."""
        config = EngineConfig(
            store_root=tmp_path / "s",
            builder=RangeLayoutBuilder(bundle.default_sort_column),
            data_sample_fraction=0.5,
            cleanup_on_close=True,
        )
        from repro.storage import Table

        with LayoutEngine(config) as engine:
            empty = Table(
                bundle.table.schema,
                {
                    name: bundle.table[name][:0]
                    for name in bundle.table.schema.names()
                },
            )
            assert empty.num_rows == 0
            assert engine.ingest(empty) == 0
            assert engine.stats().rows_ingested == 0
            # real data afterwards works normally
            assert engine.ingest(bundle.table.sample(0.3, np.random.default_rng(1))) > 0

    def test_fragmentation_delegate(self, tmp_path, bundle):
        config = EngineConfig(
            store_root=tmp_path / "s",
            builder=RangeLayoutBuilder(bundle.default_sort_column),
            data_sample_fraction=0.5,
            num_partitions=2,
            cleanup_on_close=True,
        )
        with LayoutEngine(config) as engine:
            assert engine.fragmentation(1_000) == 1.0  # nothing ingested yet
            for seed in range(3):
                engine.ingest(bundle.table.sample(0.2, np.random.default_rng(seed)))
            frag = engine.fragmentation(bundle.table.num_rows)
            assert frag == len(engine.stored().partitions)  # 1 ideal partition
            assert frag > 1.0


class TestGreedyPolicyUnit:
    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            GreedyPolicy([], margin=-1.0)

    def test_no_costs_stays(self):
        policy = GreedyPolicy([])
        assert policy.observe(None, {}).target is None

    def test_margin_suppresses_marginal_switch(self, tmp_path, bundle, layouts, queries):
        first, second = layouts
        config = EngineConfig(store_root=tmp_path / "s", cleanup_on_close=True)
        policy = GreedyPolicy([second], margin=1.0)  # margin ≥ any c(s,q) gap
        with LayoutEngine(config, policy=policy).open(bundle.table, first) as engine:
            for query in queries[:4]:
                engine.query(query)
            assert engine.stats().num_switches == 0

    def test_policy_swap_attaches_cost_wiring(self, tmp_path, bundle, queries):
        """Swapping in a wants_costs policy wires the evaluator into the
        ingest path, so every append registers its snapshot there."""
        config = EngineConfig(
            store_root=tmp_path / "s",
            builder=RangeLayoutBuilder(bundle.default_sort_column),
            data_sample_fraction=0.5,
            num_partitions=4,
            cleanup_on_close=True,
        )
        with LayoutEngine(config, policy=NeverReorganize()) as engine:
            engine.ingest(bundle.table.sample(0.2, np.random.default_rng(0)))
            engine.policy = GreedyPolicy([], margin=0.5)
            # wiring attached and seeded with the current snapshot
            assert engine._incremental.evaluator is engine.evaluator
            assert engine.evaluator.has_metadata(engine.current_layout.layout_id)
            engine.query(queries[0])  # prices + caches against the snapshot
            assert engine.evaluator.cache_sizes()[1] > 0
            engine.ingest(bundle.table.sample(0.2, np.random.default_rng(1)))
            # the append itself moved the evaluator onto the new snapshot
            # (no query in between to re-register it) and dropped the price
            # cached against the old one
            stored = engine.stored()
            assert engine.evaluator.metadata(stored.layout) is stored.metadata
            assert engine.evaluator.cache_sizes()[1] == 0

    def test_policy_swapped_onto_live_engine_is_bound(
        self, tmp_path, bundle, layouts, queries
    ):
        """Assigning engine.policy after open() must bind() it: an unbound
        greedy policy cannot see the current layout, which would skip its
        margin guard and switch when it must not."""
        first, second = layouts
        config = EngineConfig(store_root=tmp_path / "s", cleanup_on_close=True)
        with LayoutEngine(config).open(bundle.table, first) as engine:
            engine.policy = GreedyPolicy([second], margin=1.0)
            for query in queries[:4]:
                engine.query(query)
            assert engine.stats().num_switches == 0  # margin still honoured
            assert engine.current_layout is first
