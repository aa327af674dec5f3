"""ShardedEngine unit tests: construction, routing, merging, events."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    EngineConfig,
    EventLog,
    NeverReorganize,
    ShardedEngine,
    ShardedEventLog,
    derive_shard_configs,
    merge_query_results,
)
from repro.engine.sharded import _derive_seed, _validate_shard_configs
from repro.layouts import HashLayout, RangeLayoutBuilder
from repro.queries import Query, between
from repro.storage import QueryResult
from repro.workloads import tpch

SHARD_KEY = "l_orderkey"


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
    return bundle.workload(6, 2, np.random.default_rng(2))


def make_engine(tmp_path, num_shards=4, **overrides):
    defaults = dict(store_root=tmp_path / "s", cleanup_on_close=True)
    defaults.update(overrides)
    return ShardedEngine(EngineConfig(**defaults), SHARD_KEY, num_shards)


class TestConstruction:
    def test_rejects_bad_knobs(self, tmp_path):
        config = EngineConfig(store_root=tmp_path / "s")
        with pytest.raises(ValueError, match="shard_key"):
            ShardedEngine(config, "", 4)
        with pytest.raises(ValueError, match="num_shards"):
            ShardedEngine(config, SHARD_KEY, 0)
        with pytest.raises(ValueError, match="max_workers"):
            ShardedEngine(config, SHARD_KEY, 4, max_workers=0)

    def test_derived_configs_are_deterministic_and_distinct(self, tmp_path):
        config = EngineConfig(store_root=tmp_path / "s", alpha=80.0, seed=7)
        first = derive_shard_configs(config, 4)
        second = derive_shard_configs(config, 4)
        assert [c.seed for c in first] == [c.seed for c in second]
        assert len({c.seed for c in first}) == 4
        assert len({str(c.store_root) for c in first}) == 4
        assert all(str(c.store_root).startswith(str(tmp_path / "s")) for c in first)

    def test_derived_seeds_are_well_mixed(self):
        # adjacent base seeds must not produce overlapping shard streams
        seeds = {_derive_seed(base, shard) for base in range(4) for shard in range(4)}
        assert len(seeds) == 16

    def test_alpha_splits_across_shards(self, tmp_path):
        config = EngineConfig(store_root=tmp_path / "s", alpha=80.0)
        configs = derive_shard_configs(config, 4)
        assert [c.alpha for c in configs] == [20.0] * 4
        untracked = EngineConfig(store_root=tmp_path / "u")
        assert all(c.alpha is None for c in derive_shard_configs(untracked, 4))

    def test_derive_rejects_nonpositive_shards(self, tmp_path):
        with pytest.raises(ValueError, match="num_shards"):
            derive_shard_configs(EngineConfig(store_root=tmp_path / "s"), 0)

    def test_cloned_config_rejected(self, tmp_path):
        """The original bug: one config cloned per shard shares the seed
        and the store root — both must be rejected at construction."""
        config = EngineConfig(store_root=tmp_path / "s")
        with pytest.raises(ValueError, match="store root"):
            ShardedEngine(config, SHARD_KEY, 2, shard_configs=[config, config])

    def test_duplicate_seeds_rejected(self, tmp_path):
        config = EngineConfig(store_root=tmp_path / "s", seed=3)
        clones = [
            config.with_overrides(store_root=tmp_path / "s" / f"shard-{i}")
            for i in range(3)
        ]
        with pytest.raises(ValueError, match="seed"):
            ShardedEngine(config, SHARD_KEY, 3, shard_configs=clones)
        distinct = [c.with_overrides(seed=i) for i, c in enumerate(clones)]
        _validate_shard_configs(distinct)  # fixed clones pass

    def test_duplicate_roots_resolved_not_textual(self, tmp_path):
        """`a/../b` and `b` are the same directory; validation resolves."""
        config = EngineConfig(store_root=tmp_path / "s")
        sneaky = [
            config.with_overrides(store_root=tmp_path / "b", seed=0),
            config.with_overrides(store_root=tmp_path / "a" / ".." / "b", seed=1),
        ]
        with pytest.raises(ValueError, match="store root"):
            _validate_shard_configs(sneaky)

    def test_wrong_shard_config_count_rejected(self, tmp_path):
        config = EngineConfig(store_root=tmp_path / "s")
        with pytest.raises(ValueError, match="expected 4"):
            ShardedEngine(
                config, SHARD_KEY, 4, shard_configs=derive_shard_configs(config, 2)
            )

    def test_policy_factory_builds_one_policy_per_shard(self, tmp_path):
        calls: list[int] = []

        def factory(shard: int) -> NeverReorganize:
            calls.append(shard)
            return NeverReorganize()

        engine = ShardedEngine(
            EngineConfig(store_root=tmp_path / "s"),
            SHARD_KEY,
            3,
            policy_factory=factory,
        )
        assert calls == [0, 1, 2]
        policies = [shard.policy for shard in engine.shards]
        assert len({id(p) for p in policies}) == 3


class TestRouting:
    def test_assignments_match_hash_layout(self, tmp_path, bundle):
        engine = make_engine(tmp_path, num_shards=4)
        expected = HashLayout(SHARD_KEY, 4).assign(bundle.table)
        np.testing.assert_array_equal(engine.shard_assignments(bundle.table), expected)

    def test_open_places_every_row_on_its_hash_shard(self, tmp_path, bundle, layouts):
        first, _ = layouts
        with make_engine(tmp_path).open(bundle.table, first) as engine:
            assignments = engine.shard_assignments(bundle.table)
            for shard, shard_engine in enumerate(engine.shards):
                expected = int(np.count_nonzero(assignments == shard))
                if expected == 0:
                    assert not shard_engine.holds_data
                else:
                    assert shard_engine.stored().total_rows == expected
            totals = sum(
                e.stored().total_rows for e in engine.shards if e.holds_data
            )
            assert totals == bundle.table.num_rows

    def test_open_rejects_missing_shard_key(self, tmp_path, bundle, layouts):
        first, _ = layouts
        engine = ShardedEngine(
            EngineConfig(store_root=tmp_path / "s"), "no_such_column", 4
        )
        with pytest.raises(ValueError, match="no_such_column"):
            engine.open(bundle.table, first)
        # the failed open left nothing half-open
        with pytest.raises(RuntimeError, match="not open"):
            engine.stats()

    def test_ingest_routes_rows_and_counts_files(self, tmp_path, bundle):
        config_extra = dict(
            builder=RangeLayoutBuilder(bundle.default_sort_column),
            data_sample_fraction=0.5,
            num_partitions=2,
        )
        batch = bundle.table.sample(0.5, np.random.default_rng(3))
        with make_engine(tmp_path, **config_extra) as engine:
            written = engine.ingest(batch)
            assert written > 0
            assert engine.ingest(batch.take(np.array([], dtype=np.int64))) == 0
            assignments = engine.shard_assignments(batch)
            for shard, shard_engine in enumerate(engine.shards):
                expected = int(np.count_nonzero(assignments == shard))
                assert shard_engine.stats().rows_ingested == expected
            assert engine.stats().rows_ingested == batch.num_rows

    def test_ingest_refusal_leaves_no_shard_half_written(self, tmp_path, bundle, layouts):
        """A table landing on 2 of 4 shards: those two refuse ingest, the
        hash-empty two would accept it — so a batch reaching both kinds
        must be refused up front, before the accepting shards append."""
        first, _ = layouts
        engine = make_engine(tmp_path)
        assignments = engine.shard_assignments(bundle.table)
        opened = bundle.table.take(np.flatnonzero(assignments < 2))
        rest = bundle.table.take(np.flatnonzero(assignments >= 2))
        with engine.open(opened, first):
            assert [s.holds_data for s in engine.shards] == [True, True, False, False]
            assert [s.accepts_ingest for s in engine.shards] == [False, False, True, True]

            def rows():
                return [s.stored().total_rows if s.holds_data else 0 for s in engine.shards]

            before = rows()
            with pytest.raises(RuntimeError, match=r"shards \[0, 1\].*nothing was written"):
                engine.ingest(bundle.table.take(np.arange(400)))
            assert rows() == before
            assert engine.stats().rows_ingested == 0
            # a batch routed only to the shards the table left empty still lands
            assert engine.ingest(rest.take(np.arange(100))) > 0
            assert rows() == [*before[:2], *rows()[2:]] and sum(rows()[2:]) == 100

    def test_ingest_rejects_missing_shard_key(self, tmp_path, simple_table):
        with make_engine(tmp_path) as engine:
            with pytest.raises(ValueError, match=SHARD_KEY):
                engine.ingest(simple_table)


class TestQuerying:
    def test_query_matches_brute_force(self, tmp_path, bundle, layouts, queries):
        first, _ = layouts
        with make_engine(tmp_path).open(bundle.table, first) as engine:
            for query in queries:
                merged = engine.query(query)
                expected = int(query.predicate.evaluate(bundle.table.columns).sum())
                assert merged.rows_matched == expected
                assert merged.total_rows == bundle.table.num_rows

    def test_query_batch_merges_per_query(self, tmp_path, bundle, layouts, queries):
        first, _ = layouts
        with make_engine(tmp_path).open(bundle.table, first) as engine:
            merged = engine.query_batch(queries)
            assert len(merged) == len(queries)
            for query, result in zip(queries, merged, strict=True):
                expected = int(query.predicate.evaluate(bundle.table.columns).sum())
                assert result.rows_matched == expected
            assert engine.query_batch([]) == []

    def test_query_requires_data(self, tmp_path):
        with make_engine(
            tmp_path, builder=RangeLayoutBuilder("l_orderkey")
        ) as engine:
            query = Query(predicate=between("l_orderkey", 0.0, 1.0))
            with pytest.raises(RuntimeError, match="holds no data"):
                engine.query(query)
            with pytest.raises(RuntimeError, match="holds no data"):
                engine.query_batch([query])

    def test_merge_query_results_sums_and_takes_critical_path(self):
        results = [
            QueryResult(1, 10, 100, 2, 4, 1000, 0.5),
            QueryResult(2, 20, 200, 1, 4, 2000, 0.25),
        ]
        merged = merge_query_results(results)
        assert merged.rows_matched == 3
        assert merged.rows_scanned == 30
        assert merged.total_rows == 300
        assert merged.partitions_scanned == 3
        assert merged.partitions_total == 8
        assert merged.bytes_read == 3000
        assert merged.elapsed_seconds == 0.5  # max, not sum: shards overlap

    def test_merge_query_results_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_query_results([])


class TestLifecycle:
    def test_double_open_raises_and_close_is_idempotent(
        self, tmp_path, bundle, layouts
    ):
        first, _ = layouts
        engine = make_engine(tmp_path).open(bundle.table, first)
        with pytest.raises(RuntimeError, match="already open"):
            engine.open(bundle.table, first)
        engine.close()
        engine.close()

    def test_calls_require_open(self, tmp_path, bundle):
        engine = make_engine(tmp_path)
        for call in (
            lambda: engine.ingest(bundle.table),
            lambda: engine.run_until_idle(),
            lambda: engine.abort_reorg(),
            lambda: engine.step(),
            lambda: engine.stats(),
        ):
            with pytest.raises(RuntimeError, match="not open"):
                call()

    def test_views(self, tmp_path, bundle, layouts):
        first, _ = layouts
        engine = make_engine(tmp_path, num_shards=3)
        assert engine.num_shards == 3
        assert engine.shard_key == SHARD_KEY
        assert len(engine.shards) == 3
        assert not engine.holds_data
        with engine.open(bundle.table, first):
            assert engine.holds_data
            assert not engine.reorg_active
            assert len(engine.shard_stats()) == 3


class TestReorgRouting:
    def test_full_reorg_charges_exactly_alpha(self, tmp_path, bundle, layouts):
        first, second = layouts
        with make_engine(tmp_path, alpha=80.0).open(bundle.table, first) as engine:
            engine.reorganize(second)
            stats = engine.stats()
            assert stats.movement_charged == pytest.approx(80.0)
            data_shards = [e for e in engine.shards if e.holds_data]
            assert stats.num_switches == len(data_shards)
            for shard_engine in data_shards:
                assert shard_engine.stats().movement_charged == pytest.approx(
                    80.0 / 4
                )

    def test_single_shard_reorg_leaves_others_untouched(
        self, tmp_path, bundle, layouts
    ):
        first, second = layouts
        with make_engine(tmp_path, alpha=80.0).open(bundle.table, first) as engine:
            engine.reorganize(second, shards=[0])
            per_shard = engine.shard_stats()
            assert per_shard[0].num_switches == 1
            assert all(s.num_switches == 0 for s in per_shard[1:])

    def test_reorganize_rejects_out_of_range_shard(self, tmp_path, bundle, layouts):
        first, second = layouts
        with make_engine(tmp_path).open(bundle.table, first) as engine:
            with pytest.raises(ValueError, match="out of range"):
                engine.reorganize(second, shards=[4])

    def test_pipelined_step_and_drain(self, tmp_path, bundle, layouts):
        first, second = layouts
        with make_engine(
            tmp_path, alpha=80.0, async_reorg=True, step_partitions=1
        ).open(bundle.table, first) as engine:
            engine.reorganize(second, shards=[0])
            assert engine.reorg_active
            stepped = engine.step()
            assert set(stepped) == {0}  # only the moving shard stepped
            engine.run_until_idle()
            assert not engine.reorg_active
            assert engine.step() == {}
            assert engine.shard_stats()[0].reorgs_completed == 1

    def test_abort_refunds_summed_installments(self, tmp_path, bundle, layouts):
        first, second = layouts
        with make_engine(
            tmp_path, alpha=80.0, async_reorg=True, step_partitions=1
        ).open(bundle.table, first) as engine:
            engine.reorganize(second)
            engine.step()
            refund = engine.abort_reorg()
            assert refund > 0.0
            assert not engine.reorg_active
            assert engine.stats().movement_charged == 0.0
            assert engine.abort_reorg() == 0.0


class TestShardedEvents:
    def test_tagged_stream_covers_every_shard(self, tmp_path, bundle, layouts):
        first, _ = layouts
        log = ShardedEventLog()
        engine = ShardedEngine(
            EngineConfig(store_root=tmp_path / "s", cleanup_on_close=True),
            SHARD_KEY,
            4,
            shard_events=log,
        )
        query = Query(predicate=between("l_quantity", 0.0, 10.0))
        with engine.open(bundle.table, first):
            engine.query(query)
        shards_seen = {shard for shard, _, _ in log.records}
        assert shards_seen == set(range(4))
        for shard in range(4):
            names = log.names(shard)
            assert names[0] == "open"
            assert names[-1] == "close"
            assert log.for_shard(shard)[0] == ("open", {})
        served = [s for s, name, _ in log.records if name == "query_served"]
        assert sorted(served) == sorted(
            s for s, e in enumerate(engine.shards) if e.holds_data
        )

    def test_shared_observer_sees_all_shards(self, tmp_path, bundle, layouts):
        first, _ = layouts
        shared = EventLog()
        engine = ShardedEngine(
            EngineConfig(store_root=tmp_path / "s", cleanup_on_close=True),
            SHARD_KEY,
            4,
            events=shared,
        )
        with engine.open(bundle.table, first):
            pass
        assert shared.names().count("open") == 4
        assert shared.names().count("close") == 4

    def test_tagged_payloads_match_event_log_schema(self, tmp_path, bundle, layouts):
        first, second = layouts
        tagged = ShardedEventLog()
        shared = EventLog()
        engine = ShardedEngine(
            EngineConfig(store_root=tmp_path / "s", alpha=8.0, cleanup_on_close=True),
            SHARD_KEY,
            2,
            events=shared,
            shard_events=tagged,
        )
        with engine.open(bundle.table, first):
            engine.reorganize(second)
        # a tagged record is exactly an EventLog record plus its shard
        # tag: every (name, payload) also appears in the shared log, and
        # both observers saw the same number of events
        flat = list(shared.records)
        assert len(tagged.records) == len(flat)
        for shard in range(2):
            own = tagged.for_shard(shard)
            assert own  # both shards held data and fired events
            for name, payload in own:
                assert (name, payload) in flat
