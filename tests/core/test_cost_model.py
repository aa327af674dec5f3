"""Tests for the cost model and the memoizing cost evaluator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CostEvaluator, CostModel
from repro.layouts import RangeLayoutBuilder, RoundRobinLayout
from repro.queries import Query, between


class TestCostModel:
    def test_alpha_must_exceed_one(self):
        with pytest.raises(ValueError):
            CostModel(alpha=1.0)
        with pytest.raises(ValueError):
            CostModel(alpha=0.5)

    def test_movement_cost(self):
        model = CostModel(alpha=80.0)
        assert model.movement_cost("a", "a") == 0.0
        assert model.movement_cost("a", "b") == 80.0
        assert model.movement_cost(None, "b") == 80.0


class TestCostEvaluator:
    def test_cost_in_unit_interval(self, simple_table, rng):
        evaluator = CostEvaluator(simple_table)
        layout = RoundRobinLayout(4)
        query = Query(predicate=between("x", 10.0, 20.0))
        cost = evaluator.query_cost(layout, query)
        assert 0.0 <= cost <= 1.0

    def test_sorted_layout_cheaper_than_striped(self, simple_table, rng):
        evaluator = CostEvaluator(simple_table)
        striped = RoundRobinLayout(8)
        ranged = RangeLayoutBuilder("x").build(simple_table, [], 8, rng)
        query = Query(predicate=between("x", 10.0, 20.0))
        assert evaluator.query_cost(ranged, query) < evaluator.query_cost(striped, query)

    def test_metadata_cached_per_layout(self, simple_table):
        evaluator = CostEvaluator(simple_table)
        layout = RoundRobinLayout(4)
        first = evaluator.metadata(layout)
        second = evaluator.metadata(layout)
        assert first is second
        assert evaluator.cache_sizes()[0] == 1

    def test_query_costs_cached_by_predicate_identity(self, simple_table):
        evaluator = CostEvaluator(simple_table)
        layout = RoundRobinLayout(4)
        query_a = Query(predicate=between("x", 10.0, 20.0))
        query_b = Query(predicate=between("x", 10.0, 20.0))  # same predicate
        evaluator.query_cost(layout, query_a)
        evaluator.query_cost(layout, query_b)
        assert evaluator.cache_sizes()[1] == 1

    def test_cost_vector_matches_scalar_costs(self, simple_table):
        evaluator = CostEvaluator(simple_table)
        layout = RoundRobinLayout(4)
        queries = [Query(predicate=between("x", float(i), float(i + 10))) for i in range(5)]
        vector = evaluator.cost_vector(layout, queries)
        assert len(vector) == 5
        for query, value in zip(queries, vector, strict=True):
            assert value == evaluator.query_cost(layout, query)

    def test_average_cost_empty_sample(self, simple_table):
        evaluator = CostEvaluator(simple_table)
        assert evaluator.average_cost(RoundRobinLayout(4), []) == 0.0

    def test_forget_evicts_layout(self, simple_table):
        evaluator = CostEvaluator(simple_table)
        layout = RoundRobinLayout(4)
        evaluator.query_cost(layout, Query(predicate=between("x", 0.0, 1.0)))
        assert evaluator.cache_sizes() == (1, 1)
        evaluator.forget(layout.layout_id)
        assert evaluator.cache_sizes() == (0, 0)

    def test_forget_keeps_other_layouts(self, simple_table):
        evaluator = CostEvaluator(simple_table)
        keep = RoundRobinLayout(4)
        drop = RoundRobinLayout(2)
        query = Query(predicate=between("x", 0.0, 1.0))
        evaluator.query_cost(keep, query)
        evaluator.query_cost(drop, query)
        evaluator.forget(drop.layout_id)
        assert evaluator.cache_sizes() == (1, 1)

    def test_forget_is_single_dict_pop(self, simple_table):
        """Regression: forget used to scan the whole query-cost cache."""
        evaluator = CostEvaluator(simple_table)
        layout = RoundRobinLayout(4)
        queries = [Query(predicate=between("x", float(i), float(i + 1))) for i in range(20)]
        evaluator.cost_vector(layout, queries)
        # The cache is keyed per layout: one pop drops all 20 entries at once.
        assert set(evaluator._query_costs) == {layout.layout_id}
        assert len(evaluator._query_costs[layout.layout_id]) == 20
        evaluator.forget(layout.layout_id)
        assert evaluator.cache_sizes() == (0, 0)

    def test_cost_matrix_rows_match_cost_vectors(self, simple_table, rng):
        evaluator = CostEvaluator(simple_table)
        layouts = [RoundRobinLayout(4), RangeLayoutBuilder("x").build(simple_table, [], 8, rng)]
        queries = [Query(predicate=between("x", float(i * 9), float(i * 9 + 12))) for i in range(6)]
        matrix = evaluator.cost_matrix(layouts, queries)
        assert matrix.shape == (2, 6)
        for row, layout in zip(matrix, layouts, strict=True):
            np.testing.assert_array_equal(row, evaluator.cost_vector(layout, queries))

    def test_cost_matrix_empty_layouts(self, simple_table):
        evaluator = CostEvaluator(simple_table)
        queries = [Query(predicate=between("x", 0.0, 1.0))]
        assert evaluator.cost_matrix([], queries).shape == (0, 1)

    def test_cost_vector_matches_unvectorized_metadata_walk(self, simple_table, rng):
        """The compiled fast path must equal the scalar oracle's numbers."""
        evaluator = CostEvaluator(simple_table)
        layout = RangeLayoutBuilder("x").build(simple_table, [], 8, rng)
        queries = [Query(predicate=between("x", float(i * 7), float(i * 7 + 5))) for i in range(10)]
        vector = evaluator.cost_vector(layout, queries)
        metadata = evaluator.metadata(layout)
        expected = np.array([metadata.accessed_fraction(q.predicate) for q in queries])
        np.testing.assert_array_equal(vector, expected)

    def test_costs_for_query_matches_query_cost(self, simple_table, rng):
        evaluator = CostEvaluator(simple_table)
        layouts = [RoundRobinLayout(4), RangeLayoutBuilder("x").build(simple_table, [], 8, rng)]
        query = Query(predicate=between("x", 5.0, 25.0))
        costs = evaluator.costs_for_query(layouts, query)
        assert costs == {
            layout.layout_id: evaluator.query_cost(layout, query) for layout in layouts
        }


class TestCacheChurn:
    """Eviction behavior under reorg churn: a long run that generates and
    retires layouts must keep every evaluator cache bounded."""

    def test_forget_under_generate_retire_churn(self, simple_table):
        evaluator = CostEvaluator(simple_table)
        queries = [Query(predicate=between("x", float(i * 3), float(i * 3 + 5))) for i in range(8)]
        survivors = []
        for round_index in range(30):
            layout = RoundRobinLayout(2 + round_index % 5)
            evaluator.cost_vector(layout, queries)
            survivors.append(layout.layout_id)
            if len(survivors) > 3:  # retire beyond a 3-state space
                evaluator.forget(survivors.pop(0))
        metadata_entries, cost_entries = evaluator.cache_sizes()
        assert metadata_entries == 3
        assert cost_entries == 3 * len(queries)
        # one index per surviving snapshot, owned by the snapshot
        assert set(evaluator._metadata) == set(survivors)

    def test_forget_unknown_layout_is_noop(self, simple_table):
        evaluator = CostEvaluator(simple_table)
        evaluator.forget("never-seen")
        assert evaluator.cache_sizes() == (0, 0)

    def test_forgotten_layout_recomputes_identically(self, simple_table):
        evaluator = CostEvaluator(simple_table)
        layout = RoundRobinLayout(4)
        query = Query(predicate=between("x", 10.0, 30.0))
        before = evaluator.query_cost(layout, query)
        evaluator.forget(layout.layout_id)
        assert evaluator.query_cost(layout, query) == before

    def test_compiled_workload_cache_bounded_lru(self, simple_table):
        evaluator = CostEvaluator(simple_table)
        layout = RoundRobinLayout(4)
        hot = [
            Query(predicate=between("x", 0.0, 5.0)),
            Query(predicate=between("y", 0.0, 5.0)),
        ]
        evaluator.cost_vector(layout, hot)
        hot_key = tuple(q.cache_key() for q in hot)
        assert hot_key in evaluator._compiled
        for i in range(CostEvaluator.COMPILED_CACHE_CAP + 10):
            fresh_layout = RoundRobinLayout(3)
            # A fresh two-query sample per round: mints compiled entries.
            evaluator.cost_vector(
                fresh_layout,
                [
                    Query(predicate=between("y", float(i), float(i) + 0.5)),
                    Query(predicate=between("x", float(i), float(i) + 0.5)),
                ],
            )
            # Evaluating the hot sample against a *new* layout re-reads the
            # compiled entry (costs are uncached there), refreshing its
            # LRU recency.
            evaluator.cost_vector(fresh_layout, hot)
        assert len(evaluator._compiled) <= CostEvaluator.COMPILED_CACHE_CAP
        assert hot_key in evaluator._compiled  # LRU keeps the hot sample

    def test_single_query_compilations_stay_out_of_the_lru(self, simple_table):
        """Per-stream-query misses must not churn the sample LRU: a long
        stream of distinct single queries would otherwise evict the
        expensive admission-sample compilations."""
        evaluator = CostEvaluator(simple_table)
        layout = RoundRobinLayout(4)
        sample = [
            Query(predicate=between("x", 0.0, 5.0)),
            Query(predicate=between("y", 0.0, 5.0)),
        ]
        evaluator.cost_matrix([layout], sample)
        assert len(evaluator._compiled) == 1
        for i in range(CostEvaluator.COMPILED_CACHE_CAP + 5):
            evaluator.costs_for_query(
                [layout], Query(predicate=between("x", float(i), float(i) + 0.25))
            )
        assert len(evaluator._compiled) == 1  # the sample is still compiled

    def test_compiled_workload_shared_across_layouts(self, simple_table, rng):
        """cost_matrix compiles the sample once for the whole state space."""
        evaluator = CostEvaluator(simple_table)
        queries = [Query(predicate=between("x", float(i * 9), float(i * 9 + 4))) for i in range(6)]
        layouts = [RoundRobinLayout(4), RoundRobinLayout(8),
                   RangeLayoutBuilder("x").build(simple_table, [], 8, rng)]
        evaluator.cost_matrix(layouts, queries)
        assert len(evaluator._compiled) == 1

    def test_forget_leaves_compiled_workloads_alone(self, simple_table):
        """Compiled samples are layout-independent: retiring a layout must
        not force recompiling the sample for the remaining states."""
        evaluator = CostEvaluator(simple_table)
        layout = RoundRobinLayout(4)
        queries = [
            Query(predicate=between("x", 0.0, 9.0)),
            Query(predicate=between("y", 0.0, 9.0)),
        ]
        evaluator.cost_vector(layout, queries)
        compiled_before = dict(evaluator._compiled)
        assert compiled_before
        evaluator.forget(layout.layout_id)
        assert evaluator._compiled == compiled_before


class TestStackedSlabLifetime:
    """A layout's place in the stacked state space follows its snapshot:
    the index is replaced when the snapshot is, and the layout leaves the
    stack only when it is forgotten."""

    def test_reregistering_replaces_stacked_index(self, simple_table):
        from repro.layouts.metadata import build_layout_metadata

        evaluator = CostEvaluator(simple_table)
        layout = RoundRobinLayout(4)
        queries = [Query(predicate=between("x", 0.0, 30.0))]
        evaluator.cost_matrix([layout], queries)  # stacks the layout
        assignment = np.random.default_rng(9).integers(0, 4, size=simple_table.num_rows)
        new_metadata = build_layout_metadata(simple_table, assignment)
        evaluator.register_metadata(layout.layout_id, new_metadata)
        assert evaluator.cache_sizes() == (1, 0)  # costs of the old snapshot dropped
        priced = evaluator.cost_matrix([layout], queries)
        assert len(evaluator._stacked) == 1  # replaced, not stacked twice
        assert evaluator._stacked.index_for(layout.layout_id) is new_metadata.zone_maps
        assert priced[0, 0] == new_metadata.accessed_fraction(queries[0].predicate)

    def test_forget_discards_stacked_slab(self, simple_table):
        evaluator = CostEvaluator(simple_table)
        layout = RoundRobinLayout(4)
        evaluator.cost_matrix([layout], [Query(predicate=between("x", 0.0, 5.0))])
        assert layout.layout_id in evaluator._stacked
        evaluator.forget(layout.layout_id)
        assert layout.layout_id not in evaluator._stacked
