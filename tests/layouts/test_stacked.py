"""Unit tests for the stacked state space (3-D batched evaluation).

The contract: for every live layout, the tensor slice
``prune_tensor(compiled)[i, :, :P_i]`` is bit-for-bit the per-layout
``compiled.prune_matrix(index_i)`` (and hence the scalar oracle), across
ragged partition counts, residue layouts, removals and re-adds, width
growth and shrinkage, index replacement, and shared-union bitmap
re-coding.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CostEvaluator
from repro.layouts import (
    CompiledWorkload,
    HashLayoutBuilder,
    QdTreeBuilder,
    RangeLayoutBuilder,
    RoundRobinLayout,
    StackedStateSpace,
    ZOrderLayoutBuilder,
    ZoneMapIndex,
)
from repro.layouts.metadata import (
    ColumnStats,
    LayoutMetadata,
    PartitionMetadata,
    build_layout_metadata,
)
from repro.queries import Query, between, eq, ge, isin, lt, ne
from repro.queries.predicates import And, Comparison, Not, Or
from repro.storage import ColumnSpec, Schema, Table

_SCHEMA = Schema(
    columns=(
        ColumnSpec("a", "numeric"),
        ColumnSpec("b", "numeric"),
        ColumnSpec("c", "categorical", tuple(f"v{i}" for i in range(8))),
    )
)

_PROBES = [
    between("a", -10, 10),
    lt("b", 20.0),
    ge("a", 0),
    eq("c", 3),
    ne("c", 1),
    isin("c", [0, 5, 7]),
    And((between("b", 0.0, 30.0), eq("c", 2))),
    Or((lt("a", -15), ge("a", 15))),
    Not(between("a", -5, 5)),
    eq("a", 3),
    eq("a", 3),  # duplicate atom: exercises the dedup plan
    lt("missing", 7.0),
]


def make_table(seed: int, n: int = 400) -> Table:
    rng = np.random.default_rng(seed)
    return Table(
        _SCHEMA,
        {
            "a": rng.integers(-20, 21, size=n).astype(np.int64),
            "b": rng.uniform(-5.0, 45.0, size=n),
            "c": rng.integers(0, 8, size=n).astype(np.int32),
        },
    )


def random_index(table: Table, seed: int, parts: int) -> ZoneMapIndex:
    assignment = np.random.default_rng(seed).integers(0, parts, size=table.num_rows)
    return ZoneMapIndex(build_layout_metadata(table, assignment))


def assert_stack_matches(stack: StackedStateSpace, compiled: CompiledWorkload):
    """Every live slice equals the per-layout compiled pass, bit for bit."""
    ids = stack.layout_ids
    may = stack.prune_tensor(compiled)
    fractions = stack.fractions_tensor(may)
    assert may.shape == (len(ids), compiled.num_queries, stack.partition_width)
    assert stack.partition_width == max(
        (stack.index_for(layout_id).num_partitions for layout_id in ids), default=0
    )
    for position, layout_id in enumerate(ids):
        index = stack.index_for(layout_id)
        num = index.num_partitions
        np.testing.assert_array_equal(
            may[position, :, :num], compiled.prune_matrix(index)
        )
        np.testing.assert_array_equal(
            fractions[position], compiled.accessed_fractions(index)
        )


class TestEquivalence:
    def test_ragged_partition_counts(self):
        table = make_table(0)
        stack = StackedStateSpace()
        for i, parts in enumerate([4, 9, 2, 16, 1]):
            stack.add_layout(f"L{i}", random_index(table, i, parts))
        assert_stack_matches(stack, CompiledWorkload(_PROBES))

    def test_single_layout_stack(self):
        table = make_table(1)
        stack = StackedStateSpace({"only": random_index(table, 1, 6)})
        assert len(stack) == 1
        assert_stack_matches(stack, CompiledWorkload(_PROBES))

    def test_sixty_four_layout_stack(self):
        table = make_table(2, n=200)
        stack = StackedStateSpace(
            {f"L{i}": random_index(table, i, 1 + i % 11) for i in range(64)}
        )
        assert len(stack) == 64
        assert_stack_matches(stack, CompiledWorkload(_PROBES))

    def test_builder_layout_mix(self):
        """qd-tree / range / hash / z-order layouts stacked together."""
        table = make_table(3)
        rng = np.random.default_rng(3)
        workload = [Query(predicate=p) for p in _PROBES[:6]]
        builders = [
            QdTreeBuilder(),
            RangeLayoutBuilder("a"),
            HashLayoutBuilder("c"),
            ZOrderLayoutBuilder(num_columns=2, default_columns=("a", "b")),
        ]
        stack = StackedStateSpace()
        for builder in builders:
            layout = builder.build(table, workload, 6, rng)
            stack.add_layout(layout.layout_id, ZoneMapIndex(layout.metadata_for(table)))
        assert_stack_matches(stack, CompiledWorkload(_PROBES))

    def test_repeat_evaluations_are_stable(self):
        """Scratch-buffer reuse must not leak state between evaluations."""
        table = make_table(4)
        stack = StackedStateSpace(
            {f"L{i}": random_index(table, 10 + i, 5 + i) for i in range(3)}
        )
        first = CompiledWorkload(_PROBES)
        other = CompiledWorkload([eq("c", 5), between("b", 10.0, 12.0)])
        before = stack.prune_tensor(first).copy()
        assert_stack_matches(stack, other)
        assert_stack_matches(stack, first)
        np.testing.assert_array_equal(stack.prune_tensor(first), before)

    def test_empty_workload_and_empty_stack(self):
        table = make_table(5)
        compiled = CompiledWorkload([])
        stack = StackedStateSpace()
        assert stack.prune_tensor(compiled).shape == (0, 0, 0)
        stack.add_layout("L0", random_index(table, 0, 4))
        tensor = stack.prune_tensor(compiled)
        assert tensor.shape == (1, 0, stack.partition_width)
        assert_stack_matches(stack, compiled)

    def test_zero_partition_layout(self):
        empty = ZoneMapIndex(LayoutMetadata(partitions=()))
        stack = StackedStateSpace({"empty": empty})
        compiled = CompiledWorkload(_PROBES)
        assert stack.prune_tensor(compiled).shape == (1, len(_PROBES), 0)
        np.testing.assert_array_equal(
            stack.fractions_tensor(stack.prune_tensor(compiled))[0],
            np.zeros(len(_PROBES)),
        )


class TestResidueLayouts:
    def test_string_column_falls_back_per_layout(self):
        """String-statted columns make a layout a residue layout for the
        predicates touching them: evaluated per layout, still exact."""
        stringy = LayoutMetadata(
            partitions=(
                PartitionMetadata(0, 7, {"s": ColumnStats("apple", "mango")}),
                PartitionMetadata(1, 4, {"s": ColumnStats("melon", "zebra")}),
            )
        )
        other = LayoutMetadata(
            partitions=(
                PartitionMetadata(0, 6, {"s": ColumnStats("aa", "cc")}),
                PartitionMetadata(1, 5, {}),
            )
        )
        compiled = CompiledWorkload(
            [Comparison("s", "<", "m"), Comparison("s", "==", "melon")]
        )
        stack = StackedStateSpace({"str1": ZoneMapIndex(stringy)})
        stack.add_layout("str2", ZoneMapIndex(other))
        assert_stack_matches(stack, compiled)

    def test_shared_union_recode_across_layouts(self):
        """Distinct unions differ per layout: bitmaps re-code onto one union."""
        first = LayoutMetadata(
            partitions=(
                PartitionMetadata(0, 10, {"c": ColumnStats(1, 3, frozenset({1, 3}))}),
                PartitionMetadata(1, 10, {"c": ColumnStats(2, 2, frozenset({2}))}),
            )
        )
        second = LayoutMetadata(
            partitions=(
                PartitionMetadata(0, 7, {"c": ColumnStats(3, 9, frozenset({3, 9}))}),
                PartitionMetadata(1, 4, {"c": ColumnStats(5, 5, frozenset({5}))}),
            )
        )
        no_values = LayoutMetadata(  # a bitmap with zero words
            partitions=(
                PartitionMetadata(0, 3, {"c": ColumnStats(1, 2, frozenset())}),
                PartitionMetadata(1, 0, {"c": ColumnStats(1, 1, frozenset())}),
            )
        )
        compiled = CompiledWorkload(
            [eq("c", 3), ne("c", 9), isin("c", [2, 5]), isin("c", [1, 9])]
        )
        stack = StackedStateSpace(
            {"A": ZoneMapIndex(first), "B": ZoneMapIndex(second)}
        )
        assert_stack_matches(stack, compiled)
        assert_stack_matches(StackedStateSpace({"none": ZoneMapIndex(no_values)}), compiled)

    def test_column_missing_from_some_layouts(self):
        with_b = LayoutMetadata(
            partitions=(PartitionMetadata(0, 10, {"b": ColumnStats(0.0, 9.0)}),)
        )
        without_b = LayoutMetadata(
            partitions=(PartitionMetadata(0, 10, {"a": ColumnStats(0.0, 9.0)}),)
        )
        compiled = CompiledWorkload([between("b", 1.0, 2.0), eq("b", 5)])
        stack = StackedStateSpace(
            {"with": ZoneMapIndex(with_b), "without": ZoneMapIndex(without_b)}
        )
        assert_stack_matches(stack, compiled)


class TestMaintenance:
    def test_adds_and_width_growth_stay_exact(self):
        table = make_table(6)
        stack = StackedStateSpace({"L0": random_index(table, 0, 6)})
        compiled = CompiledWorkload(_PROBES)
        stack.prune_tensor(compiled)  # zones built before the adds
        stack.add_layout("L1", random_index(table, 1, 6))
        stack.add_layout("wide", random_index(table, 2, 24))  # grows the width
        assert stack.partition_width >= 24
        assert_stack_matches(stack, compiled)

    def test_removals_and_readds_stay_exact(self):
        table = make_table(7)
        stack = StackedStateSpace(
            {f"L{i}": random_index(table, i, 4 + i) for i in range(5)}
        )
        compiled = CompiledWorkload(_PROBES)
        stack.prune_tensor(compiled)
        stack.remove_layout("L1")
        assert "L1" not in stack
        assert_stack_matches(stack, compiled)
        stack.remove_layout("L3")
        stack.remove_layout("L0")
        assert stack.layout_ids == ["L2", "L4"]
        assert_stack_matches(stack, compiled)
        stack.add_layout("L5", random_index(table, 50, 3))
        assert_stack_matches(stack, compiled)

    def test_remove_unknown_raises(self):
        stack = StackedStateSpace()
        with pytest.raises(KeyError):
            stack.remove_layout("nope")
        stack.discard("nope")  # no-op by contract

    def test_duplicate_add_raises(self):
        table = make_table(8)
        stack = StackedStateSpace({"L0": random_index(table, 0, 4)})
        with pytest.raises(ValueError):
            stack.add_layout("L0", random_index(table, 1, 4))

    def test_unknown_layout_id_in_tensor_raises(self):
        table = make_table(9)
        stack = StackedStateSpace({"L0": random_index(table, 0, 4)})
        with pytest.raises(KeyError):
            stack.prune_tensor(CompiledWorkload(_PROBES), ["ghost"])

    def test_update_layout_stays_exact(self):
        table = make_table(10)
        stack = StackedStateSpace(
            {"L0": random_index(table, 0, 6), "L1": random_index(table, 1, 6)}
        )
        compiled = CompiledWorkload(_PROBES)
        stack.prune_tensor(compiled)  # zones built, the update must drop them
        replacement = random_index(table, 99, 10)
        stack.update_layout("L0", replacement)
        assert stack.layout_ids == ["L0", "L1"]  # position kept
        assert stack.index_for("L0") is replacement
        assert_stack_matches(stack, compiled)
        stack.update_layout("L0", random_index(table, 7, 3))  # narrower again
        assert stack.partition_width == 6
        assert_stack_matches(stack, compiled)
        with pytest.raises(KeyError):
            stack.update_layout("ghost", replacement)

    def test_layout_subset_selection(self):
        table = make_table(11)
        stack = StackedStateSpace(
            {f"L{i}": random_index(table, i, 5) for i in range(4)}
        )
        compiled = CompiledWorkload(_PROBES)
        subset = stack.prune_tensor(compiled, ["L2", "L0"])
        assert subset.shape[0] == 2
        np.testing.assert_array_equal(
            subset[0, :, : stack.index_for("L2").num_partitions],
            compiled.prune_matrix(stack.index_for("L2")),
        )
        np.testing.assert_array_equal(
            subset[1, :, : stack.index_for("L0").num_partitions],
            compiled.prune_matrix(stack.index_for("L0")),
        )


class TestFusedFractionContraction:
    """The fused einsum contraction equals the per-layout matvec, bit for bit."""

    def _fractions_per_layout(self, stack, compiled, ids):
        out = np.zeros((len(ids), compiled.num_queries), dtype=np.float64)
        for row, layout_id in enumerate(ids):
            index = stack.index_for(layout_id)
            out[row] = compiled.accessed_fractions(index)
        return out

    def _fused(self, stack, compiled):
        return stack.fractions_tensor(stack.prune_tensor(compiled))

    def _assert_cost_matrix_exact(self, table, parts, probes):
        """``CostEvaluator.cost_matrix`` prices every layout of a fresh
        stack exactly as the per-layout compiled fractions do."""
        evaluator = CostEvaluator(None)
        layouts = []
        for seed, num in enumerate(parts):
            layout = RoundRobinLayout(num, layout_id=f"L{seed}")
            assignment = np.random.default_rng(seed).integers(0, num, size=table.num_rows)
            evaluator.register_metadata(
                layout.layout_id, build_layout_metadata(table, assignment)
            )
            layouts.append(layout)
        priced = evaluator.cost_matrix(layouts, [Query(predicate=p) for p in probes])
        compiled = CompiledWorkload(probes)
        expected = [compiled.accessed_fractions(evaluator.zone_maps(l)) for l in layouts]
        np.testing.assert_array_equal(priced, np.array(expected))

    def test_narrow_sample_takes_fused_path(self):
        probes = _PROBES[:3]  # at or below the cutoff
        assert len(probes) <= CostEvaluator.FUSED_FRACTION_QUERY_CUTOFF
        self._assert_cost_matrix_exact(make_table(20), [3, 4, 5, 6, 7], probes)

    def test_wide_sample_takes_loop_path(self):
        probes = _PROBES + [between("a", float(i), float(i + 2)) for i in range(10)]
        assert len(probes) > CostEvaluator.FUSED_FRACTION_QUERY_CUTOFF
        self._assert_cost_matrix_exact(make_table(21), [4, 4, 4], probes)

    def test_fractions_tensor_direct(self):
        table = make_table(22)
        stack = StackedStateSpace(
            {f"L{i}": random_index(table, i, 2 + 3 * i) for i in range(4)}
        )
        compiled = CompiledWorkload(_PROBES)
        ids = ["L2", "L0"]  # subset, out of insertion order
        tensor = stack.prune_tensor(compiled, ids)
        np.testing.assert_array_equal(
            stack.fractions_tensor(tensor, ids),
            self._fractions_per_layout(stack, compiled, ids),
        )

    def test_fused_path_after_tombstones(self):
        """Removing a layout drops the row counts the fused path caches."""
        table = make_table(23)
        stack = StackedStateSpace(
            {f"L{i}": random_index(table, i, 4) for i in range(4)}
        )
        compiled = CompiledWorkload(_PROBES[:2])
        self._fused(stack, compiled)  # warm the counts cache
        stack.remove_layout("L1")
        np.testing.assert_array_equal(
            self._fused(stack, compiled),
            self._fractions_per_layout(stack, compiled, stack.layout_ids),
        )
        # growth after removal drops the cached counts too
        stack.add_layout("wide", random_index(table, 50, 9))
        np.testing.assert_array_equal(
            self._fused(stack, compiled),
            self._fractions_per_layout(stack, compiled, stack.layout_ids),
        )

    def test_empty_layout_yields_zero_rows(self):
        table = make_table(24)
        empty = ZoneMapIndex(LayoutMetadata(partitions=()))
        stack = StackedStateSpace(
            {"live": random_index(table, 0, 4), "empty": empty}
        )
        compiled = CompiledWorkload(_PROBES[:3])
        fractions = self._fused(stack, compiled)
        position = stack.layout_ids.index("empty")
        np.testing.assert_array_equal(
            fractions[position], np.zeros(compiled.num_queries)
        )
        assert_stack_matches(stack, compiled)
