"""Unit tests for the workload compiler's batched matrices.

``CompiledWorkload`` must be a bit-for-bit drop-in for both the
per-predicate ``ZoneMapIndex`` path and the scalar ``may_match``
oracle; these tests pin that equivalence on
hand-picked structures and every fallback edge (residue nodes, unknown
columns, string boundaries, unsupported predicate classes, constant
duplication, empty inputs).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.layouts import CompiledWorkload, ZoneMapIndex
from repro.layouts.metadata import (
    ColumnStats,
    LayoutMetadata,
    PartitionMetadata,
    build_layout_metadata,
)
from repro.queries import between, eq, ge, isin, le, lt, ne
from repro.queries.predicates import (
    AlwaysFalse,
    AlwaysTrue,
    And,
    Between,
    Comparison,
    In,
    Not,
    Or,
    Predicate,
)


def scalar_matrices(metadata, predicates):
    may = np.array(
        [[p.may_match(part) for part in metadata.partitions] for p in predicates],
        dtype=bool,
    ).reshape(len(predicates), len(metadata.partitions))
    all_ = np.array(
        [[p.matches_all(part) for part in metadata.partitions] for p in predicates],
        dtype=bool,
    ).reshape(len(predicates), len(metadata.partitions))
    return may, all_


def assert_all_paths_agree(metadata, predicates):
    """compiled == per-predicate == scalar oracle, may-match and fractions."""
    index = ZoneMapIndex(metadata)
    workload = CompiledWorkload(predicates)
    got_may = workload.prune_matrix(index)
    per_pred_may = index.prune_matrix(predicates)
    expected_may, _ = scalar_matrices(metadata, predicates)
    np.testing.assert_array_equal(got_may, per_pred_may)
    np.testing.assert_array_equal(got_may, expected_may)
    np.testing.assert_array_equal(
        workload.accessed_fractions(index),
        np.array([index.accessed_fraction(p) for p in predicates], dtype=np.float64),
    )


@pytest.fixture
def striped_metadata(simple_table):
    assignment = np.arange(simple_table.num_rows) % 6
    return build_layout_metadata(simple_table, assignment)


@pytest.fixture
def sorted_metadata(simple_table):
    order = np.argsort(simple_table["x"], kind="stable")
    assignment = np.empty(simple_table.num_rows, dtype=np.int64)
    assignment[order] = np.arange(simple_table.num_rows) * 8 // simple_table.num_rows
    return build_layout_metadata(simple_table, assignment)


CONJUNCTIVE_SAMPLE = [
    And((between("x", 10.0, 60.0), eq("color", 0))),
    And((lt("x", 30.0), ge("y", 10), ne("color", 2))),
    between("y", -5, 3),
    eq("color", 1),
    And((isin("color", [0, 2]), between("x", 0.0, 50.0))),
    le("x", 100.0),
    And((And((lt("x", 80.0), ge("x", 20.0))), eq("y", 7))),  # nested And
    AlwaysTrue(),
    AlwaysFalse(),
]


def test_conjunctive_sample_matches_all_paths(striped_metadata, sorted_metadata):
    assert_all_paths_agree(striped_metadata, CONJUNCTIVE_SAMPLE)
    assert_all_paths_agree(sorted_metadata, CONJUNCTIVE_SAMPLE)


def test_residue_or_not_trees_match(sorted_metadata):
    predicates = [
        Or((lt("x", 5.0), ge("x", 95.0))),
        Not(between("x", 0.0, 50.0)),
        And((Not(eq("color", 2)), Or((between("y", 0, 10), between("y", 40, 50))))),
        And((between("x", 20.0, 30.0), Not(isin("color", [1])))),
        Not(And((isin("color", [0, 1, 2]), between("y", 0, 50)))),
    ]
    assert_all_paths_agree(sorted_metadata, predicates)


def test_duplicate_atoms_within_one_query(sorted_metadata):
    """Same (column, op) twice in one conjunction exercises layered folding."""
    predicates = [
        And((lt("x", 50.0), lt("x", 30.0))),
        And((lt("x", 30.0), lt("x", 50.0))),
        And((between("x", 0.0, 40.0), between("x", 20.0, 90.0), lt("y", 30))),
        And((eq("color", 1), eq("color", 2))),  # unsatisfiable pair
    ]
    assert_all_paths_agree(sorted_metadata, predicates)


def test_repeated_constants_across_queries_dedup(sorted_metadata):
    """Segment-style workloads repeat constants; dedup must stay exact."""
    predicates = [eq("color", i % 3) for i in range(24)]
    predicates += [between("x", 10.0, 20.0)] * 8
    predicates += [And((eq("color", 0), between("x", 10.0, 20.0)))] * 5
    assert_all_paths_agree(sorted_metadata, predicates)


def test_unknown_column_never_pruned(striped_metadata):
    predicates = [
        between("nope", 0, 1),
        And((eq("nope", 3), between("x", 0.0, 50.0))),
        isin("nope", [1, 2]),
    ]
    assert_all_paths_agree(striped_metadata, predicates)
    matrix = CompiledWorkload([between("nope", 0, 1)]).prune_matrix(
        ZoneMapIndex(striped_metadata)
    )
    assert matrix.all()  # no stats => no pruning, soundly


def test_string_zone_boundaries_fall_back(simple_table):
    partitions = (
        PartitionMetadata(0, 10, {"s": ColumnStats("apple", "mango")}),
        PartitionMetadata(1, 10, {"s": ColumnStats("melon", "zebra")}),
    )
    metadata = LayoutMetadata(partitions=partitions)
    predicates = [
        Comparison("s", "<", "m"),
        And((Between("s", "a", "c"), Comparison("s", "!=", "b"))),
        In("s", ["apple", "zebra"]),
    ]
    assert_all_paths_agree(metadata, predicates)


def test_lossy_and_nan_constants_fall_back(sorted_metadata):
    big = 2**53
    predicates = [
        lt("x", big + 1),
        And((between("x", 0.0, float("inf")), lt("x", float("nan")))),
        eq("x", float("inf")),
        between("y", -float("inf"), 25),
    ]
    assert_all_paths_agree(sorted_metadata, predicates)


class OddEvenPredicate(Predicate):
    """A user-defined predicate the compiler cannot lower."""

    __slots__ = ("column",)

    def __init__(self, column: str):
        self.column = column

    def evaluate(self, columns):
        return columns[self.column] % 2 == 0

    def may_match(self, metadata):
        stats = metadata.stats.get(self.column)
        if stats is None or stats.distinct is None:
            return True
        return any(v % 2 == 0 for v in stats.distinct)

    def matches_all(self, metadata):
        stats = metadata.stats.get(self.column)
        if stats is None or stats.distinct is None:
            return False
        return all(v % 2 == 0 for v in stats.distinct)

    def columns(self):
        return frozenset((self.column,))

    def negate(self):
        return Not(self)

    def cache_key(self):
        return ("oddeven", self.column)


def test_unknown_predicate_class_is_residue(striped_metadata):
    custom = OddEvenPredicate("color")
    predicates = [
        custom,
        And((custom, between("x", 0.0, 50.0))),
        Not(custom),
    ]
    assert_all_paths_agree(striped_metadata, predicates)


def test_mixed_distinct_in_atoms_fall_back(rng):
    """IN over a column where only some partitions keep distinct sets."""
    from repro.layouts.metadata import DISTINCT_SET_CAP
    from repro.storage import ColumnSpec, Schema, Table

    vocab = tuple(f"v{i}" for i in range(DISTINCT_SET_CAP * 2))
    schema = Schema(columns=(ColumnSpec("c", "categorical", vocab),))
    narrow = np.repeat(np.arange(8, dtype=np.int32), 50)
    wide = rng.integers(0, len(vocab), size=4 * DISTINCT_SET_CAP).astype(np.int32)
    table = Table(schema, {"c": np.concatenate([narrow, wide])})
    assignment = np.concatenate(
        [np.zeros(len(narrow), dtype=np.int64), np.ones(len(wide), dtype=np.int64)]
    )
    metadata = build_layout_metadata(table, assignment)
    kinds = {p.partition_id: p.stats["c"].distinct is not None for p in metadata.partitions}
    assert kinds[0] and not kinds[1]
    predicates = [
        isin("c", [2, 40]),
        And((isin("c", [1, 3]), ne("c", 1))),
        eq("c", 3),
        eq("c", 100),
        Not(isin("c", list(range(8)))),
    ]
    assert_all_paths_agree(metadata, predicates)


def test_empty_sample_and_empty_layout(sorted_metadata):
    index = ZoneMapIndex(sorted_metadata)
    empty = CompiledWorkload([])
    assert empty.prune_matrix(index).shape == (0, sorted_metadata.num_partitions)
    assert empty.accessed_fractions(index).shape == (0,)

    empty_layout = ZoneMapIndex(LayoutMetadata(partitions=()))
    workload = CompiledWorkload([between("x", 0.0, 1.0), AlwaysTrue()])
    assert workload.prune_matrix(empty_layout).shape == (2, 0)
    np.testing.assert_array_equal(
        workload.accessed_fractions(empty_layout), np.zeros(2)
    )


def test_layout_independence(striped_metadata, sorted_metadata):
    """One compiled sample serves multiple layouts with exact results."""
    workload = CompiledWorkload(CONJUNCTIVE_SAMPLE)
    for metadata in (striped_metadata, sorted_metadata):
        index = ZoneMapIndex(metadata)
        np.testing.assert_array_equal(
            workload.prune_matrix(index), index.prune_matrix(CONJUNCTIVE_SAMPLE)
        )
