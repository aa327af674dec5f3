"""Unit tests for the columnar zone-map cost engine.

The compiled fast path must be a bit-for-bit drop-in for the scalar
``may_match`` / ``matches_all`` oracle; these tests pin the exact
equivalence on hand-picked structures, edge cases (empty layouts, unknown
columns, distinct-set caps), and the fallback for predicates the compiler
cannot lower.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.layouts import CompiledWorkload, ZoneMapIndex
from repro.layouts.metadata import (
    ColumnStats,
    DISTINCT_SET_CAP,
    LayoutMetadata,
    PartitionMetadata,
    build_layout_metadata,
)
from repro.queries import between, conjunction, eq, ge, isin, lt, ne
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


def scalar_masks(metadata, predicate):
    may = np.array([predicate.may_match(p) for p in metadata.partitions], dtype=bool)
    all_ = np.array([predicate.matches_all(p) for p in metadata.partitions], dtype=bool)
    return may, all_


def assert_equivalent(metadata, predicate):
    index = ZoneMapIndex(metadata)
    may, all_ = index.may_match_mask(predicate), index._mask(predicate, True)
    expected_may, expected_all = scalar_masks(metadata, predicate)
    np.testing.assert_array_equal(may, expected_may)
    np.testing.assert_array_equal(all_, expected_all)
    assert index.accessed_fraction(predicate) == metadata.accessed_fraction(predicate)


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


ATOMS = [
    between("x", 10.0, 20.0),
    between("y", -5, 3),
    eq("color", 1),
    ne("color", 2),
    lt("x", 0.5),
    ge("y", 49),
    isin("color", [0, 2]),
    isin("y", [1, 7, 12]),
    Comparison("x", "==", 42.0),
    Comparison("x", "<=", 100.0),
    Comparison("y", ">", 25),
    AlwaysTrue(),
    AlwaysFalse(),
]


@pytest.mark.parametrize("predicate", ATOMS, ids=repr)
def test_atoms_match_scalar_oracle(striped_metadata, sorted_metadata, predicate):
    assert_equivalent(striped_metadata, predicate)
    assert_equivalent(sorted_metadata, predicate)


def test_compound_trees_match_scalar_oracle(sorted_metadata):
    trees = [
        And((between("x", 10.0, 60.0), eq("color", 0))),
        Or((lt("x", 5.0), ge("x", 95.0), isin("color", [1]))),
        Not(between("x", 0.0, 50.0)),
        Not(And((isin("color", [0, 1, 2]), between("y", 0, 50)))),
        And((Not(eq("color", 2)), Or((between("y", 0, 10), between("y", 40, 50))))),
        conjunction([between("x", 20.0, 30.0), ne("y", 7)]),
    ]
    for predicate in trees:
        assert_equivalent(sorted_metadata, predicate)


def test_prune_matrix_shape_and_rows(sorted_metadata):
    index = ZoneMapIndex(sorted_metadata)
    predicates = [between("x", float(i * 10), float(i * 10 + 15)) for i in range(5)]
    matrix = index.prune_matrix(predicates)
    assert matrix.shape == (5, sorted_metadata.num_partitions)
    for row, predicate in zip(matrix, predicates, strict=True):
        np.testing.assert_array_equal(row, scalar_masks(sorted_metadata, predicate)[0])


def test_accessed_fractions_batched_equals_scalar(sorted_metadata):
    index = ZoneMapIndex(sorted_metadata)
    predicates = [between("x", float(i), float(i + 7)) for i in range(0, 90, 9)]
    fractions = CompiledWorkload(predicates).accessed_fractions(index)
    expected = np.array([sorted_metadata.accessed_fraction(p) for p in predicates])
    np.testing.assert_array_equal(fractions, expected)


def test_empty_layout():
    metadata = LayoutMetadata(partitions=())
    index = ZoneMapIndex(metadata)
    predicate = between("x", 0.0, 1.0)
    assert index.may_match_mask(predicate).shape == (0,)
    assert index.accessed_fraction(predicate) == 0.0
    assert index.prune_matrix([predicate]).shape == (1, 0)
    assert CompiledWorkload([]).accessed_fractions(index).shape == (0,)


def test_unknown_column_is_never_pruned(striped_metadata):
    for predicate in (
        between("nope", 0, 1),
        eq("nope", 3),
        isin("nope", [1, 2]),
        Not(eq("nope", 3)),
    ):
        assert_equivalent(striped_metadata, predicate)
        may = ZoneMapIndex(striped_metadata).may_match_mask(predicate)
        assert may.all()  # no stats => no pruning, soundly


def test_column_missing_from_some_partitions_only():
    """Hand-built metadata where a column has stats in one partition only."""
    partitions = (
        PartitionMetadata(0, 10, {"a": ColumnStats(0.0, 5.0)}),
        PartitionMetadata(1, 10, {"a": ColumnStats(6.0, 9.0), "b": ColumnStats(1.0, 2.0)}),
    )
    metadata = LayoutMetadata(partitions=partitions)
    for predicate in (between("b", 0.0, 0.5), eq("b", 1.5), Not(between("b", 0.0, 3.0))):
        assert_equivalent(metadata, predicate)


def test_distinct_sets_beyond_cap_fall_back_to_minmax(rng):
    """Partitions whose distinct set exceeds the cap prune by min/max only."""
    from repro.storage import ColumnSpec, Schema, Table

    vocab = tuple(f"v{i}" for i in range(DISTINCT_SET_CAP * 3))
    schema = Schema(columns=(ColumnSpec("c", "categorical", vocab),))
    n = 4000
    table = Table(
        schema, {"c": rng.integers(0, len(vocab), size=n).astype(np.int32)}
    )
    assignment = np.arange(n) % 4  # each partition sees ~all codes: no distinct sets
    metadata = build_layout_metadata(table, assignment)
    assert all(p.stats["c"].distinct is None for p in metadata.partitions)
    for predicate in (eq("c", 5), isin("c", [1, 100]), ne("c", 0)):
        assert_equivalent(metadata, predicate)


def test_mixed_distinct_and_minmax_partitions(rng):
    """Some partitions carry distinct sets, others only min/max."""
    from repro.storage import ColumnSpec, Schema, Table

    vocab = tuple(f"v{i}" for i in range(DISTINCT_SET_CAP * 2))
    schema = Schema(columns=(ColumnSpec("c", "categorical", vocab),))
    narrow = np.repeat(np.arange(8, dtype=np.int32), 50)  # distinct set kept
    wide = rng.integers(0, len(vocab), size=4 * DISTINCT_SET_CAP).astype(np.int32)
    values = np.concatenate([narrow, wide])
    assignment = np.concatenate(
        [np.zeros(len(narrow), dtype=np.int64), np.ones(len(wide), dtype=np.int64)]
    )
    table = Table(schema, {"c": values})
    metadata = build_layout_metadata(table, assignment)
    kinds = {p.partition_id: p.stats["c"].distinct is not None for p in metadata.partitions}
    assert kinds[0] and not kinds[1]
    for predicate in (eq("c", 3), eq("c", 9), isin("c", [2, 40]), Not(isin("c", list(range(8))))):
        assert_equivalent(metadata, predicate)


def test_values_absent_from_every_distinct_set():
    partitions = (
        PartitionMetadata(0, 10, {"c": ColumnStats(0, 5, frozenset({0, 2, 5}))}),
        PartitionMetadata(1, 10, {"c": ColumnStats(1, 7, frozenset({1, 3, 7}))}),
    )
    metadata = LayoutMetadata(partitions=partitions)
    for predicate in (eq("c", 4), isin("c", [4, 6]), ne("c", 4), Not(eq("c", 2))):
        assert_equivalent(metadata, predicate)
    assert not ZoneMapIndex(metadata).may_match_mask(eq("c", 4)).any()


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


def test_unknown_predicate_type_falls_back_to_scalar_oracle():
    partitions = (
        PartitionMetadata(0, 10, {"c": ColumnStats(0, 4, frozenset({0, 2, 4}))}),
        PartitionMetadata(1, 10, {"c": ColumnStats(1, 5, frozenset({1, 3, 5}))}),
        PartitionMetadata(2, 10, {"c": ColumnStats(0, 9)}),
    )
    metadata = LayoutMetadata(partitions=partitions)
    custom = OddEvenPredicate("c")
    assert_equivalent(metadata, custom)
    # Also when nested inside compiled combinators.
    assert_equivalent(metadata, And((custom, between("c", 0, 9))))
    assert_equivalent(metadata, Not(custom))


def test_float64_lossy_values_fall_back_to_scalar_oracle():
    """Regression: ints >= 2**53 don't round-trip through float64; casting
    them made pruning unsound (may_match False where the oracle says True)."""
    big = 2**53
    partitions = (
        PartitionMetadata(0, 10, {"x": ColumnStats(big, big)}),
        PartitionMetadata(1, 10, {"x": ColumnStats(0, 100)}),
    )
    metadata = LayoutMetadata(partitions=partitions)
    for predicate in (
        lt("x", big + 1),  # scalar: partition 0 may match (big < big + 1)
        eq("x", big + 1),
        between("x", big - 1, big + 1),
        Not(lt("x", big + 1)),
    ):
        assert_equivalent(metadata, predicate)
    assert ZoneMapIndex(metadata).may_match_mask(lt("x", big + 1))[0]


def test_float64_lossy_distinct_values_fall_back_exactly():
    """Distinct-set bitmaps must not collapse adjacent huge ints."""
    big = 2**53
    partitions = (
        PartitionMetadata(0, 10, {"c": ColumnStats(0, 2**54, frozenset({0, big + 1, 2**54}))}),
        PartitionMetadata(1, 10, {"c": ColumnStats(0, 2**54, frozenset({0, 2**54}))}),
    )
    metadata = LayoutMetadata(partitions=partitions)
    for predicate in (eq("c", big + 1), isin("c", [big + 1]), Not(isin("c", [0]))):
        assert_equivalent(metadata, predicate)


def test_non_numeric_zone_boundaries_fall_back_to_scalar_oracle():
    partitions = (
        PartitionMetadata(0, 10, {"s": ColumnStats("apple", "mango")}),
        PartitionMetadata(1, 10, {"s": ColumnStats("melon", "zebra")}),
    )
    metadata = LayoutMetadata(partitions=partitions)
    for predicate in (
        Comparison("s", "<", "m"),
        Between("s", "a", "c"),
        In("s", ["apple", "zebra"]),
    ):
        assert_equivalent(metadata, predicate)


def test_row_weighting_matches_oracle():
    partitions = (
        PartitionMetadata(0, 1, {"a": ColumnStats(0.0, 1.0)}),
        PartitionMetadata(1, 999, {"a": ColumnStats(2.0, 3.0)}),
    )
    metadata = LayoutMetadata(partitions=partitions)
    index = ZoneMapIndex(metadata)
    predicate = between("a", 0.0, 0.5)
    assert index.accessed_fraction(predicate) == pytest.approx(0.001)
    assert index.accessed_fraction(predicate) == metadata.accessed_fraction(predicate)


def test_relevant_partition_ids_matches_relevant_partitions(sorted_metadata):
    index = ZoneMapIndex(sorted_metadata)
    predicate = between("x", 30.0, 45.0)
    expected = {p.partition_id for p in sorted_metadata.relevant_partitions(predicate)}
    assert index.relevant_partition_ids(predicate) == expected


def test_masks_are_cached_per_predicate_identity(sorted_metadata):
    index = ZoneMapIndex(sorted_metadata)
    first = index.may_match_mask(between("x", 0.0, 10.0))
    second = index.may_match_mask(between("x", 0.0, 10.0))
    assert first is second


def test_mask_cache_is_bounded(sorted_metadata):
    """A stream minting a fresh predicate per query must not grow the cache
    without limit (the cost path memoizes floats upstream instead)."""
    index = ZoneMapIndex(sorted_metadata)
    for i in range(ZoneMapIndex.MASK_CACHE_CAP * 2 + 5):
        index.may_match_mask(between("x", float(i), float(i) + 0.5))
    assert len(index._may_cache) <= ZoneMapIndex.MASK_CACHE_CAP


def test_cost_entry_points_do_not_populate_mask_cache(sorted_metadata):
    index = ZoneMapIndex(sorted_metadata)
    index.accessed_fraction(between("x", 0.0, 10.0))
    index.prune_matrix([between("x", 40.0, 50.0)])
    assert not index._may_cache


def test_mask_cache_lru_keeps_hot_entries(sorted_metadata):
    """Regression: the caches used to clear wholesale at the cap, evicting
    the hot working set along with the one-off predicates.  Eviction is
    now LRU: a predicate re-read between fresh insertions must survive a
    stream of MASK_CACHE_CAP new predicates."""
    index = ZoneMapIndex(sorted_metadata)
    hot = between("x", 0.0, 10.0)
    hot_mask = index.may_match_mask(hot)
    for i in range(ZoneMapIndex.MASK_CACHE_CAP * 2):
        index.may_match_mask(between("x", float(i), float(i) + 0.5))
        assert index.may_match_mask(hot) is hot_mask  # still cached, same array
    assert len(index._may_cache) <= ZoneMapIndex.MASK_CACHE_CAP


def test_mask_cache_evicts_oldest_first(sorted_metadata):
    index = ZoneMapIndex(sorted_metadata)
    first = between("x", 0.0, 1.0)
    index.may_match_mask(first)
    # Fill to the cap without touching `first` again: it is the oldest.
    for i in range(ZoneMapIndex.MASK_CACHE_CAP):
        index.may_match_mask(between("y", float(i), float(i) + 0.5))
    assert first.cache_key() not in index._may_cache
    assert len(index._may_cache) <= ZoneMapIndex.MASK_CACHE_CAP


def test_snapshot_owns_one_index_and_refcount_alone_frees_it(simple_table):
    """``LayoutMetadata.zone_maps`` is the snapshot's one index, and the
    index holds no reference back: a snapshot⇄index cycle would only be
    freed by the generational collector (RSS grows between collections)."""
    metadata = build_layout_metadata(simple_table, np.arange(simple_table.num_rows) % 6)
    assert metadata.zone_maps is metadata.zone_maps
    assert_equivalent(metadata, between("x", 10.0, 20.0))
    np.testing.assert_array_equal(
        metadata.zone_maps.may_match_mask(eq("color", 1)),
        ZoneMapIndex(metadata).may_match_mask(eq("color", 1)),
    )
    index = weakref.ref(metadata.zone_maps)
    gc.disable()
    try:
        del metadata
        assert index() is None
    finally:
        gc.enable()
