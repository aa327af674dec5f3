"""Incremental zone-map maintenance: deltas and ``apply_reorg``.

The contract under test: however a reorganization sequence unfolds, an
index maintained through ``apply_reorg`` must be *behaviorally
indistinguishable* from a fresh ``ZoneMapIndex`` on the final metadata —
same masks, same fractions, same compiled-workload matrices — while a
delta must classify exactly the partitions whose content changed.

A hypothesis state machine drives random reorganization sequences
(partition swaps, splits, merges, full shuffles) and checks the
equivalence after every step, with predicates evaluated *before* the
step so carried columns are exercised, not lazily recompiled.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from hypothesis import strategies as st

from repro.layouts import (
    CompiledWorkload,
    ZoneMapIndex,
    compute_reorg_delta,
    compute_reorg_delta_from_assignments,
)
from repro.layouts.metadata import (
    ColumnStats,
    LayoutMetadata,
    PartitionMetadata,
    build_layout_metadata,
)
from repro.queries import between, eq, ge, isin, lt, ne
from repro.queries.predicates import And, Not, Or
from repro.storage import ColumnSpec, Schema, Table

_SCHEMA = Schema(
    columns=(
        ColumnSpec("a", "numeric"),
        ColumnSpec("b", "numeric"),
        ColumnSpec("c", "categorical", tuple(f"v{i}" for i in range(8))),
    )
)

#: evaluated every step: comparisons, ranges, IN, residue Or/Not — enough
#: to compile (and therefore carry) every column in both mask directions
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


def assert_index_equals_fresh(index: ZoneMapIndex, metadata: LayoutMetadata):
    fresh = ZoneMapIndex(metadata)
    for probe in _PROBES:
        np.testing.assert_array_equal(index._mask(probe, False), fresh._mask(probe, False))
        np.testing.assert_array_equal(index._mask(probe, True), fresh._mask(probe, True))
        assert index.accessed_fraction(probe) == fresh.accessed_fraction(probe)
    np.testing.assert_array_equal(index.row_counts, fresh.row_counts)
    assert index.total_rows == fresh.total_rows


class ReorgMachine(RuleBasedStateMachine):
    """Random reorg sequences; incremental index checked after every step."""

    @initialize(seed=st.integers(0, 1_000))
    def setup(self, seed):
        self.rng = np.random.default_rng(seed)
        self.table = make_table(seed)
        self.assignment = self.rng.integers(0, 8, size=self.table.num_rows)
        self.metadata = build_layout_metadata(self.table, self.assignment)
        self.index = ZoneMapIndex(self.metadata)
        self.workload = CompiledWorkload(_PROBES)
        self._warm()

    def _warm(self):
        """Compile columns *before* the next reorg so carrying is exercised."""
        self.prior = self.workload.prune_matrix(self.index)
        for probe in _PROBES:
            self.index.masks(probe)

    def _apply(self, new_assignment):
        new_metadata = build_layout_metadata(self.table, new_assignment)
        delta = compute_reorg_delta_from_assignments(
            self.metadata, new_metadata, self.assignment, new_assignment
        )
        # The assignment-derived delta must agree with the metadata diff.
        reference = compute_reorg_delta(self.metadata, new_metadata)
        assert set(delta.changed) >= set(reference.changed)
        carried = dict(zip(delta.carried_new.tolist(), delta.carried_old.tolist(), strict=True))
        reference_carried = dict(
            zip(reference.carried_new.tolist(), reference.carried_old.tolist(), strict=True)
        )
        for new_pos, old_pos in carried.items():
            assert reference_carried.get(new_pos) == old_pos
        new_index = self.index.apply_reorg(delta)
        # Incremental revalidation of the compiled workload matches too.
        revalidated = self.workload.revalidate(new_index, delta, self.prior)
        np.testing.assert_array_equal(
            revalidated, self.workload.prune_matrix(ZoneMapIndex(new_metadata))
        )
        self.assignment = new_assignment
        self.metadata = new_metadata
        self.index = new_index
        self._warm()

    @rule(ids=st.lists(st.integers(0, 7), min_size=1, max_size=3, unique=True), seed=st.integers(0, 10_000))
    def swap_rows_between_partitions(self, ids, seed):
        new_assignment = self.assignment.copy()
        member = np.isin(self.assignment, ids)
        if member.any():
            new_assignment[member] = np.random.default_rng(seed).choice(
                ids, size=int(member.sum())
            )
        self._apply(new_assignment)

    @rule(source=st.integers(0, 7), sink=st.integers(8, 11))
    def split_partition(self, source, sink):
        new_assignment = self.assignment.copy()
        member = np.flatnonzero(self.assignment == source)
        new_assignment[member[::2]] = sink
        self._apply(new_assignment)

    @rule(victim=st.integers(0, 11), into=st.integers(0, 7))
    def merge_partition(self, victim, into):
        if victim == into:
            return
        new_assignment = self.assignment.copy()
        new_assignment[self.assignment == victim] = into
        self._apply(new_assignment)

    @rule(seed=st.integers(0, 10_000), parts=st.integers(2, 12))
    def full_shuffle(self, seed, parts):
        new_assignment = np.random.default_rng(seed).integers(
            0, parts, size=self.table.num_rows
        )
        self._apply(new_assignment)

    @invariant()
    def incremental_matches_fresh(self):
        if hasattr(self, "index"):
            assert_index_equals_fresh(self.index, self.metadata)


TestReorgMachine = ReorgMachine.TestCase
TestReorgMachine.settings = settings(
    max_examples=25, stateful_step_count=12, deadline=None
)


class TestDeltaUnits:
    def test_identity_reorg_carries_everything(self, simple_table):
        assignment = np.arange(simple_table.num_rows) % 5
        old = build_layout_metadata(simple_table, assignment)
        new = build_layout_metadata(simple_table, assignment)
        delta = compute_reorg_delta(old, new)
        assert delta.changed == ()
        assert delta.change_fraction == 0.0
        assert len(delta.carried_new) == old.num_partitions

    def test_full_rewrite_changes_everything(self, simple_table, rng):
        old = build_layout_metadata(simple_table, np.arange(simple_table.num_rows) % 5)
        new = build_layout_metadata(
            simple_table, rng.integers(0, 5, size=simple_table.num_rows)
        )
        delta = compute_reorg_delta(old, new)
        assert len(delta.changed) == new.num_partitions
        assert delta.change_fraction == 1.0

    def test_new_partition_id_is_changed(self, simple_table):
        assignment = np.arange(simple_table.num_rows) % 4
        old = build_layout_metadata(simple_table, assignment)
        grown = assignment.copy()
        grown[:50] = 9  # new partition id
        new = build_layout_metadata(simple_table, grown)
        delta = compute_reorg_delta(old, new)
        changed_ids = {new.partitions[i].partition_id for i in delta.changed}
        assert 9 in changed_ids

    def test_apply_reorg_requires_matching_metadata(self, simple_table):
        assignment = np.arange(simple_table.num_rows) % 4
        old = build_layout_metadata(simple_table, assignment)
        other = build_layout_metadata(simple_table, assignment)
        delta = compute_reorg_delta(old, old)
        index = ZoneMapIndex(other)  # built from a different object
        with pytest.raises(ValueError):
            index.apply_reorg(delta)

    def test_assignment_delta_rejects_length_mismatch(self, simple_table):
        assignment = np.arange(simple_table.num_rows) % 4
        metadata = build_layout_metadata(simple_table, assignment)
        with pytest.raises(ValueError):
            compute_reorg_delta_from_assignments(
                metadata, metadata, assignment, assignment[:-1]
            )

    def test_empty_metadata_roundtrip(self):
        empty = LayoutMetadata(partitions=())
        delta = compute_reorg_delta(empty, empty)
        index = ZoneMapIndex(empty).apply_reorg(delta)
        assert index.num_partitions == 0

    def test_reorg_to_empty_and_back(self, simple_table):
        assignment = np.arange(simple_table.num_rows) % 4
        old = build_layout_metadata(simple_table, assignment)
        index = ZoneMapIndex(old)
        index.masks(between("x", 0.0, 50.0))  # compile a column
        empty = LayoutMetadata(partitions=())
        delta = compute_reorg_delta(old, empty)
        shrunk = index.apply_reorg(delta)
        assert shrunk.num_partitions == 0
        assert shrunk.accessed_fraction(between("x", 0.0, 50.0)) == 0.0
        back = compute_reorg_delta(empty, old)
        grown = shrunk.apply_reorg(back)
        assert_index_equals_fresh_x(grown, old)


def assert_index_equals_fresh_x(index, metadata):
    fresh = ZoneMapIndex(metadata)
    probe = between("x", 0.0, 50.0)
    np.testing.assert_array_equal(index._mask(probe, False), fresh._mask(probe, False))
    np.testing.assert_array_equal(index._mask(probe, True), fresh._mask(probe, True))


class TestCarryEdges:
    def test_column_appearing_only_in_changed_partitions(self):
        """Base zones None -> carried stats absent, changed supply them."""
        old = LayoutMetadata(
            partitions=(
                PartitionMetadata(0, 10, {"a": ColumnStats(0.0, 5.0)}),
                PartitionMetadata(1, 10, {"a": ColumnStats(6.0, 9.0)}),
            )
        )
        index = ZoneMapIndex(old)
        index.masks(between("b", 0.0, 1.0))  # compiles "b" to None (no stats)
        new = LayoutMetadata(
            partitions=(
                old.partitions[0],
                PartitionMetadata(1, 10, {"a": ColumnStats(6.0, 9.0), "b": ColumnStats(1.0, 2.0)}),
            )
        )
        delta = compute_reorg_delta(old, new)
        assert delta.changed == (1,)
        carried = index.apply_reorg(delta)
        fresh = ZoneMapIndex(new)
        for probe in (between("b", 0.0, 0.5), between("b", 1.5, 3.0), eq("b", 1.5)):
            np.testing.assert_array_equal(
                carried._mask(probe, False), fresh._mask(probe, False)
            )
            np.testing.assert_array_equal(
                carried._mask(probe, True), fresh._mask(probe, True)
            )

    def test_column_vanishing_from_all_partitions(self):
        old = LayoutMetadata(
            partitions=(
                PartitionMetadata(0, 10, {"a": ColumnStats(0.0, 5.0)}),
            )
        )
        index = ZoneMapIndex(old)
        index.masks(between("a", 0.0, 1.0))
        new = LayoutMetadata(partitions=(PartitionMetadata(0, 10, {}),))
        delta = compute_reorg_delta(old, new)
        carried = index.apply_reorg(delta)
        fresh = ZoneMapIndex(new)
        probe = between("a", 0.0, 1.0)
        np.testing.assert_array_equal(carried._mask(probe, False), fresh._mask(probe, False))
        np.testing.assert_array_equal(carried._mask(probe, True), fresh._mask(probe, True))

    def test_new_distinct_values_grow_union_append_only(self):
        old = LayoutMetadata(
            partitions=(
                PartitionMetadata(0, 10, {"c": ColumnStats(0, 5, frozenset({0, 2, 5}))}),
                PartitionMetadata(1, 10, {"c": ColumnStats(1, 7, frozenset({1, 3, 7}))}),
            )
        )
        index = ZoneMapIndex(old)
        index.masks(isin("c", [0, 1]))  # compile with the old union
        new = LayoutMetadata(
            partitions=(
                old.partitions[0],
                PartitionMetadata(1, 12, {"c": ColumnStats(1, 11, frozenset({1, 9, 11}))}),
            )
        )
        delta = compute_reorg_delta(old, new)
        carried = index.apply_reorg(delta)
        fresh = ZoneMapIndex(new)
        for probe in (isin("c", [9, 11]), isin("c", [0, 2]), eq("c", 11), ne("c", 9),
                      Not(isin("c", [2, 5, 9, 11]))):
            np.testing.assert_array_equal(
                carried._mask(probe, False), fresh._mask(probe, False)
            )
            np.testing.assert_array_equal(
                carried._mask(probe, True), fresh._mask(probe, True)
            )

    def test_non_numeric_new_boundaries_drop_to_lazy(self):
        """A column whose type changes wholesale cannot be carried: the
        update drops it back to lazy compilation (scalar fallback)."""
        old = LayoutMetadata(
            partitions=(
                PartitionMetadata(0, 10, {"a": ColumnStats(0.0, 5.0)}),
                PartitionMetadata(1, 10, {"a": ColumnStats(6.0, 9.0)}),
            )
        )
        index = ZoneMapIndex(old)
        index.masks(between("a", 0.0, 1.0))
        new = LayoutMetadata(
            partitions=(
                PartitionMetadata(0, 10, {"a": ColumnStats("apple", "mango")}),
                PartitionMetadata(1, 10, {"a": ColumnStats("melon", "zebra")}),
            )
        )
        delta = compute_reorg_delta(old, new)
        assert len(delta.changed) == 2
        carried = index.apply_reorg(delta)
        assert "a" not in carried._columns  # dropped to lazy
        fresh = ZoneMapIndex(new)
        from repro.queries.predicates import Comparison

        probe = Comparison("a", "<", "m")
        np.testing.assert_array_equal(carried._mask(probe, False), fresh._mask(probe, False))
        np.testing.assert_array_equal(carried._mask(probe, True), fresh._mask(probe, True))

    def test_uncompiled_columns_stay_lazy(self, simple_table):
        assignment = np.arange(simple_table.num_rows) % 4
        old = build_layout_metadata(simple_table, assignment)
        index = ZoneMapIndex(old)
        index.masks(between("x", 0.0, 50.0))  # only "x" compiled
        moved = assignment.copy()
        moved[:100] = (moved[:100] + 1) % 4
        new = build_layout_metadata(simple_table, moved)
        delta = compute_reorg_delta(old, new)
        carried = index.apply_reorg(delta)
        assert "x" in carried._columns
        assert "y" not in carried._columns  # still lazy
        fresh = ZoneMapIndex(new)
        for probe in (between("y", 0, 10), eq("color", 1)):
            np.testing.assert_array_equal(
                carried._mask(probe, False), fresh._mask(probe, False)
            )
