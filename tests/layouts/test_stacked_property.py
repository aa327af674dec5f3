"""Differential battery: the stacked 3-D tensors are bit-for-bit equal to
the per-layout ``CompiledWorkload`` matrices and the scalar ``may_match`` /
``matches_all`` oracle, across random layout mixes.

Reuses the adversarial generators of the workload-compiler property suite
(NaN/±inf boundaries, empty partitions, string-typed columns, partial
distinct sets, float64-lossy constants, unsupported predicate nodes) but
stacks *several* layouts — ragged partition counts, disjoint distinct-value
unions, residue layouts — into one state space, including mixes produced
by the real qd-tree / range / hash / z-order builders and membership churn
(add / tombstone / re-add) between evaluations.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layouts import (
    CompiledWorkload,
    HashLayoutBuilder,
    QdTreeBuilder,
    RangeLayoutBuilder,
    StackedStateSpace,
    ZOrderLayoutBuilder,
    ZoneMapIndex,
)
from repro.layouts.metadata import build_layout_metadata
from repro.queries import Query
from repro.queries.predicates import AlwaysTrue

from test_workload_compiler_property import (
    _mixed_predicates,
    _table_predicates,
    adversarial_metadata,
    make_table,
    scalar_matrices,
)


def assert_stack_equivalent(metadatas, predicates):
    """Stacked slices == per-layout compiled matrices == scalar oracle."""
    compiled = CompiledWorkload(predicates)
    indexes = {f"m{i}": ZoneMapIndex(metadata) for i, metadata in enumerate(metadatas)}
    stack = StackedStateSpace(indexes)
    may = stack.prune_tensor(compiled)
    all_ = stack.matches_all_tensor(compiled)
    fractions = stack.accessed_fractions(compiled)
    assert stack.layout_ids == list(indexes)
    for position, (_layout_id, index) in enumerate(indexes.items()):
        num = index.num_partitions
        np.testing.assert_array_equal(
            may[position, :, :num], compiled.prune_matrix(index)
        )
        np.testing.assert_array_equal(
            all_[position, :, :num], compiled.matches_all_matrix(index)
        )
        expected_may, expected_all = scalar_matrices(metadatas[position], predicates)
        np.testing.assert_array_equal(may[position, :, :num], expected_may)
        np.testing.assert_array_equal(all_[position, :, :num], expected_all)
        np.testing.assert_array_equal(
            fractions[position], compiled.accessed_fractions(index)
        )


@given(
    metadatas=st.lists(adversarial_metadata(), min_size=1, max_size=5),
    predicates=st.lists(_mixed_predicates, min_size=0, max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_adversarial_layout_mixes_match_oracle(metadatas, predicates):
    assert_stack_equivalent(metadatas, predicates)


@given(
    data_seed=st.integers(0, 10_000),
    layout_seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=6),
    n=st.integers(1, 300),
    predicates=_table_predicates,
)
@settings(max_examples=100, deadline=None)
def test_random_assignment_mixes_match_oracle(data_seed, layout_seeds, n, predicates):
    table = make_table(data_seed, n)
    metadatas = []
    for position, seed in enumerate(layout_seeds):
        num_partitions = 1 + (seed + position) % 12  # ragged on purpose
        assignment = np.random.default_rng(seed).integers(0, num_partitions, size=n)
        metadatas.append(build_layout_metadata(table, assignment))
    assert_stack_equivalent(metadatas, predicates)


@given(data_seed=st.integers(0, 10_000), predicates=_table_predicates)
@settings(max_examples=25, deadline=None)
def test_builder_layout_mixes_match_oracle(data_seed, predicates):
    """One of each real builder stacked together (qd-tree/range/hash/z-order)."""
    table = make_table(data_seed, 250)
    rng = np.random.default_rng(data_seed)
    workload = [Query(predicate=AlwaysTrue())]
    builders = [
        QdTreeBuilder(),
        RangeLayoutBuilder("a"),
        HashLayoutBuilder("c"),
        ZOrderLayoutBuilder(num_columns=2, default_columns=("a", "b")),
    ]
    metadatas = [
        builder.build(table, workload, 5, rng).metadata_for(table)
        for builder in builders
    ]
    assert_stack_equivalent(metadatas, predicates)


@given(
    metadatas=st.lists(adversarial_metadata(), min_size=2, max_size=6),
    predicates=st.lists(_mixed_predicates, min_size=1, max_size=6),
    remove_mask=st.lists(st.booleans(), min_size=2, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_membership_churn_keeps_equivalence(metadatas, predicates, remove_mask):
    """add → evaluate → tombstone some → evaluate → re-add → evaluate."""
    compiled = CompiledWorkload(predicates)
    indexes = {f"m{i}": ZoneMapIndex(metadata) for i, metadata in enumerate(metadatas)}
    stack = StackedStateSpace()
    for layout_id, index in indexes.items():
        stack.add_layout(layout_id, index)
    stack.prune_tensor(compiled)  # slabs warm before any removal
    removed = [
        layout_id
        for layout_id, kill in zip(indexes, remove_mask, strict=False)
        if kill and len(stack) > 1
        and not stack.remove_layout(layout_id)  # remove returns None
    ]
    for layout_id in stack.layout_ids:
        np.testing.assert_array_equal(
            stack.prune_matrix(compiled, layout_id),
            compiled.prune_matrix(indexes[layout_id]),
        )
    for layout_id in removed:  # re-add previously tombstoned layouts
        stack.add_layout(layout_id, indexes[layout_id])
        np.testing.assert_array_equal(
            stack.prune_matrix(compiled, layout_id),
            compiled.prune_matrix(indexes[layout_id]),
        )
