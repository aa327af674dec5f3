"""Differential battery: the stacked 3-D tensor is bit-for-bit equal to
the per-layout ``CompiledWorkload`` matrices and the scalar ``may_match``
oracle, and its fused fractions to the per-layout ones, across random
layout mixes.

Reuses the adversarial generators of the workload-compiler property suite
(NaN/±inf boundaries, empty partitions, string-typed columns, partial
distinct sets, float64-lossy constants, unsupported predicate nodes) but
stacks *several* layouts — ragged partition counts, disjoint distinct-value
unions, residue layouts — into one state space, including mixes produced
by the real qd-tree / range / hash / z-order builders and membership churn
(add / remove / re-add / replace, growing and shrinking the padded width)
between evaluations.
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
from repro.layouts.metadata import LayoutMetadata, build_layout_metadata
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
    fractions = stack.fractions_tensor(may)
    assert stack.layout_ids == list(indexes)
    for position, (_layout_id, index) in enumerate(indexes.items()):
        num = index.num_partitions
        np.testing.assert_array_equal(
            may[position, :, :num], compiled.prune_matrix(index)
        )
        expected_may, _ = scalar_matrices(metadatas[position], predicates)
        np.testing.assert_array_equal(may[position, :, :num], expected_may)
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


def assert_slices_exact(stack, compiled):
    """Every live slice == the per-layout compiled pass; width is the widest."""
    tensor = stack.prune_tensor(compiled)
    widths = [stack.index_for(layout_id).num_partitions for layout_id in stack.layout_ids]
    assert stack.partition_width == max(widths, default=0)
    for position, layout_id in enumerate(stack.layout_ids):
        index = stack.index_for(layout_id)
        np.testing.assert_array_equal(
            tensor[position, :, : index.num_partitions], compiled.prune_matrix(index)
        )


def shrink_widest(stack, compiled, shrink):
    """Apply ``shrink`` to the widest layout; a unique widest must shrink
    the padded width."""
    widths = {lid: stack.index_for(lid).num_partitions for lid in stack.layout_ids}
    widest = max(widths, key=widths.__getitem__)
    before = stack.partition_width
    unique = list(widths.values()).count(before) == 1
    shrink(widest, before)
    if unique and before > 0:
        assert stack.partition_width < before
    assert_slices_exact(stack, compiled)


@given(
    metadatas=st.lists(adversarial_metadata(), min_size=2, max_size=6),
    predicates=st.lists(_mixed_predicates, min_size=1, max_size=6),
    remove_mask=st.lists(st.booleans(), min_size=2, max_size=6),
    narrower=adversarial_metadata(),
    drop_widest=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_membership_churn_keeps_equivalence(
    metadatas, predicates, remove_mask, narrower, drop_widest
):
    """add → evaluate → remove some → evaluate → re-add → evaluate, then
    shrink the width: the widest layout updated to a narrower index, and
    optionally the (new) widest removed."""
    compiled = CompiledWorkload(predicates)
    indexes = {f"m{i}": ZoneMapIndex(metadata) for i, metadata in enumerate(metadatas)}
    stack = StackedStateSpace()
    for layout_id, index in indexes.items():
        stack.add_layout(layout_id, index)
    stack.prune_tensor(compiled)  # zones built before any removal
    removed = [
        layout_id
        for layout_id, kill in zip(indexes, remove_mask, strict=False)
        if kill and len(stack) > 1
        and not stack.remove_layout(layout_id)  # remove returns None
    ]
    assert_slices_exact(stack, compiled)
    for layout_id in removed:  # re-add previously removed layouts
        stack.add_layout(layout_id, indexes[layout_id])
        assert_slices_exact(stack, compiled)

    def update_narrower(layout_id, width):
        partitions = narrower.partitions[: max(width - 1, 0)]
        stack.update_layout(layout_id, ZoneMapIndex(LayoutMetadata(partitions=partitions)))

    shrink_widest(stack, compiled, update_narrower)
    if drop_widest and len(stack) > 1:
        shrink_widest(stack, compiled, lambda layout_id, _width: stack.remove_layout(layout_id))
