"""Property tests: the vectorized pruning matrix equals the scalar oracle.

For random tables, random partition assignments (plus real layout
builders), and random predicate trees, the compiled zone-map engine must
produce *exactly* the same may-match / matches-all verdicts as looping
``Predicate.may_match`` over ``PartitionMetadata`` — no approximation is
tolerated, because the fast path replaces the oracle in every decision
loop.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layouts import QdTreeBuilder, RangeLayoutBuilder, ZoneMapIndex
from repro.layouts.metadata import build_layout_metadata
from repro.queries.predicates import And, Between, Comparison, In, Not, Or
from repro.storage import ColumnSpec, Schema, Table

_SCHEMA = Schema(
    columns=(
        ColumnSpec("a", "numeric"),
        ColumnSpec("b", "numeric"),
        ColumnSpec("c", "categorical", tuple(f"v{i}" for i in range(8))),
    )
)


def make_table(seed: int, n: int) -> Table:
    rng = np.random.default_rng(seed)
    return Table(
        _SCHEMA,
        {
            "a": rng.integers(-20, 21, size=n).astype(np.int64),
            "b": rng.uniform(-5.0, 45.0, size=n),
            "c": rng.integers(0, 8, size=n).astype(np.int32),
        },
    )


def atomic_predicates():
    comparisons = st.builds(
        Comparison,
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from(["<", "<=", ">", ">=", "==", "!="]),
        st.integers(min_value=-25, max_value=25),
    )
    betweens = st.builds(
        lambda col, lo, width: Between(col, lo, lo + width),
        st.sampled_from(["a", "b", "c"]),
        st.integers(min_value=-25, max_value=25),
        st.integers(min_value=0, max_value=20),
    )
    ins = st.builds(
        In,
        st.sampled_from(["a", "b", "c"]),
        st.lists(st.integers(min_value=-25, max_value=25), min_size=1, max_size=5),
    )
    return st.one_of(comparisons, betweens, ins)


def predicates():
    return st.recursive(
        atomic_predicates(),
        lambda children: st.one_of(
            st.builds(lambda kids: And(tuple(kids)), st.lists(children, min_size=1, max_size=3)),
            st.builds(lambda kids: Or(tuple(kids)), st.lists(children, min_size=1, max_size=3)),
            st.builds(Not, children),
        ),
        max_leaves=6,
    )


def scalar_masks(metadata, predicate):
    may = np.array([predicate.may_match(p) for p in metadata.partitions], dtype=bool)
    all_ = np.array([predicate.matches_all(p) for p in metadata.partitions], dtype=bool)
    return may, all_


@given(
    data_seed=st.integers(0, 10_000),
    assign_seed=st.integers(0, 10_000),
    n=st.integers(1, 300),
    num_partitions=st.integers(1, 12),
    predicate=predicates(),
)
@settings(max_examples=300, deadline=None)
def test_random_assignment_masks_equal_scalar(data_seed, assign_seed, n, num_partitions, predicate):
    table = make_table(data_seed, n)
    assignment = np.random.default_rng(assign_seed).integers(0, num_partitions, size=n)
    metadata = build_layout_metadata(table, assignment)
    index = ZoneMapIndex(metadata)
    may, all_ = index.may_match_mask(predicate), index._mask(predicate, True)
    expected_may, expected_all = scalar_masks(metadata, predicate)
    np.testing.assert_array_equal(may, expected_may)
    np.testing.assert_array_equal(all_, expected_all)
    assert index.accessed_fraction(predicate) == metadata.accessed_fraction(predicate)


@given(
    data_seed=st.integers(0, 10_000),
    kind=st.sampled_from(["range", "qdtree"]),
    predicate_list=st.lists(predicates(), min_size=1, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_builder_layout_prune_matrix_equals_scalar(data_seed, kind, predicate_list):
    table = make_table(data_seed, 250)
    rng = np.random.default_rng(data_seed)
    from repro.queries import Query

    workload = [Query(predicate=p) for p in predicate_list]
    if kind == "range":
        layout = RangeLayoutBuilder("a").build(table, workload, 6, rng)
    else:
        layout = QdTreeBuilder().build(table, workload, 6, rng)
    metadata = layout.metadata_for(table)
    index = ZoneMapIndex(metadata)
    matrix = index.prune_matrix([q.predicate for q in workload])
    for row, query in zip(matrix, workload, strict=True):
        np.testing.assert_array_equal(row, scalar_masks(metadata, query.predicate)[0])
    fractions = np.array([index.accessed_fraction(q.predicate) for q in workload])
    expected = np.array([metadata.accessed_fraction(q.predicate) for q in workload])
    np.testing.assert_array_equal(fractions, expected)
