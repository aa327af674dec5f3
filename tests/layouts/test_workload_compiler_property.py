"""Property tests: batched workload matrices equal the per-predicate path
and the scalar oracle, bit for bit.

Two generators drive the equivalence:

* hand-built metadata with adversarial statistics — NaN/±inf boundaries,
  empty (zero-row) partitions, partitions missing columns entirely,
  string-typed boundaries, partial distinct sets, float64-lossy huge
  ints — the space a table-backed generator cannot reach;
* real tables with random assignments and builder layouts, matching how
  metadata is produced in the system.

Predicate ASTs mix all node types (including unsupported user-defined
nodes and NaN/inf/string constants); no approximation is tolerated in
either direction because the compiled path replaces the oracle in every
decision loop.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layouts import CompiledWorkload, QdTreeBuilder, RangeLayoutBuilder, ZoneMapIndex
from repro.layouts.metadata import (
    ColumnStats,
    LayoutMetadata,
    PartitionMetadata,
    build_layout_metadata,
)
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
from repro.storage import ColumnSpec, Schema, Table

# ----------------------------------------------------------- shared helpers


def scalar_matrices(metadata, predicates):
    num_parts = len(metadata.partitions)
    may = np.array(
        [[p.may_match(part) for part in metadata.partitions] for p in predicates],
        dtype=bool,
    ).reshape(len(predicates), num_parts)
    all_ = np.array(
        [[p.matches_all(part) for part in metadata.partitions] for p in predicates],
        dtype=bool,
    ).reshape(len(predicates), num_parts)
    return may, all_


def assert_equivalent(metadata, predicates):
    index = ZoneMapIndex(metadata)
    workload = CompiledWorkload(predicates)
    got_may = workload.prune_matrix(index)
    per_predicate = index.prune_matrix(predicates)
    expected_may, expected_all = scalar_matrices(metadata, predicates)
    np.testing.assert_array_equal(got_may, per_predicate)
    np.testing.assert_array_equal(got_may, expected_may)
    # Only the per-predicate path computes matches-all (``Not`` needs it).
    for row, predicate in enumerate(predicates):
        np.testing.assert_array_equal(index._mask(predicate, True), expected_all[row])
    np.testing.assert_array_equal(
        workload.accessed_fractions(index),
        np.array([index.accessed_fraction(p) for p in predicates], dtype=np.float64),
    )


class ParityPredicate(Predicate):
    """Unsupported node: forces the per-node scalar fallback."""

    __slots__ = ("column",)

    def __init__(self, column: str):
        self.column = column

    def evaluate(self, columns):
        return columns[self.column] % 2 == 0

    def may_match(self, metadata):
        stats = metadata.stats.get(self.column)
        if stats is None or stats.distinct is None:
            return True
        return any(isinstance(v, (int, float)) and v % 2 == 0 for v in stats.distinct)

    def matches_all(self, metadata):
        stats = metadata.stats.get(self.column)
        if stats is None or stats.distinct is None:
            return False
        return all(isinstance(v, (int, float)) and v % 2 == 0 for v in stats.distinct)

    def columns(self):
        return frozenset((self.column,))

    def negate(self):
        return Not(self)

    def cache_key(self):
        return ("parity", self.column)


# --------------------------------------- generator 1: adversarial metadata

_NUMERIC_COLUMNS = ("n1", "n2")
_DISTINCT_COLUMN = "c"
_STRING_COLUMN = "s"

_numeric_value = st.one_of(
    st.integers(min_value=-30, max_value=30),
    st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), 2**53 + 1, -(2**53) - 3]),
)
_string_value = st.text(alphabet="abcz", min_size=0, max_size=3)


def _numeric_stats():
    def build(a, b, distinct):
        low, high = (a, b)
        try:
            if not (low <= high):  # NaN or inverted: force a legal pair
                low, high = high, low
            if not (low <= high):
                low = high = a if a == a else 0.0  # both NaN -> collapse
        except TypeError:
            low, high = 0.0, 1.0
        return ColumnStats(min=low, max=high, distinct=distinct)

    return st.builds(
        build,
        _numeric_value,
        _numeric_value,
        st.one_of(
            st.none(),
            st.frozensets(st.integers(min_value=-30, max_value=30), min_size=1, max_size=6),
        ),
    )


def _string_stats():
    return st.builds(
        lambda a, b: ColumnStats(min=min(a, b), max=max(a, b)),
        _string_value,
        _string_value,
    )


@st.composite
def adversarial_metadata(draw):
    num_partitions = draw(st.integers(min_value=0, max_value=6))
    partitions = []
    for pid in range(num_partitions):
        stats = {}
        for name in _NUMERIC_COLUMNS:
            if draw(st.booleans()):
                stats[name] = draw(_numeric_stats())
        if draw(st.booleans()):
            stats[_DISTINCT_COLUMN] = draw(_numeric_stats())
        if draw(st.booleans()):
            stats[_STRING_COLUMN] = draw(_string_stats())
        row_count = draw(st.integers(min_value=0, max_value=50))  # 0: empty partition
        partitions.append(PartitionMetadata(pid, row_count, stats))
    return LayoutMetadata(partitions=tuple(partitions))


def _atoms(columns, constants):
    comparisons = st.builds(
        Comparison,
        st.sampled_from(columns),
        st.sampled_from(["<", "<=", ">", ">=", "==", "!="]),
        constants,
    )
    betweens = st.builds(
        lambda col, a, b: Between(col, min(a, b), max(a, b)),
        st.sampled_from(columns),
        constants.filter(lambda v: v == v),  # NaN bounds cannot be ordered
        constants.filter(lambda v: v == v),
    )
    ins = st.builds(
        In,
        st.sampled_from(columns),
        st.lists(constants, min_size=1, max_size=4),
    )
    return st.one_of(comparisons, betweens, ins)


def predicate_trees(columns, constants, with_unsupported=True):
    atoms = _atoms(columns, constants)
    if with_unsupported:
        atoms = st.one_of(
            atoms,
            st.builds(ParityPredicate, st.sampled_from(columns)),
            st.just(AlwaysTrue()),
            st.just(AlwaysFalse()),
        )
    return st.recursive(
        atoms,
        lambda children: st.one_of(
            st.builds(lambda kids: And(tuple(kids)), st.lists(children, min_size=1, max_size=3)),
            st.builds(lambda kids: Or(tuple(kids)), st.lists(children, min_size=1, max_size=3)),
            st.builds(Not, children),
        ),
        max_leaves=6,
    )


_numeric_constant = st.one_of(
    st.integers(min_value=-35, max_value=35),
    st.floats(min_value=-35.0, max_value=35.0, allow_nan=False),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), 2**53 + 1]),
)

_mixed_predicates = st.one_of(
    predicate_trees(list(_NUMERIC_COLUMNS) + [_DISTINCT_COLUMN, "missing"], _numeric_constant),
    predicate_trees([_STRING_COLUMN], _string_value, with_unsupported=False),
)


@given(
    metadata=adversarial_metadata(),
    predicates=st.lists(_mixed_predicates, min_size=0, max_size=8),
)
@settings(max_examples=250, deadline=None)
def test_adversarial_metadata_matches_oracle(metadata, predicates):
    assert_equivalent(metadata, predicates)


# ------------------------------------------ generator 2: real random tables

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


_table_predicates = st.lists(
    predicate_trees(
        ["a", "b", "c"],
        st.one_of(
            st.integers(min_value=-25, max_value=25),
            st.sampled_from([float("inf"), float("nan"), 2**53 + 1]),
        ),
    ),
    min_size=1,
    max_size=8,
)


@given(
    data_seed=st.integers(0, 10_000),
    assign_seed=st.integers(0, 10_000),
    n=st.integers(1, 300),
    num_partitions=st.integers(1, 12),
    predicates=_table_predicates,
)
@settings(max_examples=150, deadline=None)
def test_random_assignment_matches_oracle(data_seed, assign_seed, n, num_partitions, predicates):
    table = make_table(data_seed, n)
    assignment = np.random.default_rng(assign_seed).integers(0, num_partitions, size=n)
    metadata = build_layout_metadata(table, assignment)
    assert_equivalent(metadata, predicates)


@given(
    data_seed=st.integers(0, 10_000),
    kind=st.sampled_from(["range", "qdtree"]),
    predicates=_table_predicates,
)
@settings(max_examples=40, deadline=None)
def test_builder_layouts_match_oracle(data_seed, kind, predicates):
    from repro.queries import Query

    table = make_table(data_seed, 250)
    rng = np.random.default_rng(data_seed)
    workload = [
        Query(predicate=p)
        for p in predicates
        if not _contains_nan_constant(p)  # qd-tree cuts evaluate rows; NaN ok but pointless
    ] or [Query(predicate=AlwaysTrue())]
    if kind == "range":
        layout = RangeLayoutBuilder("a").build(table, workload, 6, rng)
    else:
        layout = QdTreeBuilder().build(table, workload, 6, rng)
    metadata = layout.metadata_for(table)
    assert_equivalent(metadata, predicates)


def _contains_nan_constant(predicate) -> bool:
    if isinstance(predicate, Comparison):
        value = predicate.value
        return isinstance(value, float) and math.isnan(value)
    if isinstance(predicate, (And, Or)):
        return any(_contains_nan_constant(c) for c in predicate.children)
    if isinstance(predicate, Not):
        return _contains_nan_constant(predicate.child)
    return False
