"""Property tests: the columnar metadata builder equals the per-partition one.

:func:`build_layout_metadata` computes every column's statistics for all
partitions at once (``reduceat`` over the sorted assignment, one presence
pass per categorical column); :func:`build_partition_metadata` is the
reference that computes one partition at a time.  For random tables —
64-bit integers at and beyond ±2**53, unsigned integers, floats with
±inf, −0.0 and NaN, bools, dates (a dtype ``reduceat`` does not serve),
categorical columns on both sides of ``DISTINCT_SET_CAP`` — and random
assignments (single-row partitions,
sparse and negative ids, the empty table) the two must agree exactly,
down to the Python scalar types of the bounds.  The index compiled from
the columnar arrays must prune exactly like the index gathered from the
objects and like the scalar oracle.
"""

from __future__ import annotations

import datetime

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.layouts import ZoneMapIndex, zonemaps
from repro.layouts.metadata import (
    DISTINCT_SET_CAP,
    ColumnStats,
    LayoutMetadata,
    build_layout_metadata,
    build_partition_metadata,
    partition_row_indices,
)
from repro.queries.predicates import And, Between, Comparison, In, Not, Or
from repro.storage import ColumnSpec, Schema, Table

WIDE_VOCABULARY = DISTINCT_SET_CAP + 24

_SCHEMA = Schema(
    columns=(
        ColumnSpec("i32", "numeric"),
        ColumnSpec("i64", "numeric"),
        ColumnSpec("exact64", "numeric"),
        ColumnSpec("u64", "numeric"),
        ColumnSpec("f", "numeric"),
        ColumnSpec("flag", "numeric"),
        ColumnSpec("day", "numeric"),
        ColumnSpec("c", "categorical", tuple(f"v{i}" for i in range(6))),
        ColumnSpec("w", "categorical", tuple(f"w{i}" for i in range(WIDE_VOCABULARY))),
    )
)

#: 64-bit integers float64 cannot hold (2**53 + 1, ...) beside ones it can
LOSSY_INTS = (2**53 - 1, 2**53, 2**53 + 1, -(2**53) - 1, 2**62 + 1, -(2**63), 2**63 - 1)
#: 64-bit integers beyond 2**53 that float64 holds exactly
EXACT_WIDE_INTS = (2**53, -(2**53), 2**60, -(2**63), 2**62)
UNSIGNED_WIDE = (2**53 + 1, 2**63, 2**64 - 1, 2**60)
SPECIAL_FLOATS = (np.inf, -np.inf, -0.0, 0.0, np.nan)
DAYS = tuple(datetime.date(2024, 1, 1) + datetime.timedelta(days=d) for d in (0, 3, 9, 30))


def _inject(rng, values: np.ndarray, specials, share: float) -> np.ndarray:
    hit = rng.random(len(values)) < share
    values[hit] = np.array(specials, dtype=values.dtype)[
        rng.integers(0, len(specials), size=int(hit.sum()))
    ]
    return values


@st.composite
def tables_and_assignments(draw):
    num_rows = draw(st.sampled_from([0, 1, 2, 7, 40, 150, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    share = draw(st.sampled_from([0.0, 0.05, 0.5]))
    columns = {
        "i32": rng.integers(-50, 50, size=num_rows).astype(np.int32),
        "i64": _inject(rng, rng.integers(-50, 50, size=num_rows), LOSSY_INTS, share),
        "exact64": _inject(rng, rng.integers(-50, 50, size=num_rows), EXACT_WIDE_INTS, share),
        "u64": _inject(
            rng, rng.integers(0, 50, size=num_rows).astype(np.uint64), UNSIGNED_WIDE, share
        ),
        "f": _inject(rng, rng.uniform(-20.0, 20.0, size=num_rows), SPECIAL_FLOATS, share),
        "flag": rng.random(num_rows) < 0.5,
        "day": np.array(DAYS, dtype="datetime64[D]")[rng.integers(0, len(DAYS), size=num_rows)],
        "c": rng.integers(0, 6, size=num_rows).astype(np.int32),
        "w": rng.integers(0, WIDE_VOCABULARY, size=num_rows).astype(np.int32),
    }
    table = Table(_SCHEMA, columns)
    shape = draw(st.sampled_from(["dense", "sparse", "negative", "single_rows"]))
    if shape == "single_rows":
        assignment = rng.permutation(num_rows).astype(np.int64) * 3 - num_rows
    else:
        parts = draw(st.integers(1, 12))
        assignment = rng.integers(0, parts, size=num_rows).astype(np.int64)
        if shape == "sparse":
            assignment = assignment * 37 + 5
        elif shape == "negative":
            assignment = assignment - parts // 2
    return table, assignment


def numeric_constants():
    return st.one_of(
        st.integers(-60, 60),
        st.sampled_from(LOSSY_INTS + EXACT_WIDE_INTS + UNSIGNED_WIDE),
        st.sampled_from([np.inf, -np.inf, -0.0, 0.5, -19.5]),
    )


def atomic_predicates():
    numeric = st.sampled_from(["i32", "i64", "exact64", "u64", "f", "flag", "c", "w"])
    comparisons = st.builds(
        Comparison,
        numeric,
        st.sampled_from(["<", "<=", ">", ">=", "==", "!="]),
        numeric_constants(),
    )
    betweens = st.builds(
        lambda column, low, width: Between(column, low, low + width),
        numeric,
        st.integers(-60, 60),
        st.integers(0, 40),
    )
    ins = st.builds(In, numeric, st.lists(numeric_constants(), min_size=1, max_size=4))
    days = st.one_of(
        st.builds(
            Comparison,
            st.just("day"),
            st.sampled_from(["<", "<=", ">", ">=", "==", "!="]),
            st.sampled_from(DAYS),
        ),
        st.builds(In, st.just("day"), st.lists(st.sampled_from(DAYS), min_size=1, max_size=3)),
    )
    return st.one_of(comparisons, betweens, ins, days)


def predicates():
    return st.recursive(
        atomic_predicates(),
        lambda children: st.one_of(
            st.builds(lambda kids: And(tuple(kids)), st.lists(children, min_size=1, max_size=3)),
            st.builds(lambda kids: Or(tuple(kids)), st.lists(children, min_size=1, max_size=3)),
            st.builds(Not, children),
        ),
        max_leaves=5,
    )


def reference_partitions(table, assignment):
    return tuple(
        build_partition_metadata(table, rows, pid)
        for pid, rows in sorted(partition_row_indices(assignment).items())
    )


def scalar_types(partitions):
    return [
        (
            type(p.partition_id),
            type(p.row_count),
            {
                name: (
                    type(stats.min),
                    type(stats.max),
                    None
                    if stats.distinct is None
                    else sorted({type(v).__name__ for v in stats.distinct}),
                )
                for name, stats in p.stats.items()
            },
        )
        for p in partitions
    ]


@given(tables_and_assignments())
def test_columnar_builder_equals_per_partition_reference(case):
    table, assignment = case
    metadata = build_layout_metadata(table, assignment)
    reference = reference_partitions(table, assignment)
    assert metadata.partitions == reference
    assert scalar_types(metadata.partitions) == scalar_types(reference)
    assert metadata.total_rows == table.num_rows
    assert metadata.partition_ids.tolist() == [p.partition_id for p in reference]
    assert metadata.row_counts.tolist() == [p.row_count for p in reference]


def compiled_zones(index, name):
    """A column's kernel zones, ``"uncompilable"`` or ``None`` (no stats)."""
    try:
        return index._column(name)
    except zonemaps._Unsupported:
        return "uncompilable"


@given(tables_and_assignments())
def test_columnar_zones_equal_gathered_zones(case):
    """Same compilability verdict, same arrays, same bit positions per column."""
    table, assignment = case
    metadata = build_layout_metadata(table, assignment)
    columnar = ZoneMapIndex(metadata)
    gathered = ZoneMapIndex(LayoutMetadata(partitions=metadata.partitions))
    for name in table.schema.names():
        mine, theirs = compiled_zones(columnar, name), compiled_zones(gathered, name)
        if mine is None or isinstance(mine, str):
            assert mine == theirs, name
            continue
        assert not isinstance(theirs, str) and theirs is not None, name
        for field in ("mins", "maxs", "has_stats", "has_distinct"):
            assert np.array_equal(getattr(mine, field), getattr(theirs, field)), (name, field)
        assert (mine.bitmap is None) == (theirs.bitmap is None), name
        if mine.bitmap is not None:
            assert np.array_equal(mine.bitmap, theirs.bitmap), name
        assert mine.value_index == theirs.value_index, name
        flags = ("all_stats", "any_distinct", "all_distinct")
        assert [getattr(mine, f) for f in flags] == [getattr(theirs, f) for f in flags], name


@given(tables_and_assignments(), st.lists(predicates(), min_size=1, max_size=6))
def test_columnar_index_prunes_like_gathered_index_and_oracle(case, preds):
    table, assignment = case
    metadata = build_layout_metadata(table, assignment)
    columnar = ZoneMapIndex(metadata)
    gathered = ZoneMapIndex(LayoutMetadata(partitions=metadata.partitions))
    matrix = columnar.prune_matrix(preds)
    assert np.array_equal(matrix, gathered.prune_matrix(preds))
    oracle = np.array(
        [[p.may_match(part) for part in metadata.partitions] for p in preds], dtype=bool
    ).reshape(len(preds), metadata.num_partitions)
    assert np.array_equal(matrix, oracle)
    for predicate in preds:  # the matches-all side ``Not`` reads
        assert np.array_equal(columnar._mask(predicate, True), gathered._mask(predicate, True))
    for predicate, row in zip(preds, matrix, strict=True):
        assert columnar.relevant_partition_ids(predicate) == set(
            metadata.partition_ids[row].tolist()
        )


def test_table_built_index_never_gathers_objects(simple_table, monkeypatch):
    def gather(*_args):
        raise AssertionError("a table-built snapshot ran the object adapter")

    monkeypatch.setattr(zonemaps, "_compile_column", gather)
    metadata = build_layout_metadata(simple_table, np.arange(simple_table.num_rows) % 5)
    index = ZoneMapIndex(metadata)
    for name in simple_table.schema.names():
        index._column(name)
    assert "partitions" not in vars(metadata.dense)  # the oracle's view was never built


def test_string_column_fails_alike_in_both_builders():
    """``<U`` has no ``np.minimum`` loop: neither builder can summarize it."""
    schema = Schema(columns=(ColumnSpec("s", "numeric"),))
    table = Table(schema, {"s": np.array(["b", "a", "c"])})
    assignment = np.array([0, 1, 0])
    with pytest.raises(TypeError):
        reference_partitions(table, assignment)
    with pytest.raises(TypeError):
        build_layout_metadata(table, assignment)


@pytest.mark.parametrize("bounds", [(np.nan, 1.0), (0.0, np.nan), (np.nan, np.nan)])
def test_column_stats_reject_nan_bounds(bounds):
    with pytest.raises(ValueError, match="NaN"):
        ColumnStats(min=bounds[0], max=bounds[1])
