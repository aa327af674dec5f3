"""Projected partition reads: a query decompresses only the columns it needs.

``QueryExecutor`` asks :meth:`PartitionStore.read_partition` for the
columns its predicate references; everything that moves whole rows
(``reorganize``, the pipelined mover, ``read_all``, ``full_scan``) still
reads every column.  The differential below pins that projection changes
no reported count: per query, ``execute`` and ``execute_batch`` equal an
executor whose store ignores the projection and reads every column.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layouts import RangeLayoutBuilder, RoundRobinLayout
from repro.queries import Query, between, conjunction, eq
from repro.queries.predicates import (
    AlwaysFalse,
    AlwaysTrue,
    And,
    Between,
    Comparison,
    In,
    Not,
    Or,
)
from repro.storage import (
    AsyncReorgPipeline,
    ColumnSpec,
    PartitionStore,
    QueryExecutor,
    Schema,
    Table,
    reorganize,
)

NAMES = tuple(f"c{i}" for i in range(12))
SCHEMA = Schema(
    columns=tuple(
        ColumnSpec(name, "categorical", tuple(f"v{j}" for j in range(10)))
        if i % 4 == 3
        else ColumnSpec(name, "numeric")
        for i, name in enumerate(NAMES)
    )
)
NUM_ROWS = 1200


def make_table(seed: int = 7) -> Table:
    rng = np.random.default_rng(seed)
    columns = {}
    for i, name in enumerate(NAMES):
        if i % 4 == 3:
            columns[name] = rng.integers(0, 10, size=NUM_ROWS).astype(np.int32)
        elif i % 2:
            columns[name] = rng.uniform(0.0, 40.0, size=NUM_ROWS)
        else:
            columns[name] = rng.integers(0, 40, size=NUM_ROWS).astype(np.int64)
    return Table(SCHEMA, columns)


class FullReadStore(PartitionStore):
    """The reference: ignores the projection and reads every column."""

    def read_partition(self, partition, columns=None):
        return super().read_partition(partition)


class SpyStore(PartitionStore):
    """Records ``(partition_id, requested columns or None)`` per read."""

    def __init__(self, root):
        super().__init__(root)
        self.calls: list[tuple[int, frozenset[str] | None]] = []

    def read_partition(self, partition, columns=None):
        requested = None if columns is None else frozenset(columns)
        self.calls.append((partition.partition_id, requested))
        return super().read_partition(partition, columns)


@pytest.fixture(scope="module")
def table():
    return make_table()


@pytest.fixture(scope="module")
def layouts(table, tmp_path_factory):
    """The table stored twice: range-partitioned on c0 (prunable) and striped."""
    root = tmp_path_factory.mktemp("projection")
    store = PartitionStore(root)
    ranged = RangeLayoutBuilder("c0").build(table, [], 10, np.random.default_rng(0))
    stored = [store.materialize(table, ranged), store.materialize(table, RoundRobinLayout(8))]
    assert all(len(s.partitions) >= 8 for s in stored)
    return root, stored


def counts(result):
    return (
        result.rows_matched,
        result.rows_scanned,
        result.partitions_scanned,
        result.partitions_total,
        result.bytes_read,
    )


def atomic_predicates():
    columns = st.sampled_from(NAMES)
    comparisons = st.builds(
        Comparison,
        columns,
        st.sampled_from(["<", "<=", ">", ">=", "==", "!="]),
        st.integers(min_value=-2, max_value=42),
    )
    betweens = st.builds(
        lambda col, lo, width: Between(col, lo, lo + width),
        columns,
        st.integers(min_value=-2, max_value=42),
        st.integers(min_value=0, max_value=15),
    )
    ins = st.builds(
        In, columns, st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=5)
    )
    constants = st.sampled_from([AlwaysTrue(), AlwaysFalse()])
    return st.one_of(comparisons, betweens, ins, constants)


def predicates():
    return st.recursive(
        atomic_predicates(),
        lambda children: st.one_of(
            st.builds(lambda kids: And(tuple(kids)), st.lists(children, min_size=2, max_size=3)),
            st.builds(lambda kids: Or(tuple(kids)), st.lists(children, min_size=2, max_size=3)),
            st.builds(Not, children),
        ),
        max_leaves=6,
    )


@given(predicate_list=st.lists(predicates(), min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_projected_counts_equal_full_read(layouts, table, predicate_list):
    root, stored_layouts = layouts
    projected = QueryExecutor(PartitionStore(root))
    reference = QueryExecutor(FullReadStore(root))
    queries = [Query(predicate=p) for p in predicate_list]
    for stored in stored_layouts:
        expected = [counts(reference.execute(stored, q)) for q in queries]
        assert [counts(projected.execute(stored, q)) for q in queries] == expected
        assert [counts(r) for r in projected.execute_batch(stored, queries)] == expected
        for query, row in zip(queries, expected, strict=True):
            assert row[0] == int(query.predicate.evaluate(table.columns).sum())


@given(requested=st.sets(st.sampled_from(NAMES), min_size=1))
@settings(max_examples=40, deadline=None)
def test_read_partition_returns_exactly_the_requested_columns(layouts, requested):
    root, stored_layouts = layouts
    store = PartitionStore(root)
    for partition in stored_layouts[0].partitions:
        full = store.read_partition(partition)
        projected = store.read_partition(partition, requested)
        assert set(projected) == requested
        for name, values in projected.items():
            assert values.dtype == full[name].dtype
            assert values.tobytes() == full[name].tobytes()


class TestColumnFreePredicates:
    """``true``/``false`` reference no column, yet still count every row."""

    PREDICATES = (AlwaysTrue(), AlwaysFalse(), Not(AlwaysFalse()), conjunction([]))

    @pytest.fixture
    def spied(self, layouts):
        root, stored_layouts = layouts
        store = SpyStore(root)
        return QueryExecutor(store), store, stored_layouts[0]

    def expected(self, table, predicate):
        return int(predicate.evaluate(table.columns).sum())

    def test_execute(self, spied, table):
        executor, store, stored = spied
        for predicate in self.PREDICATES:
            result = executor.execute(stored, Query(predicate=predicate))
            assert result.rows_matched == self.expected(table, predicate)
        assert store.calls and all(cols == frozenset() for _, cols in store.calls)

    def test_execute_batch(self, spied, table):
        executor, _, stored = spied
        queries = [Query(predicate=p) for p in self.PREDICATES]
        results = executor.execute_batch(stored, queries)
        assert [r.rows_matched for r in results] == [
            self.expected(table, p) for p in self.PREDICATES
        ]
        assert results[0].rows_matched == results[0].total_rows == NUM_ROWS

    def test_batch_sharing_a_partition_with_a_one_column_query(self, spied, table):
        executor, store, stored = spied
        narrow = eq("c2", 3)
        results = executor.execute_batch(
            stored, [Query(predicate=AlwaysTrue()), Query(predicate=narrow)]
        )
        assert results[0].rows_matched == NUM_ROWS
        assert results[1].rows_matched == self.expected(table, narrow) > 0
        assert {cols for _, cols in store.calls} == {frozenset({"c2"})}

    def test_empty_request_reads_one_member(self, layouts):
        root, stored_layouts = layouts
        partition = stored_layouts[0].partitions[0]
        columns = PartitionStore(root).read_partition(partition, frozenset())
        assert list(columns) == [NAMES[0]]
        assert len(columns[NAMES[0]]) == partition.row_count


class TestUnknownColumn:
    MESSAGE = "predicate references unknown column 'x'"

    @pytest.mark.parametrize(
        "predicate", [eq("x", 1), And((eq("c0", 1), eq("x", 1))), Or((AlwaysTrue(), eq("x", 1)))]
    )
    def test_unknown_column_error_unchanged(self, layouts, predicate):
        root, stored_layouts = layouts
        executor = QueryExecutor(PartitionStore(root))
        with pytest.raises(KeyError, match=self.MESSAGE):
            executor.execute(stored_layouts[1], Query(predicate=predicate))
        with pytest.raises(KeyError, match=self.MESSAGE):
            executor.execute_batch(stored_layouts[1], [Query(predicate=predicate)])

    def test_read_partition_skips_names_the_archive_lacks(self, layouts):
        root, stored_layouts = layouts
        partition = stored_layouts[0].partitions[0]
        store = PartitionStore(root)
        assert store.read_partition(partition, {"x"}) == {}
        assert list(store.read_partition(partition, {"x", "c2"})) == ["c2"]


class TestWhoAsksForWhat:
    """Queries ask for their predicate's columns; row movers for all of them."""

    def test_execute_asks_for_predicate_columns(self, layouts):
        root, stored_layouts = layouts
        store = SpyStore(root)
        executor = QueryExecutor(store)
        predicate = And((between("c0", 5, 25), Or((eq("c3", 2), In("c6", [1, 2, 3])))))
        executor.execute(stored_layouts[0], Query(predicate=predicate))
        assert store.calls
        assert all(cols == predicate.columns() for _, cols in store.calls)

    def test_execute_batch_opens_each_partition_once_for_the_union(self, layouts):
        root, stored_layouts = layouts
        stored = stored_layouts[0]
        store = SpyStore(root)
        predicates = [
            between("c0", 0, 20),
            between("c0", 10, 30),
            And((between("c0", 15, 35), eq("c7", 4))),
            Not(In("c5", [1, 2])),
        ]
        QueryExecutor(store).execute_batch(stored, [Query(predicate=p) for p in predicates])
        opened = [pid for pid, _ in store.calls]
        assert len(opened) == len(set(opened))
        zone_maps = stored.metadata.zone_maps
        expected: dict[int, frozenset[str]] = {}
        for predicate in predicates:
            for pid in zone_maps.relevant_partition_ids(predicate):
                expected[pid] = expected.get(pid, frozenset()) | predicate.columns()
        assert dict(store.calls) == expected

    @pytest.mark.parametrize("mover_threads", [1, 2])
    def test_row_movers_read_every_column(self, table, tmp_path, mover_threads):
        store = SpyStore(tmp_path / "store")
        source = RoundRobinLayout(8)
        target = RangeLayoutBuilder("c0").build(table, [], 8, np.random.default_rng(1))

        stored = store.materialize(table, source)
        assert store.read_all(stored, SCHEMA).num_rows == NUM_ROWS
        assert QueryExecutor(store).full_scan(stored).rows_scanned == NUM_ROWS
        moved, _ = reorganize(store, stored, target, SCHEMA)
        pipeline = AsyncReorgPipeline(
            store, moved, source, SCHEMA, step_partitions=3, mover_threads=mover_threads
        )
        back, _ = pipeline.run_to_completion()
        assert back.total_rows == NUM_ROWS
        # read_all + full_scan + reorganize + the pipeline's read step
        assert len(store.calls) == 8 + 8 + 8 + len(moved.partitions)
        assert all(cols is None for _, cols in store.calls)
