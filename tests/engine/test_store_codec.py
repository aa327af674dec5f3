"""Store directories on the partition codec: no literal parse, old logs open.

The read path parses one JSON header and inflates zlib blobs; it never
parses a Python literal.  ``np.load`` parsed every ``.npy`` header with
``ast.literal_eval``, and concurrent shard threads doing so made CPython
raise ``AST constructor recursion depth mismatch``.  The first tests
make ``ast.literal_eval`` raise and drive every read path through it.

An ingest log written by the ``.npz`` version of the store still opens:
its batches replay, answer as a fresh store over the same rows, and a
new batch lands in the current format under the next sequence number.
"""

from __future__ import annotations

import ast
import importlib

import numpy as np
import pytest

from repro.engine import ShardSpec, StoreDir, StoreManifest
from repro.layouts import RangeLayoutBuilder
from repro.queries import Query, between, ge
from repro.queries.predicates import AlwaysTrue
from repro.storage import ColumnSpec, PartitionStore, QueryExecutor, Schema, Table

SCHEMA = Schema(
    columns=(
        ColumnSpec("x", "numeric"),
        ColumnSpec("color", "categorical", ("red", "green", "blue")),
    )
)
QUERIES = [
    Query(between("x", 10.0, 40.0)),
    Query(ge("x", 75.0)),
    Query(AlwaysTrue()),
]


def make_batch(rng: np.random.Generator, n: int = 200) -> Table:
    return Table(
        SCHEMA,
        {
            "x": rng.uniform(0.0, 100.0, size=n),
            "color": rng.integers(0, 3, size=n).astype(np.int64),
        },
    )


def make_store(root, **overrides) -> StoreDir:
    manifest = StoreManifest(
        schema=SCHEMA,
        builder={"kind": "range", "column": "x"},
        engine={"num_partitions": 4, "alpha": 2.0},
        **overrides,
    )
    return StoreDir.initialize(root, manifest)


def expected_matches(batches: list[Table]) -> list[int]:
    return [
        sum(int(query.predicate.evaluate(batch.columns).sum()) for batch in batches)
        for query in QUERIES
    ]


@pytest.fixture
def no_literal_eval(monkeypatch):
    # numpy imports numpy.ma lazily (first np.unique), and that import
    # parses builtin signatures with ast.literal_eval; import it up front.
    importlib.import_module("numpy.ma")

    def refuse(*_args, **_kwargs):
        raise RuntimeError("ast.literal_eval called on the partition read path")

    monkeypatch.setattr(ast, "literal_eval", refuse)


# ------------------------------------------------- no Python-literal parse
def test_wal_replay_and_engine_reads(tmp_path, rng, no_literal_eval):
    store = make_store(tmp_path / "s")
    batches = [make_batch(rng) for _ in range(3)]
    for batch in batches:
        store.append_batch(batch)
    engine = store.open_engine()
    try:
        assert [engine.query(q).rows_matched for q in QUERIES] == expected_matches(batches)
        assert [r.rows_matched for r in engine.query_batch(QUERIES)] == expected_matches(
            batches
        )
    finally:
        engine.close()


def test_executor_execute_and_execute_batch(tmp_path, rng, no_literal_eval):
    table = make_batch(rng, 1_000)
    store = PartitionStore(tmp_path / "p")
    layout = RangeLayoutBuilder("x").build(table, [], 6, np.random.default_rng(0))
    stored = store.materialize(table, layout)
    executor = QueryExecutor(store)
    expected = expected_matches([table])
    assert [executor.execute(stored, q).rows_matched for q in QUERIES] == expected
    assert [r.rows_matched for r in executor.execute_batch(stored, QUERIES)] == expected
    assert executor.full_scan(stored).rows_scanned == table.num_rows


def test_four_shard_query_batch(tmp_path, rng, no_literal_eval):
    store = make_store(tmp_path / "s", shards=ShardSpec(4, "x"))
    batches = [make_batch(rng) for _ in range(2)]
    for batch in batches:
        store.append_batch(batch)
    engine = store.open_engine()
    try:
        for _ in range(5):
            results = engine.query_batch(QUERIES)
            assert [r.rows_matched for r in results] == expected_matches(batches)
    finally:
        engine.close()


# ------------------------------------------------------- cross-codec stores
def log_as_npz(store: StoreDir, batches: list[Table]) -> None:
    """Write ``batches`` into the ingest log as the ``.npz`` store did."""
    for sequence, batch in enumerate(batches):
        rows = np.arange(batch.num_rows)
        arrays = {name: batch[name][rows] for name in SCHEMA.names()}
        with open(store.wal_root / f"part-{sequence:05d}.npz", "wb") as handle:
            np.savez_compressed(handle, **arrays)


def answers(store: StoreDir) -> list[tuple[int, int]]:
    engine = store.open_engine()
    try:
        return [(r.rows_matched, r.total_rows) for r in engine.query_batch(QUERIES)]
    finally:
        engine.close()


@pytest.mark.parametrize("shards", [None, ShardSpec(4, "x")], ids=["single", "sharded"])
def test_npz_log_answers_like_a_fresh_store(tmp_path, rng, shards):
    batches = [make_batch(rng) for _ in range(3)]
    legacy = make_store(tmp_path / "legacy", shards=shards)
    log_as_npz(legacy, batches)
    fresh = make_store(tmp_path / "fresh", shards=shards)
    for batch in batches:
        fresh.append_batch(batch)
    assert answers(legacy) == answers(fresh)
    assert [r for r, _ in answers(legacy)] == expected_matches(batches)

    extra = make_batch(rng)
    appended = legacy.append_batch(extra)
    assert appended.name == f"part-00003{appended.suffix}"
    assert appended.suffix != ".npz"
    assert legacy.batches_logged == 4
    replayed = legacy.read_batches()
    for original, restored in zip([*batches, extra], replayed, strict=True):
        for name in SCHEMA.names():
            assert restored[name].dtype == original[name].dtype
            np.testing.assert_array_equal(restored[name], original[name])
    assert [r for r, _ in answers(legacy)] == expected_matches([*batches, extra])


def test_torn_npz_tail_is_dropped_and_earlier_damage_raises(tmp_path, rng):
    store = make_store(tmp_path / "s")
    log_as_npz(store, [make_batch(rng) for _ in range(2)])
    first, tail = sorted(store.wal_root.iterdir())
    tail.write_bytes(tail.read_bytes()[:50])
    assert len(store.read_batches()) == 1
    first.write_bytes(b"garbage")
    with pytest.raises(RuntimeError, match="corrupt"):
        store.read_batches()
