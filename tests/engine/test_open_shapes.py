"""Open-shape differential: one store behind both ways of opening an engine.

``LayoutEngine.open(table, layout)`` and ``open(initial_layout=layout)`` +
``ingest(table)`` put the same rows under the same layout into the same
``IncrementalStore`` — the first by adopting what ``materialize`` wrote,
the second by appending one batch.  This suite pins that the two are one
code path from there on:

* before a reorganization every query gets equal
  ``(rows_matched, rows_scanned, partitions_scanned)``;
* after one — synchronous, pipelined, and pipelined with a mid-flight
  abort + retry — both hold byte-identical partition files, equal
  metadata and an equal ``stats().movement_charged``;
* a move whose mover raises (``ENOSPC`` on the third file written) is
  abandoned in both shapes and both modes: one ``reorg_aborted`` for the
  one ``reorg_started``, the old epoch keeps answering, the ledger and
  its event stream agree, and a retried ``reorganize`` lands.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.engine import EngineConfig, EventLog, LayoutEngine
from repro.layouts import RangeLayoutBuilder
from repro.queries import Query, between
from repro.storage import partition_store

SHAPES = ("table", "ingest")
MODES = pytest.mark.parametrize("async_reorg", [False, True], ids=["sync", "pipelined"])
ALPHA = 4.0


@pytest.fixture
def layouts(simple_table, rng):
    """Value-deterministic source and target (range layouts ignore row order)."""
    source = RangeLayoutBuilder("x").build(simple_table, [], 5, rng)
    target = RangeLayoutBuilder("y").build(simple_table, [], 6, rng)
    return source, target


@pytest.fixture
def probes(rng):
    lows = rng.uniform(0.0, 85.0, size=10)
    return [Query(predicate=between("x", float(lo), float(lo) + 12.0)) for lo in lows] + [
        Query(predicate=between("y", 5, 20)),
        Query(predicate=between("y", 30, 49)),
    ]


def open_shape(tmp_path, shape, table, layout, async_reorg):
    """An open engine holding ``table`` under ``layout``, plus its event log."""
    log = EventLog()
    config = EngineConfig(
        store_root=tmp_path / shape, alpha=ALPHA, async_reorg=async_reorg, step_partitions=2
    )
    engine = LayoutEngine(config, events=log)
    if shape == "table":
        engine.open(table, layout)
    else:
        engine.open(initial_layout=layout)
        engine.ingest(table)
    return engine, log


def answers(engine, probes):
    results = [engine.query(probe) for probe in probes]
    return [(r.rows_matched, r.rows_scanned, r.partitions_scanned) for r in results]


def files(engine):
    """Every partition file the visible snapshot names: id → bytes."""
    return {p.partition_id: p.path.read_bytes() for p in engine.stored().partitions}


def assert_same_store(engines, target):
    first, second = engines
    for engine in engines:
        assert engine.current_layout is target and not engine.reorg_active
        assert engine.stored().layout is target
    assert first.stored().metadata == second.stored().metadata
    assert files(first) == files(second)
    assert first.stats().movement_charged == second.stats().movement_charged == ALPHA
    assert first.stats().reorgs_completed == second.stats().reorgs_completed == 1


@MODES
def test_shapes_answer_alike_before_and_hold_the_same_bytes_after(
    tmp_path, simple_table, layouts, probes, async_reorg
):
    source, target = layouts
    opened = [open_shape(tmp_path, shape, simple_table, source, async_reorg) for shape in SHAPES]
    engines = [engine for engine, _ in opened]
    try:
        expected = [int(p.predicate.evaluate(simple_table.columns).sum()) for p in probes]
        before = [answers(engine, probes) for engine in engines]
        assert before[0] == before[1]
        assert [matched for matched, _, _ in before[0]] == expected
        for engine in engines:
            engine.reorganize(target)
            engine.run_until_idle()
        assert_same_store(engines, target)
        after = [answers(engine, probes) for engine in engines]
        assert after[0] == after[1]
        assert [matched for matched, _, _ in after[0]] == expected
        # the only thing the shapes disagree on: who may append
        assert [engine.accepts_ingest for engine in engines] == [False, True]
    finally:
        for engine in engines:
            engine.close()


def test_mid_flight_abort_and_retry_lands_on_the_same_bytes(
    tmp_path, simple_table, layouts, probes
):
    source, target = layouts
    opened = [open_shape(tmp_path, shape, simple_table, source, True) for shape in SHAPES]
    engines = [engine for engine, _ in opened]
    sync, _ = open_shape(tmp_path / "sync", "table", simple_table, source, False)
    try:
        for engine, log in opened:
            engine.reorganize(target)
            engine.step()
            engine.step()
            assert engine.abort_reorg() > 0.0
            assert engine.current_layout is source
            assert engine.stats().movement_charged == 0.0
            engine.reorganize(target)
            engine.run_until_idle()
            charges = [p["amount"] for name, p in log.records if name == "movement_charged"]
            assert math.fsum(charges) == pytest.approx(ALPHA, abs=1e-9)
        assert_same_store(engines, target)
        # and the pipelined bytes are the synchronous bytes
        sync.reorganize(target)
        assert_same_store([engines[0], sync], target)
        assert answers(engines[0], probes) == answers(engines[1], probes) == answers(sync, probes)
    finally:
        for engine in (*engines, sync):
            engine.close()


@MODES
@pytest.mark.parametrize("shape", SHAPES)
def test_mover_fault_aborts_the_move_and_serving_continues(
    tmp_path, simple_table, layouts, probes, monkeypatch, shape, async_reorg
):
    """``ENOSPC`` on the third file written — the failing-write fixture of
    ``tests/storage/test_reorg.py`` — must cost exactly one raised call."""
    source, target = layouts
    engine, log = open_shape(tmp_path, shape, simple_table, source, async_reorg)
    try:
        before = answers(engine, probes)
        old_files = files(engine)
        write = partition_store.write_columns
        calls = []

        def failing_write(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise OSError(28, "No space left on device")
            return write(*args, **kwargs)

        monkeypatch.setattr(partition_store, "write_columns", failing_write)
        raised = 0
        try:
            engine.reorganize(target)
            for probe in probes:  # pipelined: the fault surfaces from a step
                engine.query(probe)
        except OSError as error:
            assert error.errno == 28
            raised += 1
        monkeypatch.undo()
        assert raised == 1

        names = log.names()
        assert names.count("reorg_started") == 1
        assert names.count("reorg_aborted") == 1 and names.count("reorg_committed") == 0
        aborted = next(p for name, p in log.records if name == "reorg_aborted")
        assert aborted == {"source_id": source.layout_id, "target_id": target.layout_id}
        assert not engine.reorg_active
        assert engine.current_layout is source
        assert not engine.store.staging_path(target.layout_id).exists()
        charges = [p["amount"] for name, p in log.records if name == "movement_charged"]
        assert math.fsum(charges) == pytest.approx(0.0, abs=1e-9)  # installments refunded
        assert engine.stats().movement_charged == 0.0

        # the old epoch keeps answering — every later query, not just the first
        assert files(engine) == old_files
        assert answers(engine, probes) == before
        held = simple_table
        if shape == "ingest":  # the ingest guard was released with the move
            extra = simple_table.take(np.arange(50))
            engine.ingest(extra)
            held = type(simple_table).concat([simple_table, extra])

        engine.reorganize(target)
        engine.run_until_idle()
        assert engine.current_layout is target
        assert engine.stats().reorgs_completed == 1
        assert engine.stats().movement_charged == ALPHA
        assert log.names().count("reorg_committed") == 1
        assert [matched for matched, _, _ in answers(engine, probes)] == [
            int(p.predicate.evaluate(held.columns).sum()) for p in probes
        ]
    finally:
        engine.close()
