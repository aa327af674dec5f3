"""The event vocabulary, pinned at runtime.

One scripted session fires all 13 engine events.  The test asserts the
exact ``(name, payload keys)`` table — the one documented on
:class:`repro.engine.EngineEvents` — and that the shard-tagged stream is,
shard by shard, exactly that engine's ``EventLog`` stream: nothing is
renamed, reshaped or dropped between the engine's ``_emit`` call sites
and any sink.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro.engine import (
    Decision,
    EngineEvents,
    EventLog,
    ShardedEventLog,
    ShardSpec,
    StoreDir,
    StoreManifest,
    build_target,
)
from repro.queries import Query, ge
from repro.server.events import EventRing
from repro.storage import ColumnSpec, Schema, Table

#: every event the engine can fire → its payload keys, sorted
VOCABULARY = {
    "open": (),
    "close": (),
    "ingest": ("partitions_written", "rows"),
    "ingest_during_reorg": ("partitions_written", "rows", "target_id"),
    "query_served": ("partitions_scanned", "rows_scanned"),
    "layout_admitted": ("layout_id",),
    "layout_pruned": ("layout_id",),
    "reorg_started": ("pipelined", "source_id", "target_id"),
    "reorg_step": ("completed_fraction", "kind", "target_id"),
    "reorg_committed": ("partitions_written", "source_id", "target_id"),
    "reorg_aborted": ("source_id", "target_id"),
    "movement_charged": ("amount",),
    "scenario_phase": ("phase", "scenario"),
}

SCHEMA = Schema(columns=(ColumnSpec("x", "numeric"), ColumnSpec("y", "numeric")))


def _batch(rng: np.random.Generator, n: int = 400) -> Table:
    return Table(
        SCHEMA,
        {"x": rng.uniform(0.0, 100.0, size=n), "y": rng.uniform(0.0, 100.0, size=n)},
    )


class _AdmitThenPrune:
    """Scripted policy: admits a layout on its first query, prunes it on
    the second, never asks for a move (the session reorganizes by hand)."""

    wants_costs = False

    def __init__(self):
        self._script = [Decision(admitted=("cand",)), Decision(pruned=("cand",))]

    def observe(self, query, costs):
        return self._script.pop(0) if self._script else Decision()


def _run_session(engine, rng: np.random.Generator) -> None:
    """Open has fired (and the WAL batch replayed); fire everything else."""
    query = Query(predicate=ge("x", 50.0))
    target = build_target({"kind": "range", "column": "y"}, _batch(rng), 4)
    engine.query(query)  # layout_admitted, query_served
    engine.query(query)  # layout_pruned, query_served
    engine.reorganize(target)  # reorg_started (pipelined)
    engine.step()  # reorg_step, movement_charged
    engine.ingest(_batch(rng))  # ingest, ingest_during_reorg (sidecar)
    assert engine.abort_reorg() > 0.0  # movement_charged (refund), reorg_aborted
    engine.reorganize(target)
    engine.run_until_idle()  # reorg_step…, reorg_committed
    engine.mark_phase("demo", "tail")  # scenario_phase
    engine.close()  # close


@pytest.fixture(scope="module", params=[1, 4], ids=["single", "4-shard"])
def session(request, tmp_path_factory):
    """Run the scripted session once per deployment; return every sink."""
    num_shards = request.param
    rng = np.random.default_rng(7)
    manifest = StoreManifest(
        schema=SCHEMA,
        builder={"kind": "range", "column": "x"},
        engine={
            "num_partitions": 4,
            "alpha": 2.0,
            "async_reorg": True,
            "step_partitions": 1,
        },
        shards=ShardSpec(num_shards, "x") if num_shards > 1 else None,
    )
    store = StoreDir.initialize(tmp_path_factory.mktemp("store") / "s", manifest)
    store.append_batch(_batch(rng))
    tagged, ring = ShardedEventLog(), EventRing()
    if num_shards == 1:
        # single-engine store: the factory tags it as shard 0
        logs = [EventLog()]
        engine = store.open_engine(events=logs[0], shard_events=[tagged, ring])
        engines = [engine]
    else:
        engine = store.open_engine(shard_events=[tagged, ring])
        engines = list(engine.shards)
        # ``events=`` would share one log across shards, and the router
        # offers no per-shard observer argument, so attach one log per
        # shard engine directly (after open + WAL replay already fired).
        logs = [EventLog() for _ in engines]
        for shard, log in zip(engines, logs, strict=True):
            shard._observers = (*shard._observers, log)
    for shard in engines:
        shard.policy = _AdmitThenPrune()
    # records the tagged stream saw before a shard's own log was attached
    skip = [len(tagged.for_shard(k)) - len(logs[k].records) for k in range(num_shards)]
    _run_session(engine, rng)
    return tagged, ring, logs, skip


def test_session_fires_exactly_the_documented_vocabulary(session):
    tagged, _, _, _ = session
    fired = {(name, tuple(sorted(payload))) for _, name, payload in tagged.records}
    assert fired == set(VOCABULARY.items())


def test_tagged_stream_is_each_engines_event_log_plus_the_shard(session):
    tagged, _, logs, skip = session
    for shard, log in enumerate(logs):
        assert tagged.for_shard(shard)[skip[shard]:] == log.records
        assert log.records  # every shard took part
        assert log.names()[-1] == "close"


def test_events_route_json_carries_the_same_records(session):
    """Payload values are JSON primitives: the ring's wire records equal
    the tagged stream with nothing stringified on the way."""
    tagged, ring, logs, _ = session
    wire = ring.tail()
    assert [r["seq"] for r in wire] == list(range(len(wire)))
    for shard in range(len(logs)):  # cross-shard interleaving may differ per sink
        own = [(r["event"], r["payload"]) for r in wire if r["shard"] == shard]
        assert own == tagged.for_shard(shard)


def test_documented_tables_match_the_vocabulary():
    """The ``EngineEvents`` docstring and docs/engine.md spell the same table."""
    doc = EngineEvents.__doc__
    rows = {line.split()[0]: line for line in doc.splitlines() if line.strip()}
    for name, keys in VOCABULARY.items():
        documented = rows[name].split("(", 1)[1].split(")", 1)[0]
        assert sorted(filter(None, documented.split(", "))) == list(keys)
    markdown = (Path(__file__).parents[2] / "docs" / "engine.md").read_text()
    table = {
        cells[1].strip("` "): sorted(re.findall(r"`(\w+)`", cells[2]))
        for cells in (line.split("|") for line in markdown.splitlines())
        if len(cells) == 5 and cells[1].strip("` ") in VOCABULARY
    }
    assert table == {name: list(keys) for name, keys in VOCABULARY.items()}
