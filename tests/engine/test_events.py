"""Event lifecycle tests: firing order, payloads, multi-observer fanout."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    EngineConfig,
    EngineEvents,
    EventLog,
    LayoutEngine,
)
from repro.layouts import RangeLayoutBuilder
from repro.queries import Query, between
from repro.workloads import tpch


@pytest.fixture(scope="module")
def bundle():
    return tpch.load(3_000, np.random.default_rng(0))


@pytest.fixture(scope="module")
def layouts(bundle):
    rng = np.random.default_rng(1)
    first = RangeLayoutBuilder(bundle.default_sort_column).build(
        bundle.table, [], 4, rng
    )
    second = RangeLayoutBuilder("l_quantity").build(bundle.table, [], 4, rng)
    return first, second


@pytest.fixture(scope="module")
def query(bundle):
    values = bundle.table["l_quantity"]
    lo, hi = float(np.min(values)), float(np.max(values))
    return Query(predicate=between("l_quantity", lo, lo + (hi - lo) / 8.0))


def test_open_close_events(tmp_path, bundle, layouts):
    first, _ = layouts
    log = EventLog()
    config = EngineConfig(store_root=tmp_path / "s", cleanup_on_close=True)
    engine = LayoutEngine(config, events=log)
    engine.open(bundle.table, first)
    engine.close()
    assert log.names() == ["open", "close"]


def test_sync_reorg_event_order(tmp_path, bundle, layouts, query):
    first, second = layouts
    log = EventLog()
    config = EngineConfig(store_root=tmp_path / "s", alpha=4.0, cleanup_on_close=True)
    with LayoutEngine(config, events=log).open(bundle.table, first) as engine:
        engine.query(query)
        engine.reorganize(second)
        engine.query(query)
    assert log.names() == [
        "open",
        "query_served",
        "reorg_started",
        "movement_charged",
        "reorg_committed",
        "query_served",
        "close",
    ]
    started = dict(log.records)["reorg_started"]
    assert started == {
        "source_id": first.layout_id,
        "target_id": second.layout_id,
        "pipelined": False,
    }
    assert dict(log.records)["movement_charged"]["amount"] == 4.0


def test_pipelined_reorg_event_order(tmp_path, bundle, layouts, query):
    first, second = layouts
    log = EventLog()
    config = EngineConfig(
        store_root=tmp_path / "s",
        alpha=4.0,
        async_reorg=True,
        step_partitions=1,
        cleanup_on_close=True,
    )
    with LayoutEngine(config, events=log).open(bundle.table, first) as engine:
        engine.reorganize(second)
        while engine.reorg_active:
            engine.query(query)  # serve + one movement step per query
    names = log.names()
    # the reorg starts exactly once, commits exactly once, at the end
    assert names.count("reorg_started") == 1
    assert names.count("reorg_committed") == 1
    assert names.index("reorg_started") < names.index("reorg_committed")
    # movement steps interleave with served queries between start and commit
    steps = [name for name in names if name == "reorg_step"]
    assert len(steps) >= 3  # read/assign/write/commit at 1 file per step
    # per-query interleaving: a query_served is followed by a reorg_step
    first_serve = names.index("query_served")
    assert names[first_serve + 1] == "reorg_step"
    # installments sum to exactly alpha
    charges = [
        payload["amount"] for name, payload in log.records if name == "movement_charged"
    ]
    assert sum(charges) == pytest.approx(4.0)
    # step payloads carry the pipeline phases in order
    kinds = [
        payload["kind"] for name, payload in log.records if name == "reorg_step"
    ]
    assert kinds[0] == "read"
    assert kinds[-1] == "commit"
    assert dict(log.records)["reorg_committed"]["target_id"] == second.layout_id


def test_abort_refund_keeps_event_ledger_consistent(tmp_path, bundle, layouts):
    """Installments of an aborted move are refunded in the event stream,
    so summing movement_charged events always equals stats()."""
    first, second = layouts
    log = EventLog()
    config = EngineConfig(
        store_root=tmp_path / "s",
        alpha=4.0,
        async_reorg=True,
        step_partitions=1,
        cleanup_on_close=True,
    )
    engine = LayoutEngine(config, events=log).open(bundle.table, first)
    engine.reorganize(second)
    for _ in range(3):
        engine.step()  # emit a few installments, then abandon the move
    engine.close()
    charges = [
        payload["amount"] for name, payload in log.records if name == "movement_charged"
    ]
    assert len(charges) >= 4  # 3 installments + the compensating refund
    assert charges[-1] < 0.0
    assert sum(charges) == pytest.approx(engine.stats().movement_charged)
    assert engine.stats().movement_charged == 0.0
    names = log.names()
    assert names.index("movement_charged", names.index("reorg_started")) < names.index(
        "reorg_aborted"
    )


def test_ingest_events(tmp_path, bundle):
    log = EventLog()
    config = EngineConfig(
        store_root=tmp_path / "s",
        builder=RangeLayoutBuilder(bundle.default_sort_column),
        data_sample_fraction=0.5,
        num_partitions=2,
        cleanup_on_close=True,
    )
    with LayoutEngine(config, events=log) as engine:
        engine.ingest(bundle.table.sample(0.3, np.random.default_rng(0)))
        engine.ingest(bundle.table.sample(0.3, np.random.default_rng(1)))
    ingests = [payload for name, payload in log.records if name == "ingest"]
    assert len(ingests) == 2
    assert all(payload["rows"] > 0 for payload in ingests)
    assert all(payload["partitions_written"] > 0 for payload in ingests)
    # no consolidation ran: the sidecar hook never fired
    assert "ingest_during_reorg" not in log.names()


def test_ingest_during_reorg_fires_both_hooks(tmp_path, bundle, layouts):
    _, second = layouts
    log = EventLog()
    config = EngineConfig(
        store_root=tmp_path / "s",
        builder=RangeLayoutBuilder(bundle.default_sort_column),
        data_sample_fraction=0.5,
        num_partitions=4,
        async_reorg=True,
        step_partitions=1,
        cleanup_on_close=True,
    )
    with LayoutEngine(config, events=log) as engine:
        engine.ingest(bundle.table.sample(0.3, np.random.default_rng(0)))
        engine.ingest(bundle.table.sample(0.3, np.random.default_rng(1)))
        engine.reorganize(second)
        assert engine.reorg_active
        mid_flight = bundle.table.sample(0.2, np.random.default_rng(2))
        engine.ingest(mid_flight)
        engine.run_until_idle()
    sidecar = [
        payload for name, payload in log.records if name == "ingest_during_reorg"
    ]
    assert len(sidecar) == 1
    assert sidecar[0]["rows"] == mid_flight.num_rows
    assert sidecar[0]["partitions_written"] > 0
    assert sidecar[0]["target_id"] == second.layout_id
    # the plain ingest hook fired for every batch, sidecar ones included:
    # an observer summing rows over on_ingest alone stays correct
    ingests = [payload for name, payload in log.records if name == "ingest"]
    assert len(ingests) == 3
    assert sum(p["rows"] for p in ingests) == engine.stats().rows_ingested
    # the sidecar hook fired immediately after its batch's plain hook
    names = log.names()
    position = names.index("ingest_during_reorg")
    assert names[position - 1] == "ingest"


def test_multiple_observers_fan_out_in_order(tmp_path, bundle, layouts, query):
    first, _ = layouts
    calls: list[str] = []

    class Tagged:  # duck-typed: any object with on_event is an observer
        def __init__(self, tag):
            self.tag = tag

        def on_event(self, name, payload):
            if name == "query_served":
                calls.append(self.tag)

    config = EngineConfig(store_root=tmp_path / "s", cleanup_on_close=True)
    engine = LayoutEngine(config, events=[Tagged("a"), Tagged("b")])
    with engine.open(bundle.table, first):
        engine.query(query)
    assert calls == ["a", "b"]


@pytest.mark.parametrize(
    "wrap", [lambda o: o, lambda o: [o], lambda o: iter((o,))], ids=["bare", "list", "iterator"]
)
def test_events_argument_takes_one_observer_or_any_iterable(
    tmp_path, bundle, layouts, wrap
):
    first, _ = layouts
    log = EventLog()
    config = EngineConfig(store_root=tmp_path / "s", cleanup_on_close=True)
    with LayoutEngine(config, events=wrap(log)).open(bundle.table, first):
        pass
    assert log.names() == ["open", "close"]


def test_observer_sees_engine_on_open(tmp_path, bundle, layouts, query):
    """``open`` fires once the engine is usable (an observer can already
    read ``current_layout``), and ``close`` is the last event."""
    first, _ = layouts
    seen: list[tuple[str, object]] = []

    class Probe(EngineEvents):
        engine: LayoutEngine

        def on_event(self, name, payload):
            layout = self.engine.current_layout
            seen.append((name, layout.layout_id if layout is not None else None))

    probe = Probe()
    config = EngineConfig(store_root=tmp_path / "s", cleanup_on_close=True)
    probe.engine = LayoutEngine(config, events=probe)
    with probe.engine.open(bundle.table, first) as engine:
        engine.query(query)
    assert seen[0] == ("open", first.layout_id)
    assert [name for name, _ in seen].count("open") == 1
    assert seen[-1][0] == "close"


def test_event_log_records_concurrently_without_loss():
    """Regression: ``EventLog`` used to append to a plain list
    with no lock, so concurrent shard threads sharing one observer could
    interleave mid-append and drop records.  With the lock, every record
    from every thread lands exactly once."""
    import threading

    log = EventLog()
    threads_n, per_thread = 8, 200
    barrier = threading.Barrier(threads_n)

    def hammer(tag: int) -> None:
        barrier.wait()
        for i in range(per_thread):
            log.on_event("movement_charged", {"amount": float(tag * per_thread + i)})

    threads = [threading.Thread(target=hammer, args=(t,)) for t in range(threads_n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(log.records) == threads_n * per_thread
    amounts = sorted(payload["amount"] for _, payload in log.records)
    assert amounts == [float(i) for i in range(threads_n * per_thread)]
    # per-thread subsequences stay in each thread's firing order
    for tag in range(threads_n):
        lo, hi = tag * per_thread, (tag + 1) * per_thread
        own = [
            payload["amount"]
            for _, payload in log.records
            if lo <= payload["amount"] < hi
        ]
        assert own == [float(i) for i in range(lo, hi)]


def test_default_observer_is_a_noop(tmp_path, bundle, layouts, query):
    first, _ = layouts
    config = EngineConfig(store_root=tmp_path / "s", cleanup_on_close=True)
    # a bare EngineEvents must be attachable without overriding anything
    with LayoutEngine(config, events=EngineEvents()).open(bundle.table, first) as engine:
        engine.query(query)
        engine.reorganize(first)  # no-op
    # nothing raised; nothing to assert beyond survival
