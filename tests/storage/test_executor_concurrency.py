"""Concurrent-caller stress tests for the executor.

Regression suite for the unlocked ``_compiled`` cache: ``lru_get`` pops
and reinserts on every hit, so two concurrent ``query_batch`` calls on one
executor could interleave mid-refresh and drop or duplicate entries.  With
``_cache_lock`` every access serializes; the zone-map index is not the
executor's to guard — each snapshot owns its own.  These tests hammer one
executor from many threads across more layouts and batches than the cache
holds (forcing eviction churn) and assert results stay bit-identical to
the single-threaded baseline, the cache stays bounded, and every snapshot
still plans like a from-scratch index.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.layouts import RangeLayoutBuilder, RoundRobinLayout, ZoneMapIndex
from repro.queries import Query, between
from repro.storage import PartitionStore, QueryExecutor


@pytest.fixture
def executor(tmp_path):
    return QueryExecutor(PartitionStore(tmp_path / "store"))


@pytest.fixture
def stored_layouts(executor, simple_table, rng):
    """Twenty stored layouts, each snapshot compiling its index under load."""
    stored = []
    for i in range(20):
        if i % 2:
            layout = RoundRobinLayout(4 + i % 3, layout_id=f"rr-{i}")
        else:
            layout = RangeLayoutBuilder("x").build(simple_table, [], 4 + i % 5, rng)
        stored.append(executor.store.materialize(simple_table, layout))
    return stored


@pytest.fixture
def batches():
    """Distinct query batches (distinct compiled-workload cache keys)."""
    return [
        [
            Query(predicate=between("x", float(10 * j), float(10 * j + 5 + i)))
            for j in range(3)
        ]
        for i in range(8)
    ]


def test_concurrent_query_batch_matches_serial(executor, stored_layouts, batches):
    expected = {
        (si, bi): [r.rows_matched for r in executor.execute_batch(stored, batch)]
        for si, stored in enumerate(stored_layouts)
        for bi, batch in enumerate(batches)
    }
    start = threading.Barrier(8)
    failures: list[str] = []

    def hammer(seed: int) -> None:
        order = np.random.default_rng(seed)
        start.wait()
        for _ in range(12):
            si = int(order.integers(len(stored_layouts)))
            bi = int(order.integers(len(batches)))
            got = [
                r.rows_matched
                for r in executor.execute_batch(stored_layouts[si], batches[bi])
            ]
            if got != expected[(si, bi)]:
                failures.append(f"layout {si} batch {bi}: {got}")

    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(hammer, range(8)))
    assert not failures


def test_caches_stay_bounded_and_consistent_under_races(
    executor, stored_layouts, batches
):
    start = threading.Barrier(6)

    def hammer(seed: int) -> None:
        order = np.random.default_rng(1000 + seed)
        start.wait()
        for _ in range(20):
            stored = stored_layouts[int(order.integers(len(stored_layouts)))]
            batch = batches[int(order.integers(len(batches)))]
            if order.integers(4) == 0:
                # interleave the per-predicate path (the index's mask LRU)
                executor.execute(stored, batch[0])
            else:
                executor.execute_batch(stored, batch)

    with ThreadPoolExecutor(max_workers=6) as pool:
        list(pool.map(hammer, range(6)))
    # bounded: racing pop-and-reinsert used to let the dict drift past cap
    assert len(executor._compiled) <= QueryExecutor.COMPILED_CACHE_CAP
    # consistent: every snapshot's index, first compiled under the race,
    # plans exactly like one compiled from scratch
    for stored in stored_layouts:
        fresh = ZoneMapIndex(stored.metadata)
        for batch in batches:
            for query in batch:
                assert stored.metadata.zone_maps.relevant_partition_ids(
                    query.predicate
                ) == fresh.relevant_partition_ids(query.predicate)


def test_concurrent_single_execute_matches_serial(executor, stored_layouts):
    query = Query(predicate=between("x", 25.0, 60.0))
    expected = [executor.execute(s, query).rows_matched for s in stored_layouts]
    results: dict[int, list[int]] = {}
    start = threading.Barrier(4)

    def hammer(tag: int) -> None:
        start.wait()
        results[tag] = [executor.execute(s, query).rows_matched for s in stored_layouts]

    threads = [threading.Thread(target=hammer, args=(t,)) for t in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert all(results[tag] == expected for tag in results)
