"""Differential proof: engine-driven replay ≡ the pre-facade loop, bit for bit.

``replay_physical`` is now a thin driver over ``LayoutEngine`` +
``SchedulePolicy``; the pre-facade hand-wired loop is kept verbatim as
``_replay_physical_direct``.  These tests drive both over the same
logical schedules — hypothesis-generated switch patterns, strides and
step budgets, in both synchronous and pipelined modes — and assert:

* identical deterministic counters (switches, sample sizes, movement
  charged — the ledger totals);
* identical final metadata *and partition file bytes*: every
  ``PartitionStore.delete_layout`` call is intercepted to snapshot the
  directory before deletion, so the comparison covers the exact bytes
  each path left on disk at the end of the run (and, in sync mode, each
  retired layout along the way).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RunLedger
from repro.experiments.harness import MethodResult
from repro.experiments.physical import _replay_physical_direct, replay_physical
from repro.layouts import RangeLayoutBuilder
from repro.queries import Query, QueryStream, between
from repro.storage import PartitionStore
from repro.storage.partition_store import PARTITION_SUFFIX
from repro.workloads import tpch


@pytest.fixture(scope="module")
def bundle():
    return tpch.load(1_500, np.random.default_rng(0))


@pytest.fixture(scope="module")
def layout_pool(bundle):
    rng = np.random.default_rng(1)
    return [
        RangeLayoutBuilder("l_shipdate").build(bundle.table, [], 4, rng),
        RangeLayoutBuilder("l_quantity").build(bundle.table, [], 3, rng),
        RangeLayoutBuilder("l_extendedprice").build(bundle.table, [], 5, rng),
    ]


@pytest.fixture(scope="module")
def query_pool(bundle):
    rng = np.random.default_rng(2)
    values = bundle.table["l_quantity"]
    lo, hi = float(np.min(values)), float(np.max(values))
    span = (hi - lo) / 10.0
    return [
        Query(predicate=between("l_quantity", float(s), float(s) + span))
        for s in rng.uniform(lo, hi - span, size=16)
    ]


def build_schedule(layout_pool, layout_choices, alpha):
    """A MethodResult whose history follows ``layout_choices`` per query."""
    ledger = RunLedger()
    previous = None
    for choice in layout_choices:
        layout_id = layout_pool[choice].layout_id
        switched = previous is not None and layout_id != previous
        ledger.record(0.1, alpha if switched and alpha else 0.0, layout_id, switched)
        previous = layout_id
    return MethodResult(
        method="manual",
        summary=ledger.summary(),
        ledger=ledger,
        layouts={layout.layout_id: layout for layout in layout_pool},
    )


@contextmanager
def capture_deletes():
    """Intercept delete_layout: snapshot (id, metadata, file bytes) first."""
    captured = []
    original = PartitionStore.delete_layout

    def wrapper(self, stored):
        layout_dir = self.root / stored.layout.layout_id
        files = {}
        if layout_dir.exists():
            files = {
                path.name: path.read_bytes()
                for path in sorted(layout_dir.glob(f"*{PARTITION_SUFFIX}"))
            }
        captured.append((stored.layout.layout_id, stored.metadata, files))
        return original(self, stored)

    PartitionStore.delete_layout = wrapper
    try:
        yield captured
    finally:
        PartitionStore.delete_layout = original


def assert_replays_identical(
    bundle, layout_pool, query_pool, tmp_path, *,
    layout_choices, query_choices, sample_stride, async_reorg,
    step_partitions, alpha,
):
    """Run both replay paths on one schedule; assert bit-for-bit equality."""
    stream = QueryStream(queries=tuple(query_pool[i] for i in query_choices))
    result = build_schedule(layout_pool, layout_choices, alpha)
    with capture_deletes() as engine_deletes:
        engine_run = replay_physical(
            bundle.table, stream, result, tmp_path / "engine",
            sample_stride=sample_stride, async_reorg=async_reorg,
            step_partitions=step_partitions, alpha=alpha,
        )
    with capture_deletes() as direct_deletes:
        direct_run = _replay_physical_direct(
            bundle.table, stream, result, tmp_path / "direct",
            sample_stride=sample_stride, async_reorg=async_reorg,
            step_partitions=step_partitions, alpha=alpha,
        )

    # --- deterministic counters & ledger totals -------------------------
    assert engine_run.num_switches == direct_run.num_switches
    assert engine_run.queries_timed == direct_run.queries_timed
    assert engine_run.queries_total == direct_run.queries_total
    assert engine_run.movement_charged == direct_run.movement_charged
    if alpha is not None:
        assert engine_run.movement_charged == pytest.approx(
            result.summary.total_reorg_cost
        )

    # --- metadata + partition bytes at every deletion point -------------
    assert len(engine_deletes) == len(direct_deletes)
    for (eid, emeta, efiles), (did, dmeta, dfiles) in zip(
        engine_deletes, direct_deletes, strict=True
    ):
        assert eid == did
        assert efiles, f"{eid}: no partition files captured"
        assert emeta == dmeta
        assert sorted(efiles) == sorted(dfiles)
        for name in efiles:
            assert efiles[name] == dfiles[name], f"{eid}/{name} bytes differ"


# Positions where the schedule may switch to a different layout, as
# (fraction of stream, layout index) pairs; hypothesis shrinks nicely on it.
switch_plan = st.lists(
    st.tuples(st.floats(0.01, 0.99), st.integers(0, 2)),
    min_size=0,
    max_size=3,
)


@settings(max_examples=12)
@given(
    num_queries=st.integers(8, 24),
    plan=switch_plan,
    query_seed=st.integers(0, 2**16),
    sample_stride=st.sampled_from([1, 3, 7]),
    async_reorg=st.booleans(),
    step_partitions=st.sampled_from([1, 2, 5]),
    alpha=st.sampled_from([None, 5.0]),
)
def test_engine_replay_equals_direct(
    bundle, layout_pool, query_pool, tmp_path_factory,
    num_queries, plan, query_seed, sample_stride, async_reorg,
    step_partitions, alpha,
):
    choices = [0] * num_queries
    current = 0
    for fraction, layout_index in sorted(plan):
        position = int(fraction * num_queries)
        if layout_index != current and 0 < position < num_queries:
            choices[position:] = [layout_index] * (num_queries - position)
            current = layout_index
    rng = np.random.default_rng(query_seed)
    query_choices = rng.integers(0, len(query_pool), size=num_queries).tolist()
    assert_replays_identical(
        bundle, layout_pool, query_pool,
        tmp_path_factory.mktemp("diff"),
        layout_choices=choices, query_choices=query_choices,
        sample_stride=sample_stride, async_reorg=async_reorg,
        step_partitions=step_partitions, alpha=alpha,
    )


@pytest.mark.parametrize("async_reorg", [False, True])
def test_multi_switch_schedule(bundle, layout_pool, query_pool, tmp_path, async_reorg):
    """Deterministic anchor: three switches, both modes, stride 2."""
    choices = [0] * 6 + [1] * 6 + [2] * 6 + [0] * 6
    assert_replays_identical(
        bundle, layout_pool, query_pool, tmp_path,
        layout_choices=choices, query_choices=list(range(16)) + [0] * 8,
        sample_stride=2, async_reorg=async_reorg, step_partitions=2, alpha=5.0,
    )


def test_switch_at_stream_end_drains_pipeline(
    bundle, layout_pool, query_pool, tmp_path
):
    """The stream ends with the move in flight: both paths must drain it."""
    choices = [0] * 14 + [1] * 2  # pipeline cannot finish in 2 ticks
    assert_replays_identical(
        bundle, layout_pool, query_pool, tmp_path,
        layout_choices=choices, query_choices=[i % 16 for i in range(16)],
        sample_stride=1, async_reorg=True, step_partitions=1, alpha=5.0,
    )


def test_back_to_back_switches_serialize(bundle, layout_pool, query_pool, tmp_path):
    """A switch arriving mid-pipeline drains the in-flight move first."""
    choices = [0] * 5 + [1] * 2 + [2] * 9  # second switch lands mid-move
    assert_replays_identical(
        bundle, layout_pool, query_pool, tmp_path,
        layout_choices=choices, query_choices=[i % 16 for i in range(16)],
        sample_stride=1, async_reorg=True, step_partitions=1, alpha=5.0,
    )
