"""Property suite pinning the scenario-pack contract (satellite of PR 9).

Three properties are contractual for every pack:

* **seed determinism** — a pack is a pure function of its constructor
  arguments: two instances with identical arguments yield bit-identical
  event streams (queries compared structurally, batches compared
  array-for-array);
* **resumability** — ``events(start=k)`` equals the suffix of the full
  stream from ``k``, for any ``k``;
* **schema validity** — every emitted batch conforms to the pack's
  schema and every query evaluates against it (columns exist, masks are
  boolean, predicates are finite).
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.workloads import (
    AdversarialPack,
    DriftingPredicatesPack,
    FlashCrowdPack,
    IngestEvent,
    MultiTenantPack,
    QueryEvent,
)

PACK_CLASSES = (
    FlashCrowdPack,
    DriftingPredicatesPack,
    MultiTenantPack,
    AdversarialPack,
)

pack_strategy = st.builds(
    lambda cls, seed, num_events, ingest_every: cls(
        seed=seed,
        num_events=num_events,
        base_rows=300,
        ingest_every=ingest_every,
        ingest_rows=40,
    ),
    st.sampled_from(PACK_CLASSES),
    st.integers(min_value=0, max_value=2**20),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=10),
)


def event_fingerprint(event):
    """Structural identity of one event (Query equality includes the
    process-global qid counter, so queries compare by cache_key)."""
    if isinstance(event, QueryEvent):
        return (
            "query",
            event.time,
            event.phase,
            event.query.template,
            event.query.timestamp,
            event.query.cache_key(),
        )
    assert isinstance(event, IngestEvent)
    return (
        "ingest",
        event.time,
        event.phase,
        tuple(
            (name, event.batch[name].tobytes())
            for name in event.batch.schema.names()
        ),
    )


@given(pack=pack_strategy)
@settings(max_examples=40)
def test_same_arguments_yield_identical_streams(pack):
    twin = type(pack)(
        seed=pack.seed,
        num_events=pack.num_events,
        base_rows=pack.base_rows,
        ingest_every=pack.ingest_every,
        ingest_rows=pack.ingest_rows,
    )
    ours = [event_fingerprint(e) for e in pack.events()]
    theirs = [event_fingerprint(e) for e in twin.events()]
    assert ours == theirs
    for name in pack.schema().names():
        assert np.array_equal(pack.base_table()[name], twin.base_table()[name])


@given(pack=pack_strategy, data=st.data())
@settings(max_examples=40)
def test_resuming_mid_stream_never_diverges(pack, data):
    start = data.draw(
        st.integers(min_value=0, max_value=pack.num_events), label="start"
    )
    full = [event_fingerprint(e) for e in pack.events()]
    resumed = [event_fingerprint(e) for e in pack.events(start=start)]
    assert resumed == full[start:]


@given(pack=pack_strategy)
@settings(max_examples=25)
def test_every_event_is_schema_valid(pack):
    schema = pack.schema()
    names = set(schema.names())
    base = pack.base_table()
    assert base.schema == schema
    for event in pack.events():
        if isinstance(event, IngestEvent):
            assert event.batch.schema == schema
            for name in schema.names():
                assert np.all(np.isfinite(event.batch[name]))
        else:
            assert event.query.columns() <= names
            mask = event.query.evaluate(base.columns)
            assert mask.dtype == bool and mask.shape == (base.num_rows,)


def base_fingerprint(pack):
    base = pack.base_table()
    return tuple((name, base[name].tobytes()) for name in base.schema.names())


@given(
    pack=pack_strategy,
    other_seed=st.integers(min_value=0, max_value=2**20),
)
@example(
    pack=DriftingPredicatesPack(
        seed=0, num_events=3, base_rows=300, ingest_every=0, ingest_rows=40
    ),
    other_seed=1,
)
@settings(max_examples=15)
def test_different_seeds_change_the_stream(pack, other_seed):
    if other_seed == pack.seed:
        return
    other = type(pack)(
        seed=other_seed,
        num_events=pack.num_events,
        base_rows=pack.base_rows,
        ingest_every=pack.ingest_every,
        ingest_rows=pack.ingest_rows,
    )
    ours = [event_fingerprint(e) for e in pack.events()]
    theirs = [event_fingerprint(e) for e in other.events()]
    # The events alone may coincide on a short stream: a drifting pack
    # without ingests draws, with p = 0.8 per event, a ``rolling_window``
    # query that is a function of the event index only (the pinned
    # example).  What a seed must change is the scenario — the seeded
    # base table together with the events played against it.
    assert (base_fingerprint(pack), ours) != (base_fingerprint(other), theirs)
