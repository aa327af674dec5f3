"""The LayoutEngine facade: the paper's online loop behind one object.

§V of the paper is a single loop — serve a query, observe its cost, let
the controller decide, reorganize — but before this module the loop only
existed pre-assembled inside the replay driver and the experiment
harness; production-style callers had to hand-wire ``PartitionStore`` +
``IncrementalStore`` + ``QueryExecutor`` + ``CostEvaluator`` +
``ReorgScheduler`` themselves.  :class:`LayoutEngine` owns that wiring:

* **lifecycle** — ``open()`` / ``close()`` (or the context manager),
  with an in-flight pipelined reorganization aborted safely on close.
  Every open shape is **one** ``IncrementalStore`` (a table opened whole
  is its first component, written by ``materialize``): it owns the
  visible snapshot, and the scheduler's pipeline owns the in-flight move;
* **data plane** — ``ingest(batch)`` appends under the current layout
  (§III-C incremental clustering), ``query(q)`` / ``query_batch(qs)``
  serve against the visible epoch with metadata pruning;
* **decision plane** — every query flows through the configured
  :class:`~repro.engine.policies.ReorgPolicy`; a returned target starts
  a real reorganization, synchronous or pipelined per the config; one
  that raises is abandoned (``reorg_aborted``) before the error
  propagates, so every ``reorg_started`` gets exactly one terminal event;
* **reorg progress** — ``step()`` advances one bounded movement step,
  ``run_until_idle()`` drains the pipeline, and every transition fires
  an event to the :class:`~repro.engine.events.EngineEvents` observers
  in a fixed order.

The engine serializes reorganizations exactly like the logical model: a
switch decision arriving while a pipelined move is in flight drains the
pipeline first.  Within one ``query()`` call the order is decision →
(reorg start) → execute → (one movement step) → (commit) — the same
interleaving the pre-facade replay loop used, which is why the
differential suite can assert bit-for-bit equality between the two.
"""

from __future__ import annotations

import functools
import threading
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, fields
from typing import Any, TypeVar, cast

import numpy as np

from ..core.cost_model import CostEvaluator
from ..core.reorg_scheduler import ReorgScheduler, ScheduledStep
from ..layouts.base import DataLayout
from ..queries.query import Query
from ..storage.executor import QueryExecutor, QueryResult
from ..storage.ingest import IncrementalStore
from ..storage.partition import StoredLayout
from ..storage.partition_store import PartitionStore
from ..storage.reorg import ReorgResult
from ..storage.table import Schema, Table
from .config import EngineConfig
from .events import EngineEvents, _as_tuple
from .policies import NeverReorganize, ReorgPolicy

__all__ = ["EngineStats", "LayoutEngine"]

_F = TypeVar("_F", bound=Callable[..., Any])


def _serialized(method: _F) -> _F:
    """Run a public engine entry point under the per-engine serving lock.

    The lock is *reentrant*: one serving call may legitimately nest
    others (``query`` steps the scheduler, observers fired mid-call may
    read ``stats()``), and those must not self-deadlock.  Cross-thread
    callers — the sharded router's fan-out pool — serialize instead, so
    the engine's cooperative decision → serve → step interleaving is
    preserved no matter which thread a call arrives on.
    """

    @functools.wraps(method)
    def wrapper(self: "LayoutEngine", *args: Any, **kwargs: Any) -> Any:
        with self._serving_lock:
            return method(self, *args, **kwargs)

    return cast("_F", wrapper)


@dataclass(frozen=True)
class EngineStats:
    """Counters of everything an engine did since ``open()``."""

    #: queries executed (``query`` + ``query_batch``)
    queries_served: int
    #: rows appended through ``ingest``
    rows_ingested: int
    #: ``ingest`` calls that wrote data
    batches_ingested: int
    #: reorganizations started (decision-level layout switches)
    num_switches: int
    #: reorganizations whose final commit landed
    reorgs_completed: int
    #: wall-clock seconds spent moving data (sync + pipelined)
    reorg_seconds: float
    #: movement budget charged (α per reorg; installments in pipelined mode)
    movement_charged: float
    #: bytes decompressed to answer queries
    bytes_read: int

    def to_dict(self) -> dict[str, int | float]:
        """JSON-serializable mapping with one entry per counter field.

        The inverse of :meth:`from_dict`: ``EngineStats.from_dict(s.to_dict())``
        reconstructs ``s`` exactly, which is what the HTTP ``/stats`` route
        and ``repro stats --format json`` serialize over the wire.
        """
        return {field.name: getattr(self, field.name) for field in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, int | float]) -> "EngineStats":
        """Rebuild stats from a :meth:`to_dict` mapping; strict on keys.

        Missing or unknown keys raise ``ValueError`` naming the offending
        fields, so a stats payload produced by a different engine version
        fails loudly instead of silently zero-filling counters.
        """
        expected = {field.name for field in fields(cls)}
        missing = expected - set(data)
        if missing:
            raise ValueError(f"stats payload missing fields: {sorted(missing)}")
        unknown = set(data) - expected
        if unknown:
            raise ValueError(f"stats payload has unknown fields: {sorted(unknown)}")
        return cls(**{name: data[name] for name in expected})


class LayoutEngine:
    """Unified facade over storage, execution, costing and reorganization.

    Construct with an :class:`~repro.engine.config.EngineConfig`, a
    :class:`~repro.engine.policies.ReorgPolicy` (default: never
    reorganize) and any number of
    :class:`~repro.engine.events.EngineEvents` observers, then ``open()``
    — either over a materialized table (``open(table, initial_layout)``)
    or empty for streaming ``ingest``.  The engine is single-threaded and
    cooperative, like the scheduler it wraps: queries and movement steps
    interleave deterministically, which is what the differential
    equivalence suites rely on.

    **Thread-safety contract:** every public entry point serializes on a
    per-engine reentrant serving lock, so concurrent callers (the
    :class:`~repro.engine.sharded.ShardedEngine` router's fan-out
    threads) are safe — their calls simply queue, each one running the
    full cooperative interleaving atomically.  The lock never makes two
    engines wait on each other: a sharded deployment's shards progress
    independently.
    """

    def __init__(
        self,
        config: EngineConfig,
        policy: ReorgPolicy | None = None,
        events: EngineEvents | Iterable[EngineEvents] = (),
    ):
        self.config = config
        self._observers: tuple[EngineEvents, ...] = _as_tuple(events, "on_event")
        # Created once per engine (not per lifetime): a close() racing a
        # query must serialize on the same lock, so the lock cannot live
        # in _reset_lifetime_state.
        self._serving_lock = threading.RLock()
        self._is_open = False
        self._reset_lifetime_state()
        self.policy = policy if policy is not None else NeverReorganize()

    def _reset_lifetime_state(self) -> None:
        """Zero everything scoped to one open()…close() lifetime."""
        self.store: PartitionStore | None = None
        self.executor: QueryExecutor | None = None
        self._evaluator: CostEvaluator | None = None
        self._scheduler: ReorgScheduler | None = None
        self._incremental: IncrementalStore | None = None
        self._logical: DataLayout | None = None
        #: ``is not None`` is the one record of "opened over a table"
        self._table: Table | None = None
        self._queries_served = 0
        self._rows_ingested = 0
        self._num_switches = 0
        self._reorgs_completed = 0
        self._reorg_seconds = 0.0
        self._movement_charged = 0.0
        self._bytes_read = 0

    @property
    def policy(self) -> ReorgPolicy:
        """The reorganization policy consulted on every query."""
        return self._policy

    @policy.setter
    def policy(self, policy: ReorgPolicy) -> None:
        """Swap the policy (drop-in, even on a live engine); binds if open."""
        with self._serving_lock:
            self._policy = policy
            if self._is_open:
                self._bind_policy()

    def _bind_policy(self) -> None:
        bind = getattr(self._policy, "bind", None)
        if callable(bind):
            bind(self)

    def _create_store(
        self, schema: Schema, layout: DataLayout, initial: StoredLayout | None = None
    ) -> None:
        """Create the engine's one store: empty, or adopting ``initial``."""
        assert self.store is not None  # open() created it
        self._incremental = IncrementalStore(
            self.store,
            schema,
            layout,
            evaluator=self._evaluator,
            allow_ingest_during_consolidation=self.config.ingest_during_reorg,
            initial=initial,
        )
        self._logical = layout

    # --------------------------------------------------------------- lifecycle
    @_serialized
    def open(
        self,
        table: Table | None = None,
        initial_layout: DataLayout | None = None,
    ) -> "LayoutEngine":
        """Open the engine; returns ``self`` (chainable into ``with``).

        With a ``table`` the engine materializes it under
        ``initial_layout`` (or a layout built by the config's builder
        from a data sample) and its store adopts the result; without one
        the first :meth:`ingest` creates the store — one store, one loop
        either way.  Opening over a table has two consequences: the
        evaluator prices candidates from that table, so :meth:`ingest`
        (which would leave it stale) is refused, and a same-id
        :meth:`reorganize` is a no-op.  Opening an already-open engine
        raises; re-opening a *closed* one starts a fresh lifetime (state
        and counters reset — ``stats()`` counts "since open()").
        """
        if self._is_open:
            raise RuntimeError("engine is already open")
        self._reset_lifetime_state()
        self.store = PartitionStore(self.config.store_root, compress=self.config.compress)
        self.executor = QueryExecutor(self.store)
        self._table = table
        self._evaluator = CostEvaluator(table)
        if self.config.async_reorg:
            self._scheduler = ReorgScheduler(
                self.store,
                alpha=self.config.alpha,
                step_partitions=self.config.step_partitions,
                mover_threads=self.config.mover_threads,
            )
        if table is not None:
            layout = initial_layout
            if layout is None:
                layout = self._derive_layout(table)
            self._create_store(table.schema, layout, self.store.materialize(table, layout))
        else:
            # The store is created by the first ingested batch, under the
            # caller-chosen first layout if there is one.
            self._logical = initial_layout
        self._is_open = True
        self._bind_policy()
        self._emit("open")
        return self

    @_serialized
    def close(self) -> None:
        """Close the engine: abort any in-flight reorg, optionally clean up.

        Idempotent.  An in-flight pipelined reorganization is abandoned
        in O(1) — the staged buffer is discarded and the old epoch's
        files stay intact, exactly the unwind the replay driver used.
        With ``cleanup_on_close`` the store's files (the served layout's
        and any per-batch ones) are removed from disk.
        """
        if not self._is_open:
            return
        try:
            self.abort_reorg()
            if self.config.cleanup_on_close and self._incremental is not None:
                self._incremental.delete_files()
        finally:
            self._is_open = False
            self._emit("close")

    def __enter__(self) -> "LayoutEngine":
        """Enter the context manager; opens a streaming engine if needed."""
        if not self._is_open:
            self.open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Close the engine on context exit (aborting any in-flight move)."""
        self.close()

    def _require_open(self) -> None:
        if not self._is_open:
            raise RuntimeError("engine is not open; call open() first")

    # ------------------------------------------------------------------- views
    @property
    def evaluator(self) -> CostEvaluator:
        """The engine's cost oracle; the store keeps it on live metadata."""
        assert self._evaluator is not None  # open() created it
        return self._evaluator

    @property
    def scheduler(self) -> ReorgScheduler | None:
        """The pipelined-reorg scheduler (``None`` in synchronous mode).

        Read-only introspection: drive moves through
        :meth:`reorganize` / :meth:`step` / :meth:`abort_reorg` — calling
        the scheduler's own ``start``/``abort`` directly desyncs the
        engine's decision-level state.
        """
        return self._scheduler

    @property
    def current_layout(self) -> DataLayout | None:
        """The decision-level current layout (the reorg target mid-flight)."""
        return self._logical

    @property
    def reorg_active(self) -> bool:
        """Whether a pipelined reorganization is currently in flight."""
        return self._scheduler is not None and self._scheduler.active

    @property
    def holds_data(self) -> bool:
        """Whether the engine holds any rows (materialized or ingested).

        A streaming engine that has not ingested yet reports ``False``;
        the sharded router uses this to skip data-less shards instead of
        tripping their "holds no data" guard.
        """
        return self._incremental is not None

    @property
    def accepts_ingest(self) -> bool:
        """Whether :meth:`ingest` is accepted: not once opened over a table.
        (The sharded router asks every target shard before any writes.)"""
        return self._table is None

    @_serialized
    def stored(self) -> StoredLayout:
        """Snapshot of the currently visible stored layout."""
        self._require_open()
        return self._visible()

    @_serialized
    def fragmentation(self, target_partition_rows: int) -> float:
        """How fragmented the engine's store is (1.0 = consolidated).

        Delegates to :meth:`IncrementalStore.fragmentation`: the ratio of
        actual partition count to the minimum needed at
        ``target_partition_rows`` rows per partition.  An engine holding
        no data yet reports 1.0.
        """
        self._require_open()
        if self._incremental is None:
            return 1.0
        return self._incremental.fragmentation(target_partition_rows)

    @_serialized
    def stats(self) -> EngineStats:
        """Counters of everything the engine did since ``open()``."""
        return EngineStats(
            queries_served=self._queries_served,
            rows_ingested=self._rows_ingested,
            batches_ingested=(
                self._incremental.batches_ingested if self._incremental else 0
            ),
            num_switches=self._num_switches,
            reorgs_completed=self._reorgs_completed,
            reorg_seconds=self._reorg_seconds,
            movement_charged=self._movement_charged,
            bytes_read=self._bytes_read,
        )

    def _visible(self) -> StoredLayout:
        """The stored layout queries must run against right now.

        The store owns it: mid-flight it answers with the old epoch
        (sidecar appends included) until the commit adopts the new one.
        """
        if self._incremental is None:
            raise RuntimeError("engine holds no data; materialize or ingest first")
        return self._incremental.stored()

    def _move_ids(self) -> tuple[str, str]:
        """In-flight ``(source id, target id)``: where the store still sits,
        and what the scheduler's pipeline is building."""
        assert self._incremental is not None and self._scheduler is not None
        assert self._scheduler.pipeline is not None  # reorg_active implies one
        return (
            self._incremental.layout.layout_id,
            self._scheduler.pipeline.new_layout.layout_id,
        )

    # -------------------------------------------------------------- data plane
    @_serialized
    def ingest(self, batch: Table) -> int:
        """Append one batch under the current layout; returns files written.

        Existing partitions are untouched (§III-C incremental
        clustering).  The first batch of a streaming engine derives the
        initial layout — from ``open(initial_layout=...)`` if given,
        otherwise built by the config's builder over a sample of the
        batch.  While a pipelined consolidation is in flight the batch
        takes the dual-epoch sidecar path: it is immediately queryable
        against the old epoch and replayed through the new layout at the
        final commit (``ingest_during_reorg`` fires in addition to
        ``ingest``); with ``EngineConfig.ingest_during_reorg=False``
        the call raises instead.  Raises on an engine opened over a
        table (:attr:`accepts_ingest`): its evaluator prices candidates
        from that table, which an append would leave stale.
        """
        self._require_open()
        if not self.accepts_ingest:
            raise RuntimeError(
                "engine was opened over a materialized table; streaming "
                "ingest needs an engine opened without one"
            )
        if batch.num_rows == 0:
            # Nothing to write — and an empty first batch must not pin
            # the schema or derive a layout from zero rows.
            return 0
        if self._incremental is None:
            self._create_store(
                batch.schema,
                self._logical if self._logical is not None else self._derive_layout(batch),
            )
        assert self._incremental is not None
        routed_sidecar = self._incremental.consolidating
        written = self._incremental.ingest(batch)
        self._rows_ingested += batch.num_rows
        self._emit("ingest", rows=batch.num_rows, partitions_written=written)
        if routed_sidecar:
            self._emit(
                "ingest_during_reorg",
                rows=batch.num_rows,
                partitions_written=written,
                target_id=self._move_ids()[1],
            )
        return written

    @_serialized
    def query(self, query: Query) -> QueryResult:
        """Serve one query through the full online loop.

        Order within the call: policy decision (possibly starting — or
        draining and then starting — a reorganization), execution against
        the visible epoch, then one pipelined movement step if a move is
        in flight.  This is exactly the pre-facade replay interleaving.
        """
        result = self._advance(query, execute=True)
        assert result is not None  # execute=True always serves
        return result

    @_serialized
    def observe(self, query: Query) -> None:
        """Drive the decision loop for one query without executing it.

        Replay drivers sample query timing with a stride; the unsampled
        positions still need their decision + movement step to keep the
        schedule aligned — this is that path.
        """
        self._advance(query, execute=False)

    @_serialized
    def mark_phase(self, scenario: str, phase: str) -> None:
        """Mark a scenario workload-phase boundary on the event stream.

        Scenario runners call this when the driving workload transitions
        between phases (a flash crowd starting, a drift window advancing,
        a hot tenant rotating) so observers can segment the event stream
        per phase.  Purely observational: engine state is untouched.
        """
        self._require_open()
        self._emit("scenario_phase", scenario=scenario, phase=phase)

    @_serialized
    def query_batch(self, queries: Sequence[Query]) -> list[QueryResult]:
        """Serve a batch with one compiled planning pass.

        The whole batch executes against a single epoch snapshot (each
        surviving partition read at most once, per
        :meth:`QueryExecutor.execute_batch`); policy observations and
        movement steps are then applied per query *after* the batch, so
        reorganization decisions defer to the batch boundary.
        """
        self._require_open()
        queries = list(queries)
        if not queries:
            return []
        assert self.executor is not None  # open() created it
        results = self.executor.execute_batch(self._visible(), queries)
        for result in results:
            self._served(result)
        for query in queries:
            self._advance(query, execute=False)
        return results

    # ---------------------------------------------------------- decision plane
    def _advance(self, query: Query, execute: bool) -> QueryResult | None:
        self._require_open()
        decision = self.policy.observe(query, self._costs_for(query))
        for layout_id in decision.admitted:
            self._emit("layout_admitted", layout_id=layout_id)
        for layout_id in decision.pruned:
            self._emit("layout_pruned", layout_id=layout_id)
        target = decision.target
        if target is not None and (
            self._logical is None or target.layout_id != self._logical.layout_id
        ):
            # A data-less engine raises cleanly inside _begin_reorg — the
            # same contract as explicit reorganize() — instead of
            # silently dropping a switch a stateful policy won't re-state.
            self._begin_reorg(target)
        result = None
        if execute:
            assert self.executor is not None  # open() created it
            result = self.executor.execute(self._visible(), query)
            self._served(result)
        if self.reorg_active:
            self.step()
        return result

    def _served(self, result: QueryResult) -> None:
        """Account one executed query and announce it."""
        self._queries_served += 1
        self._bytes_read += result.bytes_read
        self._emit(
            "query_served",
            rows_scanned=result.rows_scanned,
            partitions_scanned=result.partitions_scanned,
        )

    def _costs_for(self, query: Query) -> dict[str, float]:
        if not getattr(self.policy, "wants_costs", False):
            return {}
        current = self._visible().layout
        evaluator = self.evaluator
        layouts: list[DataLayout] = [current]
        seen = {current.layout_id}
        candidates = getattr(self.policy, "candidates", None)
        if callable(candidates):
            for layout in candidates():
                if layout.layout_id in seen:
                    continue
                if self._table is None and not evaluator.has_metadata(layout.layout_id):
                    # A streaming engine has no table to derive candidate
                    # metadata from; only candidates whose snapshots were
                    # registered (evaluator.register_metadata) are
                    # priceable — skip the rest rather than crash.
                    continue
                seen.add(layout.layout_id)
                layouts.append(layout)
        return evaluator.costs_for_query(layouts, query)

    @_serialized
    def reorganize(self, target: DataLayout) -> None:
        """Explicitly reorganize into ``target``, bypassing the policy.

        Synchronous engines block until the rewrite lands; pipelined
        engines start the move (draining any in-flight one first) and
        return — drive it with :meth:`step`, :meth:`run_until_idle`, or
        just keep serving queries.  Raises on an engine holding no data
        yet.

        A target equal to the current layout is a no-op on an engine
        opened over a table (the rewrite provably changes nothing) but
        a full **consolidation** on one that ingests, whose physical
        partitioning fragments away from the layout's assignment batch
        by batch — the same-id defragmentation §III-C prescribes,
        charged α like any other reorganization.  A move that raises is
        abandoned as :meth:`abort_reorg` would, before the error propagates.
        """
        self._require_open()
        if self._table is not None and self._logical is not None:
            if target.layout_id == self._logical.layout_id:
                return
        self._begin_reorg(target)

    def _begin_reorg(self, target: DataLayout) -> None:
        if self.reorg_active:
            # Back-to-back switch decisions serialize: finish the
            # in-flight move before starting the next.
            self.run_until_idle()
        # Raises on a data-less engine: it has a layout id at most.
        source_id = self._visible().layout.layout_id
        assert self._incremental is not None  # _visible() found data
        self._emit(
            "reorg_started",
            source_id=source_id,
            target_id=target.layout_id,
            pipelined=self._scheduler is not None,
        )
        result = None
        try:
            # The one synchronous/pipelined fork: start the move and let
            # step() land it, or run storage.reorg.reorganize to the end.
            if self._scheduler is not None:
                self._incremental.consolidate_async(target, self._scheduler)
            else:
                result = self._incremental.consolidate(target)
        except BaseException:
            self._abandoned(source_id, target.layout_id, refund=0.0)
            raise
        if result is not None:
            if self.config.alpha is not None:
                self._movement_charged += self.config.alpha
                self._announce_charge(self.config.alpha)
            self._committed(source_id, target.layout_id, result)
        self._num_switches += 1
        self._logical = target

    def _announce_charge(self, amount: float) -> None:
        """Emit one movement charge (negative = refund); callers own the ledger."""
        self._emit("movement_charged", amount=amount)

    def _committed(self, source_id: str, target_id: str, result: ReorgResult) -> None:
        """Account one landed reorganization and announce it."""
        self._reorg_seconds += result.elapsed_seconds
        self._reorgs_completed += 1
        self._emit(
            "reorg_committed",
            source_id=source_id,
            target_id=target_id,
            partitions_written=result.partitions_written,
        )

    # ----------------------------------------------------------- reorg progress
    @_serialized
    def step(self) -> ScheduledStep | None:
        """Advance an in-flight pipelined reorganization by one step.

        Returns ``None`` when nothing is in flight.  On the final commit
        the visible epoch flips, the engine's accounting settles (reorg
        seconds, movement installments summing to exactly α) and
        ``reorg_committed`` fires.  A step that raises (a mover fault)
        aborts the move (:meth:`abort_reorg`) before the error
        propagates, so the next call serves instead of re-raising.
        """
        self._require_open()
        if not self.reorg_active:
            return None
        assert self._scheduler is not None  # reorg_active implies one
        source_id, target_id = self._move_ids()  # the tick may commit
        try:
            scheduled = self._scheduler.tick()
        except BaseException:
            self.abort_reorg()
            raise
        assert scheduled is not None  # an active pipeline always yields a step
        self._emit(
            "reorg_step",
            target_id=target_id,
            kind=scheduled.step.kind,
            completed_fraction=scheduled.step.completed_fraction,
        )
        if scheduled.movement_charge:
            self._announce_charge(scheduled.movement_charge)
        if scheduled.completed:
            # The store adopted the new epoch inside the tick; account it.
            assert self._scheduler.pipeline is not None
            self._movement_charged += self._scheduler.charged
            self._committed(source_id, target_id, self._scheduler.pipeline.result[1])
        return scheduled

    @_serialized
    def run_until_idle(self) -> None:
        """Drain any in-flight pipelined reorganization to its final commit."""
        self._require_open()
        while self.reorg_active:
            self.step()

    @_serialized
    def abort_reorg(self) -> float:
        """Abandon an in-flight pipelined reorganization without committing.

        O(1): the staged buffer is discarded and the old epoch's files —
        which queries were reading all along — keep serving.  The engine
        rolls its decision level back to the layout the data actually
        sits on (so a policy re-stating the abandoned target switches
        again instead of silently no-oping), refunds the movement
        installments already emitted as one compensating negative
        ``movement_charged`` event (the stream's sum stays equal to
        ``stats().movement_charged``, which never accrued the aborted
        attempt), releases the store's ingest guard, and
        fires ``reorg_aborted``.  Returns the refunded movement
        budget; no-op (0.0) when nothing is in flight.  This — not
        driving the exposed scheduler directly — is the supported way to
        cancel a move.
        """
        self._require_open()
        if not self.reorg_active:
            return 0.0
        assert self._scheduler is not None  # reorg_active implies one
        source_id, target_id = self._move_ids()
        # scheduler.abort() discards the staging buffer and fires the
        # store's on_abort, which releases its ingest guard.
        refund = self._scheduler.abort()
        self._abandoned(source_id, target_id, refund)
        return refund

    def _abandoned(self, source_id: str, target_id: str, refund: float) -> None:
        """The terminal event of a started move that did not commit."""
        # The data still sits on the epoch the queries were served from.
        self._logical = self._visible().layout
        if refund:
            self._announce_charge(-refund)
        self._emit("reorg_aborted", source_id=source_id, target_id=target_id)

    # ---------------------------------------------------------------- internal
    def _emit(self, name: str, **payload: Any) -> None:
        """Hand one event (see the ``EngineEvents`` table) to every observer."""
        for observer in self._observers:
            observer.on_event(name, payload)

    def _derive_layout(self, table: Table) -> DataLayout:
        if self.config.builder is None:
            raise RuntimeError(
                "no initial layout supplied and EngineConfig.builder is None"
            )
        rng = np.random.default_rng(self.config.seed)
        sample = table.sample(self.config.data_sample_fraction, rng)
        if sample.num_rows == 0:
            sample = table
        return self.config.builder.build(
            sample, [], self.config.num_partitions, rng
        )
