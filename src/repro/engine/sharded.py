"""Sharded serving: N independent engines behind one hash router.

The paper's worst-case guarantee is per-instance — each D-UMTS controller
bounds its own movement against its own query stream — so guarantees
compose shard-by-shard: run one :class:`~repro.engine.LayoutEngine` per
shard and every shard keeps its α-competitive bound while aggregate
serving throughput multiplies.  :class:`ShardedEngine` is that router:

* **routing** — rows hash-partition by one key column (the same
  Fibonacci-hash assignment :class:`~repro.layouts.HashLayout` uses for
  partitions, reused one level up for shards), so a row's shard is a
  pure function of its key and ingest/open/query all agree on placement;
* **isolation** — every shard owns its store root, its policy instance
  and its RNG stream (:func:`derive_shard_configs`), and runs its own
  epoch protocol: a hot shard can re-cluster mid-flight while cold
  shards keep serving untouched;
* **fan-out** — ``query_batch`` executes on all data-holding shards
  concurrently through a bounded thread pool and merges the per-shard
  :class:`~repro.storage.executor.QueryResult`\\ s row-exactly
  (:func:`merge_query_results`); the per-engine serving lock added for
  this router makes each shard's cooperative loop atomic under the
  concurrent callers;
* **observability** — ``stats()`` merges shard counters, and a
  shard-tagged event stream (:class:`ShardEventObserver`,
  :class:`ShardedEventLog`) reports every engine event as
  ``(shard, name, payload)`` so one observer can watch the whole fleet.

The differential suite pins the composition argument: a 4-shard run's
per-query matched rows and merged movement ledger equal a single-engine
run over the same stream.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import Any, Protocol, runtime_checkable

import numpy as np

from ..layouts.base import DataLayout
from ..layouts.hash_layout import HashLayout
from ..queries.query import Query
from ..storage.executor import QueryResult
from ..storage.table import Table
from .config import EngineConfig
from .engine import EngineStats, LayoutEngine
from .events import EngineEvents, _as_tuple
from .policies import ReorgPolicy

__all__ = [
    "ShardEventObserver",
    "ShardedEngine",
    "ShardedEventLog",
    "derive_shard_configs",
    "merge_query_results",
]

#: Cap on fan-out threads when the caller does not choose one; shards
#: beyond this share workers (queueing, never starvation).
_DEFAULT_MAX_WORKERS = 8


def _derive_seed(base: int, shard: int) -> int:
    """Deterministic, well-mixed per-shard seed from one base seed.

    ``SeedSequence`` spawning is the numpy-sanctioned way to split one
    seed into independent streams — adjacent base seeds or shard indexes
    do not yield correlated generators the way ``base + shard`` would.
    """
    sequence = np.random.SeedSequence([base & 0xFFFFFFFFFFFFFFFF, shard])
    return int(sequence.generate_state(1, dtype=np.uint64)[0])


def derive_shard_configs(config: EngineConfig, num_shards: int) -> list[EngineConfig]:
    """Split one :class:`EngineConfig` into ``num_shards`` isolated configs.

    Three fields change per shard; everything else is inherited:

    * ``store_root`` → ``<root>/shard-000``, ``<root>/shard-001``, … so
      no two shards can ever write the same partition files;
    * ``seed`` → derived through :func:`numpy.random.SeedSequence`
      (deterministic, but every shard samples from an independent
      stream instead of all shards replaying identical randomness);
    * ``alpha`` → ``alpha / num_shards`` per shard, so when every shard
      reorganizes once the *merged* movement ledger charges exactly the
      single-engine α — the per-component composition of the paper's
      budget, which is what the differential ledger test pins.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be positive")
    root = Path(config.store_root)
    alpha = config.alpha
    return [
        config.with_overrides(
            store_root=root / f"shard-{shard:03d}",
            seed=_derive_seed(config.seed, shard),
            alpha=None if alpha is None else alpha / num_shards,
        )
        for shard in range(num_shards)
    ]


def _validate_shard_configs(configs: Sequence[EngineConfig]) -> None:
    """Reject shard configs that silently share state.

    Two shards on one store root corrupt each other's partition files on
    disk; two shards on one seed replay identical sampler streams, which
    defeats the point of independent RNG per shard.  Cloning a single
    config across shards does both — fail loudly at construction.
    """
    roots: dict[Path, int] = {}
    seeds: dict[int, int] = {}
    for shard, config in enumerate(configs):
        root = Path(config.store_root).expanduser().resolve()
        other = roots.setdefault(root, shard)
        if other != shard:
            raise ValueError(
                f"shards {other} and {shard} share store root {root} — every "
                "shard needs its own directory (see derive_shard_configs)"
            )
        other = seeds.setdefault(config.seed, shard)
        if other != shard:
            raise ValueError(
                f"shards {other} and {shard} share seed {config.seed} — derive "
                "per-shard seeds (see derive_shard_configs)"
            )


def merge_query_results(results: Sequence[QueryResult]) -> QueryResult:
    """Merge per-shard results for *one* query into the aggregate result.

    Row, partition and byte counters add — shards partition the table,
    so the sums equal a single engine's counters over the union.
    ``elapsed_seconds`` takes the **max**: shards serve concurrently, so
    the critical path, not the summed work, is the served latency.
    """
    if not results:
        raise ValueError("merge_query_results needs at least one result")
    return QueryResult(
        rows_matched=sum(r.rows_matched for r in results),
        rows_scanned=sum(r.rows_scanned for r in results),
        total_rows=sum(r.total_rows for r in results),
        partitions_scanned=sum(r.partitions_scanned for r in results),
        partitions_total=sum(r.partitions_total for r in results),
        bytes_read=sum(r.bytes_read for r in results),
        elapsed_seconds=max(r.elapsed_seconds for r in results),
    )


@runtime_checkable
class ShardEventObserver(Protocol):
    """Observer of the shard-tagged event stream.

    Implementations MUST be thread-safe: shards fire their events from
    the router's fan-out threads, so ``on_shard_event`` calls for
    different shards arrive concurrently (within one shard the order is
    still exactly the engine's firing order).
    """

    def on_shard_event(self, shard: int, name: str, payload: dict[str, Any]) -> None:
        """One engine event ``name`` with ``payload`` fired on ``shard``."""
        ...


class ShardedEventLog:
    """Thread-safe recorder of the shard-tagged stream — the fleet's EventLog.

    Records every event as ``(shard, name, payload)``.  The global order
    interleaves shards nondeterministically (they run concurrently);
    :meth:`for_shard` projects one shard's subsequence, which *is*
    deterministic — the same per-engine firing order the single-engine
    ordering tests pin.
    """

    def __init__(self):
        #: ``(shard, event_name, payload_dict)`` tuples in arrival order
        self.records: list[tuple[int, str, dict[str, Any]]] = []
        self._lock = threading.Lock()

    def on_shard_event(self, shard: int, name: str, payload: dict[str, Any]) -> None:
        """Record one shard-tagged event."""
        with self._lock:
            self.records.append((shard, name, payload))

    def names(self, shard: int | None = None) -> list[str]:
        """Event names in arrival order, optionally for one shard only."""
        with self._lock:
            return [name for s, name, _ in self.records if shard is None or s == shard]

    def for_shard(self, shard: int) -> list[tuple[str, dict[str, Any]]]:
        """One shard's ``(name, payload)`` subsequence, in firing order."""
        with self._lock:
            return [(name, payload) for s, name, payload in self.records if s == shard]


class _ShardTagger(EngineEvents):
    """Internal: forwards one engine's events as ``(shard, name, payload)``,
    so a tagged record is exactly an ``EventLog`` record plus its shard."""

    def __init__(self, shard: int, sinks: Sequence[ShardEventObserver]):
        self._shard = shard
        self._sinks = sinks

    def on_event(self, name: str, payload: dict[str, Any]) -> None:
        """Tag and forward one event."""
        for sink in self._sinks:
            sink.on_shard_event(self._shard, name, payload)


class ShardedEngine:
    """Hash-partitioned serving across N :class:`LayoutEngine` instances.

    Construct with the *base* config (per-shard roots/seeds/α are derived
    by :func:`derive_shard_configs`, or pass explicit ``shard_configs``,
    which are validated against shared roots/seeds), the key column rows
    shard on, and optionally a ``policy_factory`` — called once per shard
    index so every shard gets its **own** policy instance deciding on its
    own stream.  ``events`` observers attach to every shard (they must be
    thread-safe — :class:`~repro.engine.events.EventLog` is);
    ``shard_events`` observers receive the tagged
    ``(shard, name, payload)`` stream instead.

    Data-plane calls fan out to the shards holding data through a
    bounded thread pool; each shard engine serializes internally on its
    serving lock, shards never wait on each other, and per-shard results
    merge row-exactly.  ``step``/``run_until_idle``/``reorganize`` route
    per shard, so one shard's pipelined move never blocks another
    shard's serving — the router-level form of "never pause anything".
    """

    def __init__(
        self,
        config: EngineConfig,
        shard_key: str,
        num_shards: int = 4,
        *,
        shard_configs: Sequence[EngineConfig] | None = None,
        policy_factory: Callable[[int], ReorgPolicy] | None = None,
        events: EngineEvents | Iterable[EngineEvents] = (),
        shard_events: ShardEventObserver | Iterable[ShardEventObserver] = (),
        max_workers: int | None = None,
    ):
        if not shard_key:
            raise ValueError("shard_key must name a column")
        if num_shards < 1:
            raise ValueError("num_shards must be positive")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be positive")
        if shard_configs is None:
            shard_configs = derive_shard_configs(config, num_shards)
        elif len(shard_configs) != num_shards:
            raise ValueError(
                f"expected {num_shards} shard configs, got {len(shard_configs)}"
            )
        _validate_shard_configs(shard_configs)
        self.config = config
        self._shard_key = shard_key
        self._num_shards = num_shards
        self._max_workers = (
            max_workers
            if max_workers is not None
            else min(num_shards, _DEFAULT_MAX_WORKERS)
        )
        self._router = HashLayout(
            shard_key, num_shards, layout_id=f"shard-router-{num_shards}"
        )
        shared: tuple[EngineEvents, ...] = _as_tuple(events, "on_event")
        sinks: tuple[ShardEventObserver, ...] = _as_tuple(shard_events, "on_shard_event")
        self._engines = [
            LayoutEngine(
                shard_configs[shard],
                policy=policy_factory(shard) if policy_factory is not None else None,
                events=(*shared, _ShardTagger(shard, sinks)) if sinks else shared,
            )
            for shard in range(num_shards)
        ]
        self._pool: ThreadPoolExecutor | None = None
        self._is_open = False

    # --------------------------------------------------------------- lifecycle
    def open(
        self,
        table: Table | None = None,
        initial_layout: DataLayout | None = None,
    ) -> "ShardedEngine":
        """Open every shard; returns ``self`` (chainable into ``with``).

        With a ``table``, rows are routed by the shard key and each shard
        materializes its slice under ``initial_layout`` (or a layout its
        own builder derives); a shard the hash leaves empty opens in
        streaming mode so later :meth:`ingest` batches can still reach
        it.  Without a table every shard opens empty for streaming.  On
        any failure the shards already opened are closed again.
        """
        if self._is_open:
            raise RuntimeError("engine is already open")
        parts: list[Table | None] = [None] * self._num_shards
        if table is not None:
            if self._shard_key not in table.schema:
                raise ValueError(
                    f"shard key {self._shard_key!r} is not a column of the table"
                )
            parts = [part if part.num_rows else None for part in self._split(table)]
        self._pool = ThreadPoolExecutor(
            max_workers=self._max_workers, thread_name_prefix="shard"
        )
        opened: list[LayoutEngine] = []
        try:
            for engine, part in zip(self._engines, parts, strict=True):
                engine.open(part, initial_layout)
                opened.append(engine)
        except BaseException:
            for engine in opened:
                engine.close()
            self._pool.shutdown(wait=True)
            self._pool = None
            raise
        self._is_open = True
        return self

    def close(self) -> None:
        """Close every shard and release the fan-out pool (idempotent)."""
        if not self._is_open:
            return
        try:
            for engine in self._engines:
                engine.close()
        finally:
            self._is_open = False
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __enter__(self) -> "ShardedEngine":
        """Enter the context manager; opens streaming shards if needed."""
        if not self._is_open:
            self.open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Close every shard on context exit."""
        self.close()

    def _require_open(self) -> None:
        if not self._is_open:
            raise RuntimeError("engine is not open; call open() first")

    # ----------------------------------------------------------------- routing
    def shard_assignments(self, table: Table) -> np.ndarray:
        """Each row's shard index — the router's hash on the key column."""
        return self._router.assign(table)

    def _split(self, table: Table) -> list[Table]:
        """Partition a table into per-shard slices (row order preserved)."""
        assignments = self.shard_assignments(table)
        return [
            table.take(np.flatnonzero(assignments == shard))
            for shard in range(self._num_shards)
        ]

    def _data_shards(self) -> list[int]:
        """Indexes of the shards currently holding rows."""
        return [
            shard
            for shard, engine in enumerate(self._engines)
            if engine.holds_data
        ]

    def _fan_out(self, calls: dict[int, Callable[[], Any]]) -> dict[int, Any]:
        """Run per-shard thunks on the pool; results keyed by shard index.

        All calls are submitted before any result is awaited, so shards
        run concurrently up to the pool width.  If several shards raise,
        the lowest shard index's exception propagates (deterministic).
        """
        assert self._pool is not None  # callers hold _require_open
        futures: dict[int, Future[Any]] = {
            shard: self._pool.submit(call) for shard, call in sorted(calls.items())
        }
        return {shard: future.result() for shard, future in futures.items()}

    # -------------------------------------------------------------- data plane
    def ingest(self, batch: Table) -> int:
        """Route one batch to its shards and append concurrently.

        Returns the total partition files written across shards.  Every
        row lands on the shard its key hashes to — the same placement
        :meth:`open` used — so queries over any key range see each row
        exactly once.  All or nothing: if any shard the batch routes to
        was opened over a table (:attr:`LayoutEngine.accepts_ingest`),
        the call raises before any shard writes.
        """
        self._require_open()
        if batch.num_rows == 0:
            return 0
        if self._shard_key not in batch.schema:
            raise ValueError(
                f"shard key {self._shard_key!r} is not a column of the batch"
            )
        parts = {
            shard: part for shard, part in enumerate(self._split(batch)) if part.num_rows
        }
        # Refuse before any shard writes: a fan-out in which only some
        # shards raise would leave the batch half applied.
        refusing = [shard for shard in parts if not self._engines[shard].accepts_ingest]
        if refusing:
            raise RuntimeError(
                f"shards {refusing} were opened over a table and refuse "
                "ingest; nothing was written"
            )
        written = self._fan_out(
            {
                shard: (lambda e=self._engines[shard], p=part: e.ingest(p))
                for shard, part in parts.items()
            }
        )
        return sum(written.values())

    def query(self, query: Query) -> QueryResult:
        """Serve one query on every data shard concurrently; merge results.

        Each shard runs its full online loop (decision → serve → step),
        so policies observe exactly the queries their shard's data
        answers.
        """
        self._require_open()
        shards = self._data_shards()
        if not shards:
            raise RuntimeError("engine holds no data; materialize or ingest first")
        per_shard = self._fan_out(
            {shard: (lambda e=self._engines[shard]: e.query(query)) for shard in shards}
        )
        return merge_query_results([per_shard[shard] for shard in shards])

    def observe(self, query: Query) -> None:
        """Drive every data shard's decision loop without executing."""
        self._require_open()
        self._fan_out(
            {
                shard: (lambda e=self._engines[shard]: e.observe(query))
                for shard in self._data_shards()
            }
        )

    def mark_phase(self, scenario: str, phase: str) -> None:
        """Mark a scenario phase boundary on every shard's event stream."""
        self._require_open()
        self._fan_out(
            {
                shard: (lambda e=self._engines[shard]: e.mark_phase(scenario, phase))
                for shard in range(self._num_shards)
            }
        )

    def query_batch(self, queries: Sequence[Query]) -> list[QueryResult]:
        """Serve a batch on every data shard concurrently; merge per query.

        The i-th merged result aggregates the i-th query's per-shard
        results (:func:`merge_query_results`), so counters match a
        single-engine run over the unsharded table row-for-row while the
        shards' compiled batch plans execute in parallel.
        """
        self._require_open()
        queries = list(queries)
        if not queries:
            return []
        shards = self._data_shards()
        if not shards:
            raise RuntimeError("engine holds no data; materialize or ingest first")
        per_shard = self._fan_out(
            {
                shard: (lambda e=self._engines[shard]: e.query_batch(queries))
                for shard in shards
            }
        )
        return [
            merge_query_results([per_shard[shard][i] for shard in shards])
            for i in range(len(queries))
        ]

    # ---------------------------------------------------------- reorganization
    def reorganize(self, target: DataLayout, shards: Iterable[int] | None = None) -> None:
        """Reorganize shards into ``target`` (default: every data shard).

        Passing ``shards`` reorganizes exactly those — the hot-shard
        case: one shard re-clusters (pipelined, if configured) while the
        rest keep serving untouched.  Each shard charges its own α
        installment, so the merged ledger sums to the base config's α
        when all shards move.
        """
        self._require_open()
        targets = list(shards) if shards is not None else self._data_shards()
        for shard in targets:
            if not 0 <= shard < self._num_shards:
                raise ValueError(f"shard {shard} out of range [0, {self._num_shards})")
        self._fan_out(
            {
                shard: (lambda e=self._engines[shard]: e.reorganize(target))
                for shard in targets
            }
        )

    def step(self, shards: Iterable[int] | None = None) -> dict[int, Any]:
        """Advance in-flight pipelined moves by one step per shard.

        Returns ``{shard: ScheduledStep}`` for the shards that actually
        stepped (idle shards are skipped silently, mirroring the
        single-engine ``step() -> None`` contract).
        """
        self._require_open()
        targets = list(shards) if shards is not None else range(self._num_shards)
        stepped = self._fan_out(
            {shard: (lambda e=self._engines[shard]: e.step()) for shard in targets}
        )
        return {shard: step for shard, step in stepped.items() if step is not None}

    def run_until_idle(self) -> None:
        """Drain every shard's in-flight pipelined move, concurrently."""
        self._require_open()
        self._fan_out(
            {
                shard: (lambda e=self._engines[shard]: e.run_until_idle())
                for shard in range(self._num_shards)
            }
        )

    def abort_reorg(self) -> float:
        """Abort every shard's in-flight move; returns the summed refunds."""
        self._require_open()
        refunds = self._fan_out(
            {
                shard: (lambda e=self._engines[shard]: e.abort_reorg())
                for shard in range(self._num_shards)
            }
        )
        return math.fsum(refunds.values())

    # ------------------------------------------------------------------- views
    @property
    def shards(self) -> tuple[LayoutEngine, ...]:
        """The per-shard engines, by shard index (read-only introspection).

        Drive the fleet through the router's own methods; calling a
        shard engine directly is safe (its serving lock serializes) but
        bypasses routing, so ingest through it would misplace rows.
        """
        return tuple(self._engines)

    @property
    def num_shards(self) -> int:
        """How many shards the router fans out across."""
        return self._num_shards

    @property
    def shard_key(self) -> str:
        """The column rows hash-shard on."""
        return self._shard_key

    @property
    def reorg_active(self) -> bool:
        """Whether any shard has a pipelined reorganization in flight."""
        return any(engine.reorg_active for engine in self._engines)

    @property
    def holds_data(self) -> bool:
        """Whether any shard currently holds rows."""
        return any(engine.holds_data for engine in self._engines)

    def shard_stats(self) -> list[EngineStats]:
        """Every shard's own counters, by shard index."""
        self._require_open()
        return [engine.stats() for engine in self._engines]

    def stats(self) -> EngineStats:
        """Merged counters across shards.

        Additive counters (rows, bytes, switches, commits, movement)
        sum to exactly the fleet's totals; ``queries_served`` counts
        per-shard serves, so one routed query adds one count per data
        shard it executed on (``movement_charged`` uses compensated
        summation so per-shard α installments merge exactly).
        """
        per_shard = self.shard_stats()
        return EngineStats(
            queries_served=sum(s.queries_served for s in per_shard),
            rows_ingested=sum(s.rows_ingested for s in per_shard),
            batches_ingested=sum(s.batches_ingested for s in per_shard),
            num_switches=sum(s.num_switches for s in per_shard),
            reorgs_completed=sum(s.reorgs_completed for s in per_shard),
            reorg_seconds=math.fsum(s.reorg_seconds for s in per_shard),
            movement_charged=math.fsum(s.movement_charged for s in per_shard),
            bytes_read=sum(s.bytes_read for s in per_shard),
        )
