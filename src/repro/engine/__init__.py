"""Unified serving engine: one facade over storage, costing and reorg.

:class:`LayoutEngine` is the public seam every scale-out direction plugs
into — it owns the partition store, the executor, the cost evaluator and
the reorg scheduler, runs the paper's online loop (serve → observe →
decide → reorganize), and exposes three extension points:

* :class:`EngineConfig` — every knob in one validated dataclass;
* :class:`ReorgPolicy` — the pluggable *what/when* of reorganization
  (:class:`OreoPolicy` with the worst-case guarantee, the
  :class:`NeverReorganize` and :class:`GreedyPolicy` baselines, and the
  replay driver's :class:`SchedulePolicy` all drop in unchanged);
* :class:`EngineEvents` — lifecycle observers for telemetry and future
  replication hooks (:class:`EventLog` is the bundled recorder).

Typical usage::

    from repro.engine import EngineConfig, LayoutEngine, EventLog

    log = EventLog()
    config = EngineConfig(store_root="/data/t", builder=builder,
                          alpha=80.0, async_reorg=True)
    with LayoutEngine(config, events=log) as engine:
        engine.ingest(batch)
        result = engine.query(query)
        engine.reorganize(new_layout)   # pipelined: serve while it runs
        engine.run_until_idle()
"""

from .config import EngineConfig
from .engine import EngineStats, LayoutEngine
from .events import EngineEvents, EventLog
from .factory import (
    ShardSpec,
    StoreDir,
    StoreManifest,
    build_target,
    make_builder,
    reorganize_derived,
    schema_from_dict,
    schema_to_dict,
    snapshot_table,
    table_from_columns,
    table_from_rows,
)
from .policies import (
    Decision,
    GreedyPolicy,
    NeverReorganize,
    OreoPolicy,
    ReorgPolicy,
    SchedulePolicy,
)
from .sharded import (
    ShardedEngine,
    ShardedEventLog,
    ShardEventObserver,
    derive_shard_configs,
    merge_query_results,
)

__all__ = [
    "Decision",
    "EngineConfig",
    "EngineEvents",
    "EngineStats",
    "EventLog",
    "GreedyPolicy",
    "LayoutEngine",
    "NeverReorganize",
    "OreoPolicy",
    "ReorgPolicy",
    "SchedulePolicy",
    "ShardEventObserver",
    "ShardSpec",
    "ShardedEngine",
    "ShardedEventLog",
    "StoreDir",
    "StoreManifest",
    "build_target",
    "derive_shard_configs",
    "make_builder",
    "merge_query_results",
    "reorganize_derived",
    "schema_from_dict",
    "schema_to_dict",
    "snapshot_table",
    "table_from_columns",
    "table_from_rows",
]
