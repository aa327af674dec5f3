"""Storage engine: columnar tables, on-disk partitions, execution, reorg."""

from .async_reorg import AsyncReorgPipeline, MovementStep
from .executor import QueryExecutor, QueryResult, ScanResult
from .ingest import IncrementalStore
from .partition import StoredLayout, StoredPartition
from .partition_store import PartitionStore
from .reorg import ReorgResult, reorganize
from .table import ColumnSpec, Schema, Table

__all__ = [
    "AsyncReorgPipeline",
    "ColumnSpec",
    "IncrementalStore",
    "MovementStep",
    "PartitionStore",
    "QueryExecutor",
    "QueryResult",
    "ReorgResult",
    "ScanResult",
    "Schema",
    "StoredLayout",
    "StoredPartition",
    "Table",
    "reorganize",
]
