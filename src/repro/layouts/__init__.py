"""Data layouts (MTS states) and the metadata that powers data skipping."""

from .base import DataLayout, LayoutBuilder, eval_skipped, top_queried_columns
from .hash_layout import (
    HashLayout,
    HashLayoutBuilder,
    RoundRobinLayout,
    RoundRobinLayoutBuilder,
)
from .metadata import (
    ColumnStats,
    LayoutMetadata,
    PartitionMetadata,
    build_layout_metadata,
    build_partition_metadata,
)
from .qdtree import QdTreeBuilder, QdTreeLayout, QdTreeNode, extract_cut_predicates
from .range_layout import RangeLayout, RangeLayoutBuilder, equal_frequency_boundaries
from .stacked import StackedStateSpace
from .workload_compiler import CompiledWorkload
from .zonemaps import ZoneMapIndex
from .zorder import ZOrderLayout, ZOrderLayoutBuilder, morton_interleave

__all__ = [
    "ColumnStats",
    "CompiledWorkload",
    "DataLayout",
    "HashLayout",
    "HashLayoutBuilder",
    "LayoutBuilder",
    "LayoutMetadata",
    "PartitionMetadata",
    "QdTreeBuilder",
    "QdTreeLayout",
    "QdTreeNode",
    "RangeLayout",
    "RangeLayoutBuilder",
    "RoundRobinLayout",
    "RoundRobinLayoutBuilder",
    "StackedStateSpace",
    "ZOrderLayout",
    "ZOrderLayoutBuilder",
    "ZoneMapIndex",
    "build_layout_metadata",
    "build_partition_metadata",
    "equal_frequency_boundaries",
    "eval_skipped",
    "extract_cut_predicates",
    "morton_interleave",
    "top_queried_columns",
]
