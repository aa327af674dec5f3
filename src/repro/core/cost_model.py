"""Cost model and the logical cost oracle.

The paper's cost model (§III-A): servicing query ``q`` in state (layout)
``s`` costs ``c(s, q) ∈ [0, 1]`` — the fraction of the dataset accessed —
and switching between any two states costs ``α > 1``, the measured ratio of
reorganization time to a full-table scan (60×–100× in the paper's setup,
default 80).

:class:`CostEvaluator` is the oracle every decision component consults.  It
estimates ``c(s, q)`` purely from partition-level metadata (never touching
row data at decision time, matching §VI-A1) and memoizes aggressively:
layout metadata by ``layout_id`` (each snapshot owns its compiled
:class:`~repro.layouts.zonemaps.ZoneMapIndex`), and per-query costs in a
per-layout dict keyed by the predicate's structural identity (so retiring
a layout is an O(1) pop).

Four evaluation tiers back the same numbers — and share one atom kernel
(:func:`repro.layouts.zonemaps._atom_block`) — widest scope first:

* the **stacked 3-D pass** — :meth:`CostEvaluator.cost_matrix` (and
  through it admission, pruning, and the per-step D-UMTS cost dicts)
  registers every priced layout in a
  :class:`~repro.layouts.stacked.StackedStateSpace` and evaluates the
  compiled sample against the *whole state space at once*: one
  broadcasted ``(layouts × queries × partitions)`` tensor instead of one
  compiled pass per layout;
* the **workload-compiled fast path** — single-layout batches
  (:meth:`CostEvaluator.cost_vector`) compile the query sample once
  (:class:`~repro.layouts.workload_compiler.CompiledWorkload`, memoized
  per sample in a bounded LRU) and evaluate it against that layout's
  zone-map index in one column-wise pass; the stacked tier also drops
  residue layouts (non-vectorizable columns) back to this path;
* the **per-predicate zone-map path** — one vectorized ``_mask``
  recursion per predicate, used by single-query costing
  (:meth:`CostEvaluator.query_cost`) and by both batched tiers for
  residue nodes they cannot lower;
* the **scalar oracle** — ``Predicate.may_match`` looped over
  ``PartitionMetadata``, kept as the reference semantics.  The engine
  falls back to it per node for predicates it cannot lower, and the test
  suite asserts exact agreement between all tiers.

Everything cached for a layout id — the query costs — is derived from
one metadata *snapshot object* and is dropped when a different snapshot
is registered for that id
(:meth:`CostEvaluator.register_metadata`); nothing is migrated across a
physical mutation.  ``docs/architecture.md`` ("Cache freshness") states
the rule and who calls it: :class:`IncrementalStore` on every append and
consolidation, :class:`~repro.core.reorg_scheduler.ReorgScheduler` at the
final commit of a pipelined move — never mid-flight, so the serving
evaluator never prices an under-construction snapshot.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..layouts.base import DataLayout
from ..layouts.metadata import LayoutMetadata
from ..layouts.stacked import StackedStateSpace
from ..layouts.workload_compiler import CompiledWorkload
from ..layouts.zonemaps import ZoneMapIndex, _fractions_from_matrix
from ..utils import lru_get, lru_put
from ..queries.query import Query
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation-only import (avoids cycle)
    from ..storage.table import Table

__all__ = ["CostModel", "CostEvaluator"]


@dataclass(frozen=True)
class CostModel:
    """Scalar parameters of the online problem."""

    alpha: float = 80.0

    def __post_init__(self):
        if self.alpha <= 1.0:
            raise ValueError(f"alpha must exceed 1 (reorg dearer than a scan), got {self.alpha}")

    def movement_cost(self, source: str | None, target: str) -> float:
        """Cost of switching layouts; staying put is free."""
        if source == target:
            return 0.0
        return self.alpha


class CostEvaluator:
    """Metadata-backed, memoizing implementation of ``c(s, q)``."""

    #: Compiled-workload LRU bound: admission and pruning re-evaluate the
    #: same sample against many layouts, but samples churn as the stream
    #: drifts — keep the recent ones, never grow without limit.
    COMPILED_CACHE_CAP = 32

    #: Query-count cutoff at or below which :meth:`cost_matrix` contracts
    #: the stacked tensor in one fused einsum
    #: (:meth:`StackedStateSpace.fractions_tensor`) instead of the
    #: per-layout astype-then-matvec loop.  The loop pays Python dispatch
    #: plus one strided cast and one BLAS call *per layout*, which
    #: dominates for narrow samples — the per-step D-UMTS pricing is a
    #: single query — while for wide admission samples the BLAS matvecs
    #: win back the difference (crossover measured around 24 queries at
    #: 32 layouts × 256 partitions; 16 keeps a safety margin on the fused
    #: side).
    FUSED_FRACTION_QUERY_CUTOFF = 16

    def __init__(self, table: Table | None):
        #: the priced table, or ``None`` for a metadata-only evaluator
        #: (streaming engines register materialized snapshots instead of
        #: deriving assignments from row data)
        self.table = table
        self._metadata: dict[str, LayoutMetadata] = {}
        self._query_costs: dict[str, dict[tuple, float]] = {}
        self._compiled: dict[tuple, CompiledWorkload] = {}
        self._stacked = StackedStateSpace()

    def metadata(self, layout: DataLayout) -> LayoutMetadata:
        """Layout's partition metadata on the evaluator's table (cached)."""
        cached = self._metadata.get(layout.layout_id)
        if cached is None:
            if self.table is None:
                raise RuntimeError(
                    f"no table to derive metadata for layout "
                    f"{layout.layout_id!r}; register_metadata() the "
                    "materialized snapshot first"
                )
            cached = layout.metadata_for(self.table)
            self._metadata[layout.layout_id] = cached
        return cached

    def has_metadata(self, layout_id: str) -> bool:
        """Whether this evaluator can already price ``layout_id``.

        True when the layout's metadata is cached or was registered via
        :meth:`register_metadata`; callers without a table to derive
        metadata from (streaming engines) use this to tell priceable
        candidates apart from un-registered ones.
        """
        return layout_id in self._metadata

    def register_metadata(self, layout_id: str, metadata: LayoutMetadata) -> None:
        """Price ``layout_id`` from externally materialized metadata.

        Physically backed systems (streaming ingest, partition catalogs)
        know the *actual* on-disk partition statistics, which evolve under
        a fixed layout id; registering them here makes every costing path
        use the catalog's view instead of re-deriving assignments from the
        layout object.  Registering a different snapshot object drops every
        cost cached against the old one (its index goes with it); the
        stacked state space swaps in the new index the next time the
        layout is priced (:meth:`StackedStateSpace.update_layout`), which
        drops everything the stack derived from the old one.
        """
        if self._metadata.get(layout_id) is metadata:
            return
        self._query_costs.pop(layout_id, None)
        self._metadata[layout_id] = metadata

    def zone_maps(self, layout: DataLayout) -> ZoneMapIndex:
        """The compiled zone-map index of the layout's metadata snapshot."""
        return self.metadata(layout).zone_maps

    def query_cost(self, layout: DataLayout, query: Query) -> float:
        """Fraction of rows accessed by ``query`` under ``layout``; in [0, 1]."""
        costs = self._query_costs.setdefault(layout.layout_id, {})
        key = query.cache_key()
        cached = costs.get(key)
        if cached is None:
            cached = self.zone_maps(layout).accessed_fraction(query.predicate)
            costs[key] = cached
        return cached

    def compiled_workload(
        self, predicates: Sequence, key: tuple | None = None
    ) -> CompiledWorkload:
        """Compile a predicate sample for batched evaluation (LRU-cached).

        ``key`` is the sample's structural identity (the tuple of predicate
        cache keys); callers that already hold the keys pass them to avoid
        recomputing.  One compiled sample serves every layout it is
        evaluated against — the admission loop's dominant reuse pattern.
        Single-predicate "samples" (the per-stream-query miss path) are
        compiled fresh instead: they are too cheap to be worth a slot, and
        caching them would churn the LRU until it evicts the expensive
        admission-sample compilations it exists to retain.
        """
        if len(predicates) < 2:
            return CompiledWorkload(predicates)
        if key is None:
            key = tuple(predicate.cache_key() for predicate in predicates)
        cached = lru_get(self._compiled, key)
        if cached is None:
            cached = lru_put(
                self._compiled, key, CompiledWorkload(predicates), self.COMPILED_CACHE_CAP
            )
        return cached

    def _ensure_stacked(self, layout: DataLayout) -> None:
        """Stack a layout's current index, replacing a stale one."""
        layout_id = layout.layout_id
        index = self.zone_maps(layout)
        if layout_id not in self._stacked:
            self._stacked.add_layout(layout_id, index)
        elif self._stacked.index_for(layout_id) is not index:
            self._stacked.update_layout(layout_id, index)

    def cost_vector(self, layout: DataLayout, queries: Sequence[Query]) -> np.ndarray:
        """Vector of query costs for a layout over a query sample.

        This is the representation Algorithm 5 (layout admission) compares
        with normalized L1 distance.  Uncached entries are evaluated by
        compiling the missing sub-sample once (LRU-memoized across layouts)
        and running its column-wise batched pass over all partitions.
        """
        costs = self._query_costs.setdefault(layout.layout_id, {})
        keys = [query.cache_key() for query in queries]
        out = np.empty(len(queries), dtype=np.float64)
        missing: dict[tuple, list[int]] = {}
        for index, key in enumerate(keys):
            cached = costs.get(key)
            if cached is None:
                missing.setdefault(key, []).append(index)
            else:
                out[index] = cached
        if missing:
            predicates = [queries[positions[0]].predicate for positions in missing.values()]
            compiled = self.compiled_workload(predicates, key=tuple(missing))
            index = self.zone_maps(layout)
            matrix = compiled.prune_matrix(index)
            priced = self._price_sample(layout.layout_id, matrix, missing, index)
            for key, positions in missing.items():
                out[positions] = priced[key]
        return out

    def cost_matrix(
        self, layouts: Sequence[DataLayout], queries: Sequence[Query]
    ) -> np.ndarray:
        """``(num_layouts, num_queries)`` cost matrix over a query sample.

        The workhorse behind layout admission, state-space pruning, and the
        per-step D-UMTS cost dicts: the sample is compiled once, every
        layout with a cache miss is registered in the stacked state space,
        and the missing cells are priced by one broadcasted
        ``(layouts × queries × partitions)`` tensor evaluation
        (:meth:`StackedStateSpace.prune_tensor`) instead of one compiled
        pass per layout — unless the miss set is a small fraction of the
        stack, where per-layout compiled passes are cheaper than a
        full-stack sweep.  Residue layouts fall back inside the stack; the
        floats are bit-for-bit the per-layout path's either way.
        """
        if not layouts:
            return np.zeros((0, len(queries)), dtype=np.float64)
        keys = [query.cache_key() for query in queries]
        out = np.empty((len(layouts), len(queries)), dtype=np.float64)
        missing_union: dict[tuple, int] = {}
        pending: list[tuple[int, DataLayout, list[int]]] = []
        for row, layout in enumerate(layouts):
            costs = self._query_costs.setdefault(layout.layout_id, {})
            missing_positions: list[int] = []
            for col, key in enumerate(keys):
                cached = costs.get(key)
                if cached is None:
                    missing_positions.append(col)
                    if key not in missing_union:
                        missing_union[key] = col
                else:
                    out[row, col] = cached
            if missing_positions:
                pending.append((row, layout, missing_positions))
        if pending:
            predicates = [queries[col].predicate for col in missing_union.values()]
            compiled = self.compiled_workload(predicates, key=tuple(missing_union))
            # The stacked tensor always sweeps the whole live stack; when
            # only a few layouts missed (e.g. one newly admitted state),
            # per-layout compiled passes cost less than a full-stack sweep.
            use_stack = 2 * len(pending) >= len(self._stacked)
            fused = None
            if use_stack:
                ids = []
                for _, layout, _ in pending:
                    self._ensure_stacked(layout)
                    ids.append(layout.layout_id)
                tensor = self._stacked.prune_tensor(compiled, ids)
                if len(predicates) <= self.FUSED_FRACTION_QUERY_CUTOFF:
                    fused = self._stacked.fractions_tensor(tensor, ids)
            for position, (row, layout, missing_positions) in enumerate(pending):
                index = self.zone_maps(layout)
                if use_stack:
                    matrix = tensor[position, :, : index.num_partitions]
                else:
                    matrix = compiled.prune_matrix(index)
                costs = self._price_sample(
                    layout.layout_id,
                    matrix,
                    missing_union,
                    index,
                    fractions=None if fused is None else fused[position],
                )
                for col in missing_positions:
                    out[row, col] = costs[keys[col]]
        return out

    def _price_sample(
        self,
        layout_id: str,
        matrix: np.ndarray,
        missing_union: dict,
        index: ZoneMapIndex,
        fractions: np.ndarray | None = None,
    ) -> dict:
        """Fill one layout's cost cache from its may-match matrix.

        ``missing_union`` may hold keys this layout already prices (another
        layout of the batch missed them); those are rewritten with the
        identical float.  ``fractions`` (one row of the stacked fused
        contraction, bit-for-bit the per-layout arithmetic) skips the
        per-layout matvec when the caller already contracted the tensor.
        """
        if fractions is None:
            fractions = _fractions_from_matrix(
                matrix, index.row_counts, index.total_rows
            )
        costs = self._query_costs[layout_id]
        for position, key in enumerate(missing_union):
            costs[key] = float(fractions[position])
        return costs

    def costs_for_query(
        self, layouts: Sequence[DataLayout], query: Query
    ) -> dict[str, float]:
        """``c(s, q)`` for one query across many layouts, keyed by layout id.

        This is the per-step cost dict D-UMTS ``observe`` consumes; misses
        across the whole state space are priced by one stacked pass.
        """
        if not layouts:
            return {}
        vector = self.cost_matrix(layouts, [query])[:, 0]
        return {
            layout.layout_id: float(value) for layout, value in zip(layouts, vector, strict=True)
        }

    def average_cost(self, layout: DataLayout, queries: Sequence[Query]) -> float:
        """Mean query cost over ``queries`` (0.0 for an empty sample)."""
        if not queries:
            return 0.0
        return float(self.cost_vector(layout, queries).mean())

    def forget(self, layout_id: str) -> None:
        """Drop cached state for a retired layout to bound memory: O(1)."""
        self._metadata.pop(layout_id, None)
        self._query_costs.pop(layout_id, None)
        self._stacked.discard(layout_id)

    def cache_sizes(self) -> tuple[int, int]:
        """(#layout metadata entries, #query-cost entries) — for tests."""
        return len(self._metadata), sum(len(c) for c in self._query_costs.values())
