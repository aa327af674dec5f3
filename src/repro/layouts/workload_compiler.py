"""Workload compiler: one column-wise pass for a whole query sample.

The per-predicate zone-map path (:meth:`ZoneMapIndex.prune_matrix`) is
already vectorized *across partitions*, but it still recurses ``_mask``
once per predicate: evaluating a D-UMTS admission sample against a
candidate layout costs ``O(|sample|)`` AST walks, each issuing a handful
of small NumPy calls.  At 64-query samples over dozens of candidate
layouts, that per-call overhead is the dominant cost of Algorithm 5's
admission loop.

:class:`CompiledWorkload` removes it by compiling the *sample itself*,
once, independent of any layout:

1. every query predicate is flattened into its top-level conjunction
   (``And`` trees; a bare atom is a one-conjunct conjunction);
2. supported atomic conjuncts — ``Comparison``, ``Between``, ``In`` —
   are grouped by ``(column, operator)`` and their constants stacked
   into dense float64 arrays;
3. anything else (``Or``/``Not`` subtrees, user-defined predicates,
   non-numeric or float64-lossy constants) becomes *residue*: it is
   evaluated through the per-predicate ``ZoneMapIndex`` path, node by
   node, exactly as before;
4. the AND-reduction over each query's conjuncts is *pre-planned*: the
   atom→query ownership of all groups is concatenated, argsorted, and
   segmented once at compile time, so evaluation folds every group's
   mask block into the query rows with a single ``logical_and.reduceat``
   instead of one fancy-indexed update per group.

Evaluating the compiled workload against a layout's
:class:`~repro.layouts.zonemaps.ZoneMapIndex` then produces the full
``(num_queries, num_partitions)`` may-match matrix in a handful of
broadcasted comparisons — one ``(num_atoms, num_partitions)`` block per
group from the shared atom kernel
(:func:`repro.layouts.zonemaps._atom_block`) plus the single fused
reduction (:meth:`CompiledWorkload._reduce`) — instead of one ``_mask``
recursion per query.  The per-predicate path evaluates an atom as a
one-row block of the same kernel, so the output is bit-for-bit identical
to it and to the scalar ``may_match`` oracle (asserted by the
equivalence and property test suites).  Only the may-match side is
batched: pruning and pricing never ask for matches-all, and the ``Not``
residue that needs it gets it from the per-predicate path.

Conjunction semantics make the reduction exact: ``may_match`` of an
``And`` node is the logical AND of its children's, so batching the
supported conjuncts and folding residue conjuncts in afterwards loses
nothing.

A compiled workload is the middle tier of a three-tier fallback chain,
widest scope first:

1. **stacked 3-D pass** — :class:`repro.layouts.stacked.StackedStateSpace`
   evaluates one compiled workload against *every* layout in the state
   space at once, emitting the ``(layouts × queries × partitions)``
   tensor from this module's reduction run over the concatenated zones;
2. **per-layout compiled pass** (this module) — one
   ``(queries × partitions)`` matrix per :class:`ZoneMapIndex`; the
   stacked tier drops *residue layouts* (non-vectorizable columns) back
   here, and single-layout callers (cost vectors, batch planning) start
   here;
3. **scalar oracle** — ``Predicate.may_match`` per partition; both fast
   tiers fall back to it per node for *residue predicates*
   (``Or``/``Not`` subtrees, unsupported nodes, lossy constants), and
   every tier is asserted bit-for-bit equal to it by the equivalence and
   property suites.
"""

# reprolint: vectorized

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from ..queries.predicates import (
    AlwaysFalse,
    AlwaysTrue,
    And,
    Between,
    Comparison,
    In,
    Predicate,
)
from .zonemaps import (
    ZoneMapIndex,
    _atom_block,
    _fractions_from_matrix,
    _maybe_exact_float,
    _Unsupported,
)

__all__ = ["CompiledWorkload"]


class _AtomGroup:
    """All supported atoms of one ``(column, kind)`` across the sample.

    ``kind`` is a comparison operator (``"<"`` .. ``"!="``), ``"between"``
    or ``"in"``.  ``owners`` maps each atom to the query row it belongs
    to; atoms are appended in query order, so ``owners`` is sorted within
    the group.

    ``freeze`` dedups the constants: workload streams dwell on one
    template for whole segments, so a 64-query sample routinely repeats
    the same handful of constants (a 5-value dimension column can only
    produce 5 distinct equality atoms).  Kernels run over the *unique*
    constants and the result block is expanded back to atom rows with
    one boolean gather (``inverse``), which is far cheaper than the
    duplicate comparisons it replaces.
    """

    __slots__ = ("column", "kind", "owners", "nodes", "first", "second", "unodes", "inverse")

    def __init__(self, column: str, kind: str):
        self.column = column
        self.kind = kind
        self.owners: list[int] = []
        #: original AST nodes, for the per-predicate fallback path
        self.nodes: list[Predicate] = []
        #: the constants, in the shape ``_atom_block`` takes them —
        #: comparison: float64 values / raw values (distinct sets are keyed
        #: by the raw ones); between: lows / highs; in: value sets / unused.
        #: Accumulation lists while building; :meth:`freeze` dedups them and
        #: turns the float lists into ``(atoms, 1)`` columns.
        self.first: list | np.ndarray = []
        self.second: list | np.ndarray = []
        #: deduplicated nodes and the expansion gather, set by freeze()
        self.unodes: list[Predicate] = []
        self.inverse: np.ndarray | None = None

    def freeze(self) -> None:
        # First-occurrence-order dedup (a dict, no sort): slots keep the
        # original relative order, so "no duplicates" means the expansion
        # gather is the identity and can be skipped outright.
        if self.kind == "between":
            keys = list(zip(self.first, self.second, strict=True))
        elif self.kind == "in":
            keys = [node.values for node in self.nodes]
        else:
            keys = self.first
        slots: dict = {}
        first: list[int] = []
        inverse: list[int] = []
        for position, key in enumerate(keys):
            slot = slots.get(key)
            if slot is None:
                slot = slots[key] = len(first)
                first.append(position)
            inverse.append(slot)
        self.unodes = [self.nodes[i] for i in first]
        if self.kind == "in":
            self.first = [node.values for node in self.unodes]
        else:
            self.first = np.asarray([self.first[i] for i in first], dtype=np.float64)[:, None]
            self.second = [self.second[i] for i in first]
            if self.kind == "between":
                self.second = np.asarray(self.second, dtype=np.float64)[:, None]
        if len(first) == len(self.nodes):
            self.inverse = None
        else:
            self.inverse = np.asarray(inverse, dtype=np.int64)


def _fresh_block(_role: str, rows: int, cols: int) -> np.ndarray:
    """The default :meth:`CompiledWorkload._reduce` workspace: a new array."""
    return np.empty((rows, cols), dtype=bool)


class CompiledWorkload:
    """A query sample compiled for batched zone-map evaluation.

    The compilation is layout-independent: one ``CompiledWorkload`` can
    be evaluated against any number of :class:`ZoneMapIndex` instances
    (the layout-admission loop evaluates the same sample against every
    candidate and every existing state, so the compile cost amortizes
    across the whole state space).
    """

    def __init__(self, predicates: Sequence[Predicate]):
        self.predicates = tuple(predicates)
        self.num_queries = len(self.predicates)
        groups: dict[tuple[str, str], _AtomGroup] = {}
        #: (query row, node) pairs evaluated via the per-predicate path
        self._residue: list[tuple[int, Predicate]] = []
        #: query rows containing an AlwaysFalse conjunct: never match
        self._false_rows: list[int] = []
        for row, predicate in enumerate(self.predicates):
            stack = [predicate]
            while stack:
                node = stack.pop()
                if type(node) is And:
                    stack.extend(reversed(node.children))
                else:
                    self._lower(row, node, groups)
        self._groups = list(groups.values())
        for group in self._groups:
            group.freeze()
        self._plan_reduction()

    # -------------------------------------------------------------- compilation
    def _lower(self, row: int, node: Predicate, groups: dict) -> None:
        node_type = type(node)
        if node_type is Comparison:
            value = _maybe_exact_float(node.value)
            if value is None:
                self._residue.append((row, node))
                return
            key = (node.column, node.op)
            group = groups.get(key)
            if group is None:
                group = groups[key] = _AtomGroup(node.column, node.op)
            group.owners.append(row)
            group.nodes.append(node)
            group.first.append(value)
            group.second.append(node.value)
        elif node_type is Between:
            low = _maybe_exact_float(node.low)
            high = _maybe_exact_float(node.high)
            if low is None or high is None:
                self._residue.append((row, node))
                return
            key = (node.column, "between")
            group = groups.get(key)
            if group is None:
                group = groups[key] = _AtomGroup(node.column, "between")
            group.owners.append(row)
            group.nodes.append(node)
            group.first.append(low)
            group.second.append(high)
        elif node_type is In:
            key = (node.column, "in")
            group = groups.get(key)
            if group is None:
                group = groups[key] = _AtomGroup(node.column, "in")
            group.owners.append(row)
            group.nodes.append(node)
        elif node_type is AlwaysTrue:
            pass  # identity of the conjunction
        elif node_type is AlwaysFalse:
            self._false_rows.append(row)
        else:
            # Or / Not / unknown subclasses: exact via the per-predicate path.
            self._residue.append((row, node))

    def _plan_reduction(self) -> None:
        """Pre-plan the fused AND-reduction over all groups' atoms.

        Group mask blocks — one row per *unique* atom — are concatenated
        in group order at evaluation time.  Here the atom→query ownership
        (over the logical, duplicate-bearing atoms) is sorted and cut
        into *depth layers*: layer 0 holds each query's first atom, layer
        ``d`` its ``d``-th further atom.  Within a layer every query
        appears at most once, so evaluation folds each layer with one
        duplicate-free fancy-indexed ``&=`` — a couple of large NumPy ops
        per layer (conjunctions are shallow: layers ≈ max conjuncts per
        query) instead of one update per group or a slow ``reduceat``
        over ragged segments.  Every row index is composed with the
        groups' dedup mapping at plan time, so duplicate atoms are never
        materialized: the layer gathers read the unique row directly.
        """
        owners_list: list[int] = []
        unique_rows_list: list[int] = []
        offset = 0
        for group in self._groups:
            owners_list.extend(group.owners)
            if group.inverse is None:
                unique_rows_list.extend(range(offset, offset + len(group.unodes)))
            else:
                unique_rows_list.extend((group.inverse + offset).tolist())
            offset += len(group.unodes)
        self._num_atoms = len(owners_list)
        self._num_unique_atoms = offset
        self._layers: list[tuple[np.ndarray | None, np.ndarray]] = []
        self._base_rows: np.ndarray | None = None
        self._target_rows: np.ndarray | None = None
        if not self._num_atoms:
            return
        owners = np.asarray(owners_list, dtype=np.int64)
        unique_rows = np.asarray(unique_rows_list, dtype=np.int64)
        order = np.argsort(owners, kind="stable")
        sorted_owners = owners[order]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_owners)) + 1))
        sizes = np.diff(starts, append=self._num_atoms)
        #: row index into the stacked *unique* block matrix of each
        #: query's first atom (order[...] composes the sort at plan time,
        #: unique_rows[...] the dedup)
        self._base_rows = unique_rows[order[starts]]
        self._target_rows = sorted_owners[starts]
        #: True when every query owns at least one atom — the reduction
        #: result then IS the output matrix (no scatter needed).
        self._covers_all = len(starts) == self.num_queries
        owner_rank = np.repeat(np.arange(len(starts)), sizes)
        depth = np.arange(self._num_atoms) - starts[owner_rank]
        for level in range(1, int(sizes.max())):
            in_level = depth == level
            ranks = owner_rank[in_level]
            # A layer touching every reduction row in order needs no
            # scatter: ``None`` marks it for a single in-place AND pass
            # instead of gather + AND + scatter.
            full = len(ranks) == len(starts)
            self._layers.append(
                (None if full else ranks, unique_rows[order[in_level]])
            )

    # --------------------------------------------------------------- evaluation
    def prune_matrix(self, index: ZoneMapIndex) -> np.ndarray:
        """``(num_queries, num_partitions)`` may-match matrix for ``index``."""
        out = self._reduce(
            index.num_partitions,
            lambda group, block: self._group_matrix(group, index, block),
        )
        for row, node in self._residue:
            out[row] &= index._mask(node, False)
        return out

    def accessed_fractions(self, index: ZoneMapIndex) -> np.ndarray:
        """Batched ``c(s, q)`` over the sample: one matrix product."""
        if self.num_queries == 0 or index.total_rows == 0.0:
            return np.zeros(self.num_queries, dtype=np.float64)
        return _fractions_from_matrix(
            self.prune_matrix(index), index.row_counts, index.total_rows
        )

    def _reduce(
        self,
        width: int,
        fill_block: Callable[[_AtomGroup, np.ndarray], None],
        scratch: Callable[[str, int, int], np.ndarray] = _fresh_block,
    ) -> np.ndarray:
        """``(num_queries, width)`` AND of every query's supported atoms.

        ``fill_block(group, out)`` writes one group's ``(unique atoms ×
        width)`` mask block; the blocks are folded into query rows along
        the depth layers :meth:`_plan_reduction` laid out.  ``scratch(role,
        rows, cols)`` supplies the workspaces for the block matrix and the
        layer gathers (a caller with multi-megabyte blocks passes reusable
        ones); the returned matrix is always freshly allocated (the caller
        owns it).  Residue conjuncts are the caller's to fold in.
        """
        if self._num_atoms:
            # _plan_reduction pinned both row maps when atoms exist.
            assert self._base_rows is not None and self._target_rows is not None
            # Group kernels write straight into their slice of the block
            # matrix: no per-group allocation, no vstack copy.
            stacked = scratch("blocks", self._num_unique_atoms, width)
            offset = 0
            for group in self._groups:
                rows = len(group.unodes)
                fill_block(group, stacked[offset : offset + rows])
                offset += rows
            reduced = np.take(stacked, self._base_rows, axis=0)
            for owner_ranks, atom_rows in self._layers:
                gathered = np.take(
                    stacked, atom_rows, axis=0, out=scratch("layer", len(atom_rows), width)
                )
                if owner_ranks is None:
                    np.logical_and(reduced, gathered, out=reduced)
                else:
                    reduced[owner_ranks] &= gathered
            if self._covers_all:
                out = reduced  # target rows are exactly 0..Q-1, in order
            else:
                out = np.ones((self.num_queries, width), dtype=bool)
                out[self._target_rows] = reduced
        else:
            out = np.ones((self.num_queries, width), dtype=bool)
        for row in self._false_rows:
            out[row] = False
        return out

    @staticmethod
    def _group_matrix(group: _AtomGroup, index: ZoneMapIndex, out: np.ndarray) -> None:
        """Write one group's ``(unique atoms × partitions)`` block into ``out``.

        Kernels and fallbacks run over the group's *unique* constants;
        duplicate atoms are never materialized — the pre-planned
        reduction's row indices point straight at the unique rows.
        """
        try:
            zones = index._column(group.column)
        except _Unsupported:
            per_atom = True  # non-numeric boundaries: down to the scalar oracle
        else:
            # Mixed or absent distinct sets: the per-atom path handles the
            # min/max branch and the per-partition mixing exactly.
            per_atom = zones is not None and group.kind == "in" and not zones.all_distinct
        if per_atom:
            for row, node in enumerate(group.unodes):
                out[row] = index._mask(node, False)
        elif zones is None:
            # Column in no partition's stats: may_match is vacuously True.
            out[:] = True
        else:
            _atom_block(zones, group.kind, group.first, group.second, False, out)
