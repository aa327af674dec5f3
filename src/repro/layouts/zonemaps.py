"""Columnar zone-map cost engine: vectorized partition pruning.

The scalar path estimates ``c(s, q)`` by walking every partition in a
Python loop and asking the predicate tree ``may_match`` per
:class:`~repro.layouts.metadata.PartitionMetadata`.  That is faithful to
the paper's prototype (§VI-A1) but becomes the dominant cost once the
LAYOUT MANAGER grows the state space: every admission test and every
D-UMTS step needs ``c(s, q)`` for many (layout, query) pairs.

:class:`ZoneMapIndex` compiles a :class:`~repro.layouts.metadata.LayoutMetadata`
into dense columnar arrays — per-column ``min``/``max`` vectors of shape
``(num_partitions,)``, a row-count vector, and packed ``uint64`` bitmaps
for the distinct sets (≤ ``DISTINCT_SET_CAP`` values per partition) — the
same representation real zone-map / micro-partition systems keep in their
catalog.  A predicate "compiler" then lowers the existing ``Predicate``
AST (``Comparison``, ``Between``, ``In``, ``And``, ``Or``, ``Not``) to a
vectorized may-match mask over *all partitions at once*.  The lowering
(:meth:`ZoneMapIndex._mask`) computes either side of the (may-match,
matches-all) pair, because ``Not`` evaluates its child on the other
side; every public entry point asks for may-match, the only side
pruning and pricing read.

The compiled path is an exact drop-in for the scalar oracle: for every
supported predicate node the masks are bit-for-bit identical to looping
``predicate.may_match`` / ``predicate.matches_all`` over the partitions
(asserted by the equivalence test suite).  Nodes the compiler does not
understand — user-defined ``Predicate`` subclasses, non-numeric zone
boundaries — fall back to the scalar loop for that node only, so the
engine is never *less* general than the oracle.

An atom is lowered to zone-map arithmetic in exactly one place,
:func:`_atom_block`: an ``(atoms × partitions)`` mask block for the atoms
of one column and operator.  Every tier is a caller of it, differing only
in how many atoms and how wide a partition axis it passes:

* the **stacked state space** —
  :class:`~repro.layouts.stacked.StackedStateSpace` concatenates every
  live layout's dense zone arrays into one ``layouts·partitions`` axis
  and asks for blocks over the whole state space at once, emitting the
  ``(layouts × queries × partitions)`` may-match tensor for admission,
  pruning and cost-matrix batching;
* the **batched fast path** —
  :class:`~repro.layouts.workload_compiler.CompiledWorkload` compiles a
  whole query sample (grouping atoms by column and operator), asks for
  one block per group and folds them into the full ``(num_queries,
  num_partitions)`` may-match matrix; the decision loops (cost
  evaluator, admission, batch planning) run here;
* the **per-predicate path** — :meth:`ZoneMapIndex.prune_matrix` /
  :meth:`ZoneMapIndex.may_match_mask` recurse ``_mask`` once per
  predicate, each atom a one-row block; single-query planning and the
  batched path's residue (``Or``/``Not`` subtrees, unsupported atoms)
  run here.  The one atom shape with no block form — ``In`` over a
  column where only some partitions carry a distinct set — lives here
  too (:meth:`ZoneMapIndex._mixed_in_mask`);
* the **scalar oracle** — ``Predicate.may_match`` looped over
  ``PartitionMetadata``; the reference semantics the kernel is asserted
  bit-for-bit against, and the per-node fallback for anything it cannot
  lower.

An index is a pure function of the metadata *snapshot object* it was
compiled from, so the snapshot owns it
(:attr:`LayoutMetadata.zone_maps <repro.layouts.metadata.LayoutMetadata.zone_maps>`)
and it is never updated in place: a physical mutation installs a new
snapshot, which compiles its own (``docs/architecture.md``, "Cache
freshness").  The index keeps the snapshot's statistics, not the
snapshot — no cycle, so both die by reference count.  A table-built
snapshot arrives compiled: its
:class:`~repro.layouts.metadata.DenseColumn` arrays lower to kernel zones
with a dtype cast (:func:`_lower`).  Only metadata assembled from
``PartitionMetadata`` objects (ingest, the pipelined reorganization) is
gathered into those arrays first, per column on first use, linear in
partitions (:func:`_compile_column`).
"""

# reprolint: vectorized

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..queries.predicates import (
    AlwaysFalse,
    AlwaysTrue,
    And,
    Between,
    Comparison,
    In,
    Not,
    Or,
    Predicate,
)
from ..utils import lru_get, lru_put
from .metadata import DenseColumn, LayoutMetadata, PartitionMetadata

__all__ = ["ZoneMapIndex"]

_WORD_BITS = 64


class _Unsupported(Exception):
    """Internal: this node cannot be vectorized; use the scalar oracle."""


def _maybe_exact_float(value) -> float | None:
    """``value`` as a float64, or ``None`` if the cast is lossy.

    Integers at or beyond 2**53 do not round-trip through float64; comparing
    their casts would make pruning *unsound* (may_match False where the
    scalar oracle says True), so such values take the scalar fallback.
    The comparison below is exact: Python compares int/float without
    intermediate rounding once numpy scalars are unwrapped via ``item()``.
    """
    if hasattr(value, "item"):
        value = value.item()
    try:
        result = float(value)
    except (TypeError, ValueError):
        return None
    # NaN also lands here (nan != nan): NaN constants are unsupported.
    return result if result == value else None


def _exact_float(value) -> float:
    """:func:`_maybe_exact_float`, raising ``_Unsupported`` on a lossy cast."""
    result = _maybe_exact_float(value)
    if result is None:
        raise _Unsupported(value)
    return result


def _exact_array(values: np.ndarray) -> bool:
    """:func:`_maybe_exact_float` over a bound array of a reducible dtype.

    Bools, floats up to 64 bits and narrower integers always convert
    exactly; 64-bit integers beyond ±2**53 are checked one by one, by the
    scalar rule itself, so the verdict is never stricter than it.
    """
    if values.dtype.kind not in "iu" or values.dtype.itemsize < 8:
        return True
    wide = values[(values > 2**53) | (values < -(2**53))]
    return all(_maybe_exact_float(value) is not None for value in wide.tolist())


class _ColumnZones:
    """Dense per-column zone maps across all partitions of one layout."""

    __slots__ = (
        "mins",
        "maxs",
        "has_stats",
        "has_distinct",
        "bitmap",
        "value_index",
        "all_stats",
        "any_distinct",
        "all_distinct",
        "unpacked",
    )

    def __init__(
        self,
        mins: np.ndarray,
        maxs: np.ndarray,
        has_stats: np.ndarray,
        has_distinct: np.ndarray,
        bitmap: np.ndarray | None,
        value_index: dict,
    ):
        self.mins = mins
        self.maxs = maxs
        self.has_stats = has_stats
        self.has_distinct = has_distinct
        #: ``(num_partitions, num_words)`` uint64; bit ``i`` of a row is set
        #: iff ``value_index``'s value ``i`` is in that partition's distinct set.
        self.bitmap = bitmap
        self.value_index = value_index
        #: optional ``(num_partitions, num_values)`` bool expansion of the
        #: bitmap.  The stacked state space materializes it (once per
        #: membership) so equality membership is one boolean gather instead of
        #: replicated uint64 word arithmetic over the much wider stacked
        #: partition axis; plain per-layout indexes leave it ``None``.
        self.unpacked: np.ndarray | None = None
        # Fast-path flags: metadata built from real tables has stats for
        # every column of every (non-empty) partition, and numeric columns
        # carry no distinct sets — skipping the masking ops for those cases
        # roughly halves the per-predicate numpy work.
        self.all_stats = bool(has_stats.all())
        self.any_distinct = bool(has_distinct.any())
        self.all_distinct = bool(has_distinct.all())


def _fractions_from_matrix(
    matrix: np.ndarray, row_counts: np.ndarray, total_rows: float
) -> np.ndarray:
    """Accessed fractions ``c(s, q)`` from a may-match matrix.

    The one definition of the fraction arithmetic shared by the compiled
    tier and the cost evaluator's caches (the stacked fused contraction
    is asserted bit-for-bit against it):
    keeping a single accumulation order and dtype is what makes the
    cross-tier "floats are bit-for-bit equal" contract unbreakable (the
    sums are exact anyway — row counts are integers below 2**53).
    """
    if total_rows == 0.0:
        return np.zeros(len(matrix), dtype=np.float64)
    return (matrix.astype(np.float64) @ row_counts) / total_rows


def _pack_value_set(values, value_index: dict, num_words: int) -> np.ndarray:
    """Pack a set of values into a uint64 bitmap over the column's union."""
    packed = np.zeros(num_words, dtype=np.uint64)
    positions = [value_index[v] for v in values if v in value_index]
    if positions:
        pos = np.asarray(positions, dtype=np.int64)
        bits = np.left_shift(np.uint64(1), (pos % _WORD_BITS).astype(np.uint64))
        np.bitwise_or.at(packed, pos // _WORD_BITS, bits)
    return packed


def _compile_column(
    partitions: Sequence[PartitionMetadata], name: str
) -> DenseColumn | None:
    """Gather one column of ``PartitionMetadata`` objects into dense arrays.

    The adapter for metadata assembled from objects; a table-built snapshot
    is born dense and never comes here.  ``None`` when a min/max does not
    round-trip through float64 (non-numeric or lossy boundaries).
    """
    count = len(partitions)
    min_values: list = [0.0] * count
    max_values: list = [0.0] * count
    has_stats = np.zeros(count, dtype=bool)
    has_distinct = np.zeros(count, dtype=bool)
    distinct_sets: list[tuple[int, frozenset]] = []
    for index, partition in enumerate(partitions):
        stats = partition.stats.get(name)
        if stats is None:
            continue
        try:
            min_values[index] = _exact_float(stats.min)
            max_values[index] = _exact_float(stats.max)
        except _Unsupported:
            # Non-numeric or float64-lossy boundaries: scalar oracle territory.
            return None
        has_stats[index] = True
        if stats.distinct is not None:
            has_distinct[index] = True
            distinct_sets.append((index, stats.distinct))
    mins = np.asarray(min_values, dtype=np.float64)
    maxs = np.asarray(max_values, dtype=np.float64)

    bitmap: np.ndarray | None = None
    members: list | None = None
    if distinct_sets:
        union = frozenset().union(*(distinct for _, distinct in distinct_sets))
        sorted_ok = True
        try:
            ordered = sorted(union)
        except TypeError:
            ordered = list(union)
            sorted_ok = False
        value_index = {value: position for position, value in enumerate(ordered)}
        num_words = (len(value_index) + _WORD_BITS - 1) // _WORD_BITS
        # One scatter for the whole column: (partition, bit-position) pairs
        # OR-ed into the flattened bitmap in a single ufunc pass.
        row = np.repeat(
            np.fromiter((index for index, _ in distinct_sets), dtype=np.int64),
            np.fromiter((len(distinct) for _, distinct in distinct_sets), dtype=np.int64),
        )
        try:
            if not sorted_ok:
                raise _Unsupported(name)
            # Numeric unions (dictionary codes): bit positions by binary
            # search, no per-value dict lookups.  Every member must round-trip
            # through float64 exactly, else searchsorted could collapse
            # adjacent values and misassign bits — the dict path is exact.
            union_array = np.array(
                [_exact_float(value) for value in ordered], dtype=np.float64
            )
            values = np.concatenate(
                [
                    np.fromiter(distinct, dtype=np.float64, count=len(distinct))
                    for _, distinct in distinct_sets
                ]
            )
            pos = np.searchsorted(union_array, values)
        except (_Unsupported, TypeError, ValueError):
            pos = np.asarray(
                [
                    value_index[value]
                    for _, distinct in distinct_sets
                    for value in distinct
                ],
                dtype=np.int64,
            )
        flat = np.zeros(count * num_words, dtype=np.uint64)
        bits = np.left_shift(np.uint64(1), (pos % _WORD_BITS).astype(np.uint64))
        np.bitwise_or.at(flat, row * num_words + pos // _WORD_BITS, bits)
        bitmap = flat.reshape(count, num_words)
        members = ordered
    return DenseColumn(mins, maxs, has_stats, has_distinct, members, bitmap)


def _lower(column: DenseColumn) -> _ColumnZones | None:
    """Lower one column's dense statistics to kernel zones.

    The one place both metadata forms become :class:`_ColumnZones`.
    ``None`` when a recorded bound does not round-trip through float64:
    the column is the scalar oracle's.
    """
    present = column.has_stats
    everywhere = bool(present.all())
    for bounds in (column.mins, column.maxs):
        if not _exact_array(bounds if everywhere else bounds[present]):
            return None
    values = column.values
    return _ColumnZones(
        column.mins.astype(np.float64, copy=False),
        column.maxs.astype(np.float64, copy=False),
        present,
        column.has_distinct,
        column.bitmap,
        {} if values is None else {value: bit for bit, value in enumerate(values)},
    )


def _member_block(zones: _ColumnZones, raw: Sequence, out: np.ndarray) -> np.ndarray:
    """``out[a, p]``: is constant ``raw[a]`` in partition ``p``'s distinct set?

    One bitmap gather for all constants with a known code; rows of unknown
    constants are all-False.
    """
    bitmap = zones.bitmap
    rows: list[int] = []
    codes: list[int] = []
    if bitmap is not None:
        value_index = zones.value_index
        for atom, value in enumerate(raw):
            position = value_index.get(value)
            if position is not None:
                rows.append(atom)
                codes.append(position)
    if len(rows) < len(raw):
        out[:] = False
    if bitmap is None or not rows:
        return out
    code_array = np.asarray(codes, dtype=np.int64)
    if zones.unpacked is not None:
        # Pre-expanded bitmap (stacked state space): pure bool gather.
        out[rows] = zones.unpacked[:, code_array].T
        return out
    words = bitmap[:, code_array // _WORD_BITS]  # (partitions, found)
    bits = np.left_shift(np.uint64(1), (code_array % _WORD_BITS).astype(np.uint64))
    out[rows] = ((words & bits[None, :]) != 0).T
    return out


def _atom_block(
    zones: _ColumnZones, kind: str, first, second, want_all: bool, out: np.ndarray
) -> None:
    """Write one ``(atoms × partitions)`` mask block of a column into ``out``.

    The one lowering of an atom to zone-map arithmetic, shared by every
    tier: ``out[a, p]`` is the may-match (``want_all`` False) or
    matches-all bit of atom ``a`` on partition ``p``, bit-for-bit the scalar
    oracle's answer.  ``kind`` is a comparison operator, ``"between"`` or
    ``"in"``; the constants are

    * comparison — ``first`` the float64 constants, ``second`` the raw
      constants (distinct sets are keyed by the raw values);
    * ``"between"`` — ``first`` the lows, ``second`` the highs;
    * ``"in"`` — ``first`` the value sets, one per atom; every partition
      that is read from the result must carry a distinct set.

    Float constants are scalars (a single atom) or ``(atoms, 1)`` columns;
    both broadcast against the ``(1, partitions)`` zone rows.
    """
    if kind == "!=":
        # The oracle's ``!=`` is the complement of ``==`` on the other side.
        _atom_block(zones, "==", first, second, not want_all, out)
        np.logical_not(out, out=out)
        return
    mins = zones.mins[None, :]
    maxs = zones.maxs[None, :]
    if kind == "in":
        bitmap = zones.bitmap
        assert bitmap is not None  # some partition carries a distinct set
        num_words = bitmap.shape[1]
        packed = np.empty((len(first), num_words), dtype=np.uint64)
        for atom, values in enumerate(first):
            packed[atom] = _pack_value_set(values, zones.value_index, num_words)
        out[:] = want_all
        for word in range(num_words):
            column = bitmap[:, word][None, :]
            if not want_all:  # the sets intersect
                out |= (column & packed[:, word][:, None]) != 0
            else:  # the partition's set is a subset
                out &= (column & ~packed[:, word][:, None]) == 0
    elif kind == "between":
        if not want_all:
            np.greater_equal(maxs, first, out=out)
            out &= mins <= second
        else:
            np.greater_equal(mins, first, out=out)
            out &= maxs <= second
    elif kind == "==":
        if want_all:
            np.equal(mins, first, out=out)
            out &= maxs == first
        elif zones.all_distinct:
            _member_block(zones, second, out)
        else:
            np.less_equal(mins, first, out=out)
            out &= first <= maxs
            if zones.any_distinct:
                member = _member_block(zones, second, np.empty_like(out))
                np.copyto(out, member, where=zones.has_distinct[None, :])
    elif kind == "<":
        np.less(maxs if want_all else mins, first, out=out)
    elif kind == "<=":
        np.less_equal(maxs if want_all else mins, first, out=out)
    elif kind == ">":
        np.greater(mins if want_all else maxs, first, out=out)
    else:  # ">="
        np.greater_equal(mins if want_all else maxs, first, out=out)
    if zones.all_stats:
        return
    if want_all:
        out &= zones.has_stats[None, :]
    else:
        out |= ~zones.has_stats[None, :]


class ZoneMapIndex:
    """Compiled zone maps for one layout: all-partition vectorized pruning.

    The public surface mirrors :class:`~repro.layouts.metadata.LayoutMetadata`
    but every operation is a NumPy expression over all partitions at once:

    * :meth:`may_match_mask` — one boolean per partition (the paper's
      ``BID IN (...)`` rewrite comes straight from its True positions);
    * :meth:`accessed_fraction` — the cost oracle ``c(s, q)``;
    * :meth:`prune_matrix` — the full ``(num_queries, num_partitions)``
      boolean matrix for a query sample, one ``_mask`` per predicate:
      the per-predicate reference the batched tiers are measured against.
    """

    #: sentinel distinguishing "not compiled yet" from "not compilable"
    _UNCOMPILED = object()
    #: sentinel for columns whose zone boundaries cannot be vectorized
    _NOT_COMPILABLE = object()

    def __init__(self, metadata: LayoutMetadata):
        # The statistics, not the snapshot: the snapshot owns this index
        # (``LayoutMetadata.zone_maps``), and a back-reference would make the
        # pair a cycle that only the generational collector frees.  A
        # table-built snapshot hands over its dense arrays (whose oracle
        # view is derived only if a fallback reads it), any other its tuple.
        self._dense = dense = metadata.dense
        self._partitions = metadata.partitions if dense is None else ()
        self.num_partitions = metadata.num_partitions
        self.partition_ids = metadata.partition_ids
        self.row_counts = metadata.row_counts.astype(np.float64)
        self.total_rows = float(metadata.total_rows)
        # Columns compile lazily, on first reference by a predicate: wide
        # fact tables carry dozens of columns while workloads touch a few.
        self._columns: dict[str, object] = {}
        self._may_cache: dict[tuple, np.ndarray] = {}

    @property
    def partitions(self) -> tuple[PartitionMetadata, ...]:
        """The snapshot's per-partition view, for the scalar fallback."""
        dense = self._dense
        return self._partitions if dense is None else dense.partitions

    # ------------------------------------------------------------- compilation
    def _column(self, name: str) -> _ColumnZones | None:
        """Zones for ``name``; raises ``_Unsupported`` for non-numeric ones.

        ``None`` means the column appears in no partition's stats, which the
        scalar oracle treats as "no information": may_match True, matches_all
        False, for every partition.
        """
        zones = self._columns.get(name, self._UNCOMPILED)
        if zones is self._UNCOMPILED:
            zones = self._columns[name] = self._compile(name)
        if zones is None:
            return None
        if zones is self._NOT_COMPILABLE:
            raise _Unsupported(name)
        return zones

    def _compile(self, name: str) -> object:
        """One column's zones, ``None`` or ``_NOT_COMPILABLE`` (see :meth:`_column`)."""
        dense = self._dense
        if dense is None:
            partitions = self._partitions
            if not any(name in partition.stats for partition in partitions):
                return None
            column = _compile_column(partitions, name)
        else:
            found = dense.columns.get(name)
            if isinstance(found, tuple):  # a dtype min/max cannot reduce
                return self._NOT_COMPILABLE
            if found is None or not found.has_stats.any():
                return None
            column = found
        zones = None if column is None else _lower(column)
        return self._NOT_COMPILABLE if zones is None else zones

    def _const(self, fill: bool) -> np.ndarray:
        return np.full(self.num_partitions, fill, dtype=bool)

    def _atom_mask(self, node: Comparison | Between | In, want_all: bool) -> np.ndarray:
        """One atom's mask: the single row of a one-atom block."""
        zones = self._column(node.column)
        if zones is None:
            return self._const(not want_all)
        if isinstance(node, In) and not zones.all_distinct:
            return self._mixed_in_mask(node, zones, want_all)
        out = np.empty((1, self.num_partitions), dtype=bool)
        if isinstance(node, Comparison):
            value = _exact_float(node.value)
            _atom_block(zones, node.op, value, (node.value,), want_all, out)
        elif isinstance(node, Between):
            low, high = _exact_float(node.low), _exact_float(node.high)
            _atom_block(zones, "between", low, high, want_all, out)
        else:
            _atom_block(zones, "in", (node.values,), None, want_all, out)
        return out[0]

    def _mixed_in_mask(self, node: In, zones: _ColumnZones, want_all: bool) -> np.ndarray:
        """``In`` over a column whose partitions do not all carry a distinct set.

        The min/max test decides; where a partition does carry a set, the
        bitmap row of the atom block overrides it.  The mix is per
        partition, so this branch has no group form.
        """
        try:
            ordered_values = sorted(node.values)
        except TypeError:
            raise _Unsupported(node) from None
        values = np.array([_exact_float(v) for v in ordered_values], dtype=np.float64)
        if not want_all:
            inside = (zones.mins[:, None] <= values[None, :]) & (
                values[None, :] <= zones.maxs[:, None]
            )
            mask = inside.any(axis=1)
        else:
            mask = (zones.mins == zones.maxs) & np.isin(zones.mins, values)
        if zones.any_distinct:
            by_set = np.empty((1, self.num_partitions), dtype=bool)
            _atom_block(zones, "in", (node.values,), None, want_all, by_set)
            mask = np.where(zones.has_distinct, by_set[0], mask)
        if zones.all_stats:
            return mask
        return mask & zones.has_stats if want_all else mask | ~zones.has_stats

    def _scalar_mask(self, predicate: Predicate, want_all: bool) -> np.ndarray:
        """Reference-oracle fallback for nodes the compiler can't lower."""
        partitions = self.partitions
        fn = predicate.matches_all if want_all else predicate.may_match
        return np.fromiter((fn(p) for p in partitions), dtype=bool, count=len(partitions))

    def _mask(self, predicate: Predicate, want_all: bool) -> np.ndarray:
        """Lower a predicate to one side of its (may_match, matches_all) pair.

        Only the requested side is computed: ``Not`` flips to the other side
        for its child, everything else stays on one side, so a Not-free tree
        does half the work of computing both masks.
        """
        node_type = type(predicate)
        if node_type is Comparison or node_type is Between or node_type is In:
            try:
                return self._atom_mask(predicate, want_all)
            except _Unsupported:
                return self._scalar_mask(predicate, want_all)
        if node_type is And or node_type is Or:
            # And: may = ∧ may, all = ∧ all; Or: may = ∨ may, all = ∨ all.
            combine = np.ndarray.__and__ if node_type is And else np.ndarray.__or__
            mask = self._mask(predicate.children[0], want_all)
            for child in predicate.children[1:]:
                mask = combine(mask, self._mask(child, want_all))
            return mask
        if node_type is Not:
            return ~self._mask(predicate.child, not want_all)
        if node_type is AlwaysTrue:
            return self._const(True)
        if node_type is AlwaysFalse:
            return self._const(False)
        # Unknown Predicate subclass: defer to its own (scalar) semantics.
        return self._scalar_mask(predicate, want_all)

    # ------------------------------------------------------------ entry points
    #: Mask-cache bound: repeat-predicate workloads (the executor re-running
    #: the same queries) stay fully cached; template streams that mint a new
    #: predicate per query cannot grow the cache without limit.  Eviction is
    #: LRU — long experiment runs that interleave a hot working set with a
    #: stream of one-off predicates keep the hot masks cached instead of
    #: periodically dropping everything.
    MASK_CACHE_CAP = 1024

    def may_match_mask(self, predicate: Predicate) -> np.ndarray:
        """Boolean per partition: may any of its rows satisfy ``predicate``?"""
        key = predicate.cache_key()
        cached = lru_get(self._may_cache, key)
        if cached is None:
            cached = lru_put(
                self._may_cache, key, self._mask(predicate, False), self.MASK_CACHE_CAP
            )
        return cached

    def relevant_partition_ids(self, predicate: Predicate) -> set[int]:
        """Ids of partitions that cannot be skipped (the BID IN rewrite)."""
        return set(self.partition_ids[self.may_match_mask(predicate)].tolist())

    def accessed_fraction(self, predicate: Predicate) -> float:
        """Vectorized ``c(s, q)``: fraction of rows that must be read.

        Computed without touching the mask cache: the cost-evaluation path
        memoizes the resulting float upstream (per layout, per predicate),
        so caching the mask here would be write-only memory growth.
        """
        if self.total_rows == 0.0:
            return 0.0
        mask = self._mask(predicate, False)
        return float(self.row_counts @ mask) / self.total_rows

    def prune_matrix(self, predicates: Sequence[Predicate]) -> np.ndarray:
        """Full ``(num_queries, num_partitions)`` may-match matrix.

        Masks are computed fresh (no cache writes) — see
        :meth:`accessed_fraction` for why.
        """
        if not predicates:
            return np.zeros((0, self.num_partitions), dtype=bool)
        return np.stack([self._mask(p, False) for p in predicates])
