"""Stacked state space: one 3-D compiled pass over every layout at once.

:class:`~repro.layouts.workload_compiler.CompiledWorkload` removed the
per-predicate overhead of pruning — one column-wise pass produces the full
``(queries × partitions)`` matrix for *one* layout.  But OREO's admission
loop (Algorithm 5) and every D-UMTS step still price the sample against
*every* layout in the state space, so the compiled pass runs ``O(|states|)``
times per step, each invocation paying the same Python-level dispatch over
a small ``(atoms × partitions)`` block.

:class:`StackedStateSpace` amortizes that last axis.  Per column it pads
every layout's dense zone arrays (min/max vectors, stats/distinct flags,
packed ``uint64`` distinct-set bitmaps re-coded onto one shared value
union) into ``(layouts × partitions)`` slabs with a validity mask, and
runs the compiled workload's reduction
(:meth:`CompiledWorkload._reduce`) over the *flattened*
``layouts·partitions`` axis — emitting the full ``(layouts × queries ×
partitions)`` may-match / matches-all tensor in the same handful of
broadcasted comparisons a single layout used to cost.  Because every
block comes from the one atom kernel
(:func:`repro.layouts.zonemaps._atom_block`) running on the
concatenation of the very same per-layout arrays, each layout's slice of
the tensor is bit-for-bit identical to the per-layout compiled pass (and
therefore to the scalar ``may_match`` oracle) — asserted by the
differential test battery.

Fallback tiers (widest to narrowest scope):

1. **stacked 3-D pass** — all layouts whose referenced columns compiled
   to dense zones; the default for admission, pruning, and cost batching;
2. **per-layout compiled pass** — *residue layouts*: a layout whose
   referenced column has non-numeric / float64-lossy boundaries (its
   slab cannot be stacked) is evaluated through the ordinary per-layout
   :meth:`CompiledWorkload._group_matrix` path and written into its
   slice of the tensor; likewise ``In`` groups fall back per layout when
   the stacked column is not uniformly distinct-mapped;
3. **scalar oracle** — residue *predicates* (``Or``/``Not`` subtrees,
   unsupported nodes, lossy constants) AND-fold per layout through
   ``ZoneMapIndex._mask``, exactly as in the per-layout compiled pass.

Maintenance on the layout axis is incremental (the stack outlives any one
layout; a layout's :class:`ZoneMapIndex` is never updated, only replaced —
see ``docs/architecture.md``, "Cache freshness"):

* :meth:`add_layout` appends a slab to every already-stacked column
  (growing the shared value union append-only and the padded partition
  width when needed) without touching the survivors' slabs;
* :meth:`remove_layout` tombstones the slab — the slot is excluded from
  outputs and validity-masked out of the kernel fast-path flags — and the
  arrays are compacted only once dead slabs outnumber live ones;
* :meth:`update_layout` refills one slab in place from a replacement
  index.  ``CostEvaluator`` calls it when a layout id that is already
  stacked is priced again after its metadata snapshot was replaced (a
  streaming append under a fixed id, a same-id consolidation), so the
  slot is reused instead of tombstoned and re-added.

Padded cells (beyond a layout's partition count) and tombstoned slabs
hold unspecified values; every public entry point slices them away, and
the fast-path flags (``all_stats`` / ``all_distinct``) are computed over
the validity mask so padding can never redirect a kernel branch.
"""

# reprolint: vectorized

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from .workload_compiler import CompiledWorkload
from .zonemaps import (
    ZoneMapIndex,
    _atom_block,
    _ColumnZones,
    _fractions_from_matrix,
    _Unsupported,
    _WORD_BITS,
)

__all__ = ["StackedStateSpace"]


class _StackedColumn:
    """One column's zone slabs across every layout slot of the stack.

    All arrays are ``(num_slots, partition_width)``; ``bitmap`` adds a
    trailing word axis and is re-coded so every slab shares
    ``value_index`` (the append-only union of the layouts' distinct-value
    dictionaries).  ``unsupported`` holds slots whose per-layout column
    cannot be vectorized (non-numeric boundaries): their slabs stay
    zeroed and evaluation routes them through the per-layout fallback.
    """

    __slots__ = (
        "mins",
        "maxs",
        "has_stats",
        "has_distinct",
        "bitmap",
        "value_index",
        "unsupported",
        "unpacked_cache",
    )

    def __init__(self, num_slots: int, width: int):
        self.mins = np.zeros((num_slots, width), dtype=np.float64)
        self.maxs = np.zeros((num_slots, width), dtype=np.float64)
        self.has_stats = np.zeros((num_slots, width), dtype=bool)
        self.has_distinct = np.zeros((num_slots, width), dtype=bool)
        self.bitmap: np.ndarray | None = None
        self.value_index: dict = {}
        self.unsupported: set[int] = set()
        #: cached bool expansion of ``bitmap`` (see ``_zones``): nulled
        #: whenever this column's bitmap contents or shape change, so the
        #: expensive re-expansion is confined to columns a mutation touched.
        self.unpacked_cache: np.ndarray | None = None


def _repad(array: np.ndarray, width: int) -> np.ndarray:
    """Grow the partition axis (axis 1) of a slab array to ``width``."""
    shape = (array.shape[0], width) + array.shape[2:]
    out = np.zeros(shape, dtype=array.dtype)
    out[:, : array.shape[1]] = array
    return out


def _append_row(array: np.ndarray) -> np.ndarray:
    """Append one zeroed slab row (axis 0) to a slab array."""
    shape = (array.shape[0] + 1,) + array.shape[1:]
    out = np.zeros(shape, dtype=array.dtype)
    out[: array.shape[0]] = array
    return out


def _recode_bitmap(src: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Re-code a per-layout bitmap onto union bit positions.

    ``positions[i]`` is the union position of the layout's value ``i``.
    When the layout's dictionary is a prefix of the union in the same
    order, the bit layout already matches and ``src`` is returned as-is
    (the caller copies into the slab, so aliasing is safe).
    """
    num_partitions, _ = src.shape
    num_values = len(positions)
    if num_values == 0 or num_partitions == 0:
        return src
    if np.array_equal(positions, np.arange(num_values)):
        return src
    src_positions = np.arange(num_values)
    words = src[:, src_positions // _WORD_BITS]
    probe = np.left_shift(
        np.uint64(1), (src_positions % _WORD_BITS).astype(np.uint64)
    )
    part, member = np.nonzero((words & probe[None, :]) != 0)
    num_words = (int(positions.max()) + _WORD_BITS) // _WORD_BITS
    out = np.zeros((num_partitions, num_words), dtype=np.uint64)
    if len(part):
        dst = positions[member]
        bits = np.left_shift(np.uint64(1), (dst % _WORD_BITS).astype(np.uint64))
        np.bitwise_or.at(
            out.reshape(-1), part * num_words + dst // _WORD_BITS, bits
        )
    return out


class StackedStateSpace:
    """All layouts' zone maps stacked for one 3-D batched evaluation.

    The stack owns nothing but references: each layout keeps its ordinary
    :class:`ZoneMapIndex` (used for residue fallbacks and single-layout
    callers), and the stack lazily mirrors the columns a workload actually
    references into padded slabs.  Layouts may have different partition
    counts; slabs are padded to the widest and a validity mask keeps the
    padding out of every kernel decision.
    """

    #: Query-count cutoff below which :meth:`fractions_tensor` (one fused
    #: einsum over the whole bool tensor) beats the per-layout
    #: astype-then-matvec loop.  The loop pays Python dispatch plus one
    #: strided cast and one BLAS call *per layout*, which dominates for
    #: narrow samples — the per-step D-UMTS pricing is a single query —
    #: while for wide admission samples the BLAS matvecs win back the
    #: difference (crossover measured around 24 queries at 32 layouts ×
    #: 256 partitions; 16 keeps a safety margin on the fused side).
    FUSED_FRACTION_QUERY_CUTOFF = 16

    def __init__(self, indexes: Mapping[str, ZoneMapIndex] | None = None):
        self._slots: dict[str, int] = {}
        self._indexes: list[ZoneMapIndex | None] = []
        self._p_cap = 0
        self._valid = np.zeros((0, 0), dtype=bool)
        self._columns: dict[str, _StackedColumn] = {}
        self._zones_cache: dict[str, tuple[int, _ColumnZones]] = {}
        self._version = 0
        self._dead = 0
        #: reusable evaluation scratch (block matrix, layer gathers): the
        #: stacked pass works on multi-megabyte temporaries that would
        #: otherwise be mmap'd and page-faulted afresh on every call.
        #: Only the returned tensor is freshly allocated (callers own it).
        self._buffers: dict[str, np.ndarray] = {}
        #: zero-padded ``(slots, width)`` row-count slab + per-slot totals
        #: for the fused fraction contraction, rebuilt on version change.
        self._counts_cache: tuple[int, np.ndarray, np.ndarray] | None = None
        if indexes:
            for layout_id, index in indexes.items():
                self.add_layout(layout_id, index)

    # -------------------------------------------------------------- registry
    def __contains__(self, layout_id: str) -> bool:
        return layout_id in self._slots

    def __len__(self) -> int:
        return len(self._slots)

    @property
    def layout_ids(self) -> list[str]:
        """Live layout ids, in slot (insertion) order."""
        return sorted(self._slots, key=self._slots.__getitem__)

    @property
    def partition_width(self) -> int:
        """Padded partition axis length of the emitted tensors."""
        return self._p_cap

    def index_for(self, layout_id: str) -> ZoneMapIndex:
        """The per-layout zone-map index backing one slab."""
        return self._indexes[self._slots[layout_id]]

    # -------------------------------------------------- incremental maintenance
    def add_layout(self, layout_id: str, index: ZoneMapIndex) -> None:
        """Append one layout slab; survivors' slabs are not touched."""
        if layout_id in self._slots:
            raise ValueError(f"layout {layout_id!r} is already stacked")
        if index.num_partitions > self._p_cap:
            self._grow_width(index.num_partitions)
        slot = len(self._indexes)
        self._indexes.append(index)
        self._valid = _append_row(self._valid)
        self._write_slot_frame(slot, index)
        for name, column in self._columns.items():
            column.mins = _append_row(column.mins)
            column.maxs = _append_row(column.maxs)
            column.has_stats = _append_row(column.has_stats)
            column.has_distinct = _append_row(column.has_distinct)
            if column.bitmap is not None:
                column.bitmap = _append_row(column.bitmap)
            self._fill_slab(column, name, slot, index)
        self._slots[layout_id] = slot
        self._version += 1

    def remove_layout(self, layout_id: str) -> None:
        """Tombstone one layout slab; compaction only when dead > live."""
        slot = self._slots.pop(layout_id)
        self._indexes[slot] = None
        self._valid[slot] = False
        self._dead += 1
        self._version += 1
        if self._dead > len(self._slots):
            self._compact()

    def discard(self, layout_id: str) -> None:
        """Remove a layout if stacked; no-op otherwise."""
        if layout_id in self._slots:
            self.remove_layout(layout_id)

    def update_layout(self, layout_id: str, index: ZoneMapIndex) -> None:
        """Refill one slab in place from the layout's replacement index.

        ``index`` was compiled from the layout's new metadata snapshot;
        the columns the stack mirrors compile on first reference here.
        """
        slot = self._slots[layout_id]
        if index.num_partitions > self._p_cap:
            self._grow_width(index.num_partitions)
        self._indexes[slot] = index
        self._write_slot_frame(slot, index)
        for name, column in self._columns.items():
            self._fill_slab(column, name, slot, index)
        self._version += 1

    def _write_slot_frame(self, slot: int, index: ZoneMapIndex) -> None:
        num = index.num_partitions
        self._valid[slot] = False
        self._valid[slot, :num] = True

    def _grow_width(self, width: int) -> None:
        self._p_cap = width
        self._valid = _repad(self._valid, width)
        for column in self._columns.values():
            column.mins = _repad(column.mins, width)
            column.maxs = _repad(column.maxs, width)
            column.has_stats = _repad(column.has_stats, width)
            column.has_distinct = _repad(column.has_distinct, width)
            if column.bitmap is not None:
                column.bitmap = _repad(column.bitmap, width)
            column.unpacked_cache = None
        self._zones_cache.clear()
        self._version += 1

    def _compact(self) -> None:
        """Drop tombstoned slabs by slicing live rows out of every array."""
        live = sorted(self._slots.values())
        remap = {old: new for new, old in enumerate(live)}
        self._indexes = [self._indexes[slot] for slot in live]
        self._slots = {lid: remap[slot] for lid, slot in self._slots.items()}
        self._valid = self._valid[live].copy()
        for column in self._columns.values():
            column.mins = column.mins[live].copy()
            column.maxs = column.maxs[live].copy()
            column.has_stats = column.has_stats[live].copy()
            column.has_distinct = column.has_distinct[live].copy()
            if column.bitmap is not None:
                column.bitmap = column.bitmap[live].copy()
            column.unsupported = {
                remap[slot] for slot in column.unsupported if slot in remap
            }
            column.unpacked_cache = None
        self._zones_cache.clear()
        self._dead = 0
        self._version += 1

    # ------------------------------------------------------------ column slabs
    def _column(self, name: str) -> _StackedColumn:
        column = self._columns.get(name)
        if column is None:
            column = _StackedColumn(len(self._indexes), self._p_cap)
            for slot, index in enumerate(self._indexes):
                if index is not None:
                    self._fill_slab(column, name, slot, index)
            self._columns[name] = column
        return column

    def _fill_slab(
        self, column: _StackedColumn, name: str, slot: int, index: ZoneMapIndex
    ) -> None:
        """(Re)write one layout's slab of one column from its index."""
        column.mins[slot] = 0.0
        column.maxs[slot] = 0.0
        column.has_stats[slot] = False
        column.has_distinct[slot] = False
        if column.bitmap is not None:
            column.bitmap[slot] = 0
        column.unsupported.discard(slot)
        column.unpacked_cache = None
        try:
            zones = index._column(name)
        except _Unsupported:
            # Residue layout for this column: per-layout fallback at eval.
            column.unsupported.add(slot)
            return
        if zones is None:
            return  # column absent from every partition's stats: all-False flags
        num = index.num_partitions
        column.mins[slot, :num] = zones.mins
        column.maxs[slot, :num] = zones.maxs
        column.has_stats[slot, :num] = zones.has_stats
        column.has_distinct[slot, :num] = zones.has_distinct
        if zones.bitmap is not None:
            positions = self._union_positions(column, zones.value_index)
            num_words = (len(column.value_index) + _WORD_BITS - 1) // _WORD_BITS
            if column.bitmap is None:
                column.bitmap = np.zeros(
                    (len(self._indexes), self._p_cap, num_words), dtype=np.uint64
                )
            elif num_words > column.bitmap.shape[2]:
                grown = np.zeros(
                    (column.bitmap.shape[0], self._p_cap, num_words), dtype=np.uint64
                )
                grown[:, :, : column.bitmap.shape[2]] = column.bitmap
                column.bitmap = grown
            recoded = _recode_bitmap(zones.bitmap, positions)
            column.bitmap[slot, :num, : recoded.shape[1]] = recoded

    @staticmethod
    def _union_positions(column: _StackedColumn, value_index: dict) -> np.ndarray:
        """Map one layout's value dictionary into the shared union.

        The union only ever grows (append-only), so bit positions written
        by earlier slabs stay valid.
        """
        union = column.value_index
        out = np.empty(len(value_index), dtype=np.int64)
        for value, position in value_index.items():
            slot = union.get(value)
            if slot is None:
                slot = union[value] = len(union)
            out[position] = slot
        return out

    def _zones(self, name: str) -> _ColumnZones:
        """Flat (slots·width) zones view with flags over the validity mask."""
        cached = self._zones_cache.get(name)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        column = self._column(name)
        flat_width = len(self._indexes) * self._p_cap
        bitmap: np.ndarray | None = None
        if column.bitmap is not None:
            bitmap = column.bitmap.reshape(flat_width, -1)
        zones = _ColumnZones(
            column.mins.reshape(-1),
            column.maxs.reshape(-1),
            column.has_stats.reshape(-1),
            column.has_distinct.reshape(-1),
            bitmap,
            column.value_index,
        )
        # Fast-path flags over *valid* cells only: padding and tombstones
        # must never route a kernel onto a branch the real data disagrees
        # with (their cell values are unspecified and sliced away).
        valid = self._valid.reshape(-1)
        live_stats = zones.has_stats[valid]
        live_distinct = zones.has_distinct[valid]
        zones.all_stats = bool(live_stats.all())
        zones.any_distinct = bool(live_distinct.any())
        zones.all_distinct = bool(live_distinct.size) and bool(live_distinct.all())
        if bitmap is not None and len(column.value_index):
            # Expand the bitmap once per *column* change (cached on the
            # column, not the zones view): membership kernels then gather
            # bools instead of replicating uint64 word columns across the
            # wide stacked partition axis, and mutations that never touch
            # this column's slabs don't pay the re-expansion.
            unpacked = column.unpacked_cache
            if unpacked is None or unpacked.shape != (
                flat_width,
                len(column.value_index),
            ):
                positions = np.arange(len(column.value_index))
                unpacked = (
                    bitmap[:, positions // _WORD_BITS]
                    >> (positions % _WORD_BITS).astype(np.uint64)
                ) & np.uint64(1) != 0
                column.unpacked_cache = unpacked
            zones.unpacked = unpacked
        self._zones_cache[name] = (self._version, zones)
        return zones

    # --------------------------------------------------------------- evaluation
    def prune_tensor(
        self, compiled: CompiledWorkload, layout_ids: Sequence[str] | None = None
    ) -> np.ndarray:
        """``(layouts × queries × partition_width)`` may-match tensor.

        ``tensor[i, :, :P_i]`` (``P_i`` the i-th layout's partition count)
        is bit-for-bit ``compiled.prune_matrix(index_i)``; cells beyond
        ``P_i`` are unspecified padding.
        """
        return self._tensor(compiled, False, layout_ids)

    def matches_all_tensor(
        self, compiled: CompiledWorkload, layout_ids: Sequence[str] | None = None
    ) -> np.ndarray:
        """``(layouts × queries × partition_width)`` matches-all tensor."""
        return self._tensor(compiled, True, layout_ids)

    def prune_matrix(
        self, compiled: CompiledWorkload, layout_id: str
    ) -> np.ndarray:
        """One layout's exact ``(queries × partitions)`` slice of the tensor."""
        index = self.index_for(layout_id)
        tensor = self.prune_tensor(compiled, [layout_id])
        return tensor[0, :, : index.num_partitions]

    def accessed_fractions(
        self, compiled: CompiledWorkload, layout_ids: Sequence[str] | None = None
    ) -> np.ndarray:
        """Batched ``c(s, q)`` as a ``(layouts × queries)`` float matrix.

        Narrow samples (at most :data:`FUSED_FRACTION_QUERY_CUTOFF`
        queries — the per-step D-UMTS pricing shape) contract through
        :meth:`fractions_tensor` in one fused einsum; wide samples loop
        the per-layout BLAS matvec, which amortizes better there.  Either
        way each row carries the exact expression of
        :meth:`CompiledWorkload.accessed_fractions` on that layout's
        tensor slice, so the floats match the per-layout path bit for bit
        (partition row counts are integers, so the sums are exact in any
        order).
        """
        ids = self.layout_ids if layout_ids is None else list(layout_ids)
        tensor = self._tensor(compiled, False, ids)
        if 0 < compiled.num_queries <= self.FUSED_FRACTION_QUERY_CUTOFF:
            return self.fractions_tensor(tensor, ids)
        out = np.zeros((len(ids), compiled.num_queries), dtype=np.float64)
        for row, layout_id in enumerate(ids):
            index = self.index_for(layout_id)
            if compiled.num_queries == 0 or index.total_rows == 0.0:
                continue
            matrix = tensor[row, :, : index.num_partitions]
            out[row] = _fractions_from_matrix(
                matrix, index.row_counts, index.total_rows
            )
        return out

    def _counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Zero-padded ``(slots, width)`` row counts + per-slot total rows."""
        cached = self._counts_cache
        if cached is not None and cached[0] == self._version:
            return cached[1], cached[2]
        counts = np.zeros((len(self._indexes), self._p_cap), dtype=np.float64)
        totals = np.zeros(len(self._indexes), dtype=np.float64)
        for slot, index in enumerate(self._indexes):
            if index is None:
                continue
            counts[slot, : index.num_partitions] = index.row_counts
            totals[slot] = index.total_rows
        self._counts_cache = (self._version, counts, totals)
        return counts, totals

    def fractions_tensor(
        self, tensor: np.ndarray, layout_ids: Sequence[str] | None = None
    ) -> np.ndarray:
        """Fused ``c(s, q)`` contraction over a may-match tensor.

        ``tensor`` is a ``(layouts × queries × partition_width)`` bool
        tensor produced by :meth:`prune_tensor` for ``layout_ids`` against
        the stack's *current* contents.  The whole contraction is one
        einsum against the zero-padded row-count slab — no per-layout
        ``astype`` copies, no per-layout BLAS dispatch — which is what
        makes single-query pricing across the state space (the per-step
        D-UMTS cost dicts) an order of magnitude cheaper than looping the
        layouts.  Padded cells hold unspecified values but their row count
        is zero, so they can never leak into a fraction; empty layouts
        (zero rows) yield exact ``0.0`` rows.  The floats are bit-for-bit
        the per-layout :func:`_fractions_from_matrix` results: every
        addend is an integer-valued float, so the sums are exact in any
        order, and the final division by total rows is the same scalar op.
        """
        counts, totals = self._counts()
        if layout_ids is not None:
            slots = [self._slots[layout_id] for layout_id in layout_ids]
        else:
            slots = sorted(self._slots.values())
        if slots != list(range(len(self._indexes))):
            counts = counts[slots]
            totals = totals[slots]
        buffer = self._buffers.get("fractions")
        if buffer is None or buffer.size < tensor.size:
            buffer = np.empty(tensor.size, dtype=np.float64)
            self._buffers["fractions"] = buffer
        cast = buffer[: tensor.size].reshape(tensor.shape)
        np.copyto(cast, tensor)
        out = np.einsum("lqp,lp->lq", cast, counts)
        live = totals > 0.0
        if not live.all():
            out[live] /= totals[live, None]
        else:
            out /= totals[:, None]
        return out

    def _tensor(
        self,
        compiled: CompiledWorkload,
        want_all: bool,
        layout_ids: Sequence[str] | None,
    ) -> np.ndarray:
        if layout_ids is None:
            slots = sorted(self._slots.values())
        else:
            slots = [self._slots[layout_id] for layout_id in layout_ids]
        flat = self._evaluate(compiled, want_all)
        tensor = flat.reshape(compiled.num_queries, len(self._indexes), self._p_cap)
        if slots == list(range(len(self._indexes))):
            return tensor.transpose(1, 0, 2)  # every slot, in order: a view
        return tensor[:, slots, :].transpose(1, 0, 2)

    def _scratch(self, role: str, rows: int, cols: int) -> np.ndarray:
        """A reusable ``(rows, cols)`` bool workspace for one evaluation step."""
        need = rows * cols
        buffer = self._buffers.get(role)
        if buffer is None or buffer.size < need:
            buffer = np.empty(need, dtype=bool)
            self._buffers[role] = buffer
        return buffer[:need].reshape(rows, cols)

    def _evaluate(self, compiled: CompiledWorkload, want_all: bool) -> np.ndarray:
        """``(queries, slots·width)`` flat matrix over all slabs at once:
        the compiled workload's own reduction, with the partition axis
        widened to the whole stack."""
        out = compiled._reduce(
            len(self._indexes) * self._p_cap,
            lambda group, block: self._group_block(group, want_all, block),
            self._scratch,
        )
        if compiled._residue:
            # Residue predicates are exact via each layout's per-predicate
            # path — the same tier the per-layout compiled pass uses.
            for slot, index in enumerate(self._indexes):
                if index is None or index.num_partitions == 0:
                    continue
                base = slot * self._p_cap
                segment = out[:, base : base + index.num_partitions]
                for row, node in compiled._residue:
                    segment[row] &= index._mask(node, want_all)
        return out

    def _group_block(self, group, want_all: bool, out: np.ndarray) -> None:
        """One group's ``(unique_atoms, slots·width)`` mask block → ``out``.

        The atom kernel covers every slab in one broadcasted call; slabs
        that cannot ride it — unsupported (residue-layout) columns, or
        every slab when an ``In`` group lacks a uniform distinct mapping —
        are overwritten with the per-layout
        :meth:`CompiledWorkload._group_matrix` block, which is exactly
        what the per-layout compiled pass would produce.
        """
        zones = self._zones(group.column)
        column = self._columns[group.column]
        if group.kind == "in" and not zones.all_distinct:
            fallback: set[int] | None = None  # every live slot falls back
        else:
            fallback = column.unsupported
            _atom_block(zones, group.kind, group.first, group.second, want_all, out)
            if not fallback:
                return
        for slot, index in enumerate(self._indexes):
            if index is None:
                continue
            if fallback is not None and slot not in fallback:
                continue
            base = slot * self._p_cap
            CompiledWorkload._group_matrix(
                group, index, want_all, out[:, base : base + index.num_partitions]
            )
