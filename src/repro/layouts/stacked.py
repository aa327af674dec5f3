"""Stacked state space: one 3-D compiled pass over every layout at once.

:class:`~repro.layouts.workload_compiler.CompiledWorkload` removed the
per-predicate overhead of pruning — one column-wise pass produces the full
``(queries × partitions)`` matrix for *one* layout.  But OREO's admission
loop (Algorithm 5) and every D-UMTS step still price the sample against
*every* layout in the state space, so the compiled pass runs ``O(|states|)``
times per step, each invocation paying the same Python-level dispatch over
a small ``(atoms × partitions)`` block.

:class:`StackedStateSpace` amortizes that last axis.  Per column it
concatenates every layout's dense zone arrays (min/max vectors,
stats/distinct flags, distinct-set bitmaps unpacked onto the column's
value union and re-packed once) into one flat ``layouts·width`` axis,
each layout zero-padded to the widest, and runs the compiled workload's
reduction (:meth:`CompiledWorkload._reduce`) over it — emitting the full
``(layouts × queries × partitions)`` may-match tensor in the same handful
of broadcasted comparisons a single layout used to cost.  Because every
block comes from the one atom kernel
(:func:`repro.layouts.zonemaps._atom_block`) running on the concatenation
of the very same per-layout arrays, each layout's slice of the tensor is
bit-for-bit identical to the per-layout compiled pass (and therefore to
the scalar ``may_match`` oracle) — asserted by the differential test
battery.

Fallback tiers (widest to narrowest scope):

1. **stacked 3-D pass** — all layouts whose referenced columns compiled
   to dense zones; the default for admission, pruning, and cost batching;
2. **per-layout compiled pass** — *residue layouts*: a layout whose
   referenced column has non-numeric / float64-lossy boundaries is
   evaluated through the ordinary per-layout
   :meth:`CompiledWorkload._group_matrix` path and written into its
   slice of the tensor; likewise ``In`` groups fall back per layout when
   the stacked column is not uniformly distinct-mapped;
3. **scalar oracle** — residue *predicates* (``Or``/``Not`` subtrees,
   unsupported nodes, lossy constants) AND-fold per layout through
   ``ZoneMapIndex._mask``, exactly as in the per-layout compiled pass.

The stack is a pure function of its ``layout id → ZoneMapIndex`` dict
(``docs/architecture.md``, "Cache freshness"): :meth:`add_layout`,
:meth:`remove_layout` and :meth:`update_layout` edit the dict and drop
every derived array, and a column's flat zones are rebuilt from the live
indexes on its first use after the change.  Membership changes a handful
of times per hundreds of evaluations, so nothing is maintained in place.
Padded cells (beyond a layout's partition count) hold unspecified
results; every caller slices them away, and the fast-path flags
(``all_stats`` / ``all_distinct``) are computed over the live cells so
padding can never redirect a kernel branch.
"""

# reprolint: vectorized

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from .metadata import pack_bits, unpack_bits
from .workload_compiler import CompiledWorkload, _AtomGroup
from .zonemaps import ZoneMapIndex, _atom_block, _ColumnZones, _Unsupported

__all__ = ["StackedStateSpace"]


class StackedStateSpace:
    """All layouts' zone maps stacked for one 3-D batched evaluation.

    The stack owns nothing but references: each layout keeps its ordinary
    :class:`ZoneMapIndex` (used for residue fallbacks and single-layout
    callers), and the stack derives flat zones for the columns a workload
    actually references.  Layouts may have different partition counts;
    each is padded to the widest live one.
    """

    def __init__(self, indexes: Mapping[str, ZoneMapIndex] | None = None):
        self._indexes: dict[str, ZoneMapIndex] = dict(indexes or {})
        #: reusable evaluation scratch (block matrix, layer gathers): the
        #: stacked pass works on multi-megabyte temporaries that would
        #: otherwise be mmap'd and page-faulted afresh on every call.
        #: Only the returned tensor is freshly allocated (callers own it).
        self._buffers: dict[str, np.ndarray] = {}
        self._drop()

    def _drop(self) -> None:
        """Forget everything derived from the membership; rebuilt on use."""
        self._slots = {layout_id: slot for slot, layout_id in enumerate(self._indexes)}
        self._width = max((index.num_partitions for index in self._indexes.values()), default=0)
        #: column name -> (flat zones, slots whose column is unsupported)
        self._columns: dict[str, tuple[_ColumnZones, list[int]]] = {}
        #: zero-padded ``(layouts, width)`` row counts + per-layout totals
        self._counts: tuple[np.ndarray, np.ndarray] | None = None

    # -------------------------------------------------------------- registry
    def __contains__(self, layout_id: str) -> bool:
        return layout_id in self._indexes

    def __len__(self) -> int:
        return len(self._indexes)

    @property
    def layout_ids(self) -> list[str]:
        """Live layout ids, in insertion order."""
        return list(self._indexes)

    @property
    def partition_width(self) -> int:
        """Padded partition axis length of the emitted tensors."""
        return self._width

    def index_for(self, layout_id: str) -> ZoneMapIndex:
        """The per-layout zone-map index backing one tensor slice."""
        return self._indexes[layout_id]

    def add_layout(self, layout_id: str, index: ZoneMapIndex) -> None:
        """Stack one more layout."""
        if layout_id in self._indexes:
            raise ValueError(f"layout {layout_id!r} is already stacked")
        self._indexes[layout_id] = index
        self._drop()

    def remove_layout(self, layout_id: str) -> None:
        """Unstack one layout; ``KeyError`` if it is not stacked."""
        del self._indexes[layout_id]
        self._drop()

    def discard(self, layout_id: str) -> None:
        """Remove a layout if stacked; no-op otherwise."""
        if layout_id in self._indexes:
            self.remove_layout(layout_id)

    def update_layout(self, layout_id: str, index: ZoneMapIndex) -> None:
        """Replace a stacked layout's index, keeping its position."""
        if layout_id not in self._indexes:
            raise KeyError(layout_id)
        self._indexes[layout_id] = index
        self._drop()

    # ------------------------------------------------------------ column zones
    def _column(self, name: str) -> tuple[_ColumnZones, list[int]]:
        """Flat ``(layouts·width)`` zones of one column, built on first use.

        Each live layout's ``ZoneMapIndex._column`` arrays are copied into
        its padded row; a layout whose column cannot be vectorized keeps a
        zero row and is listed for the per-layout fallback, and a layout
        where the column is absent keeps a zero row, whose all-False
        ``has_stats`` is exactly the "no information" answer.
        """
        cached = self._columns.get(name)
        if cached is not None:
            return cached
        rows, width = len(self._indexes), self._width
        mins = np.zeros((rows, width), dtype=np.float64)
        maxs = np.zeros((rows, width), dtype=np.float64)
        has_stats = np.zeros((rows, width), dtype=bool)
        has_distinct = np.zeros((rows, width), dtype=bool)
        valid = np.zeros((rows, width), dtype=bool)
        unsupported: list[int] = []
        with_sets: list[tuple[int, _ColumnZones]] = []
        union: dict = {}
        for slot, index in enumerate(self._indexes.values()):
            num = index.num_partitions
            valid[slot, :num] = True
            try:
                zones = index._column(name)
            except _Unsupported:
                unsupported.append(slot)
                continue
            if zones is None:
                continue
            mins[slot, :num] = zones.mins
            maxs[slot, :num] = zones.maxs
            has_stats[slot, :num] = zones.has_stats
            has_distinct[slot, :num] = zones.has_distinct
            if zones.bitmap is not None:
                with_sets.append((slot, zones))
                for value in zones.value_index:
                    union.setdefault(value, len(union))
        bitmap: np.ndarray | None = None
        unpacked: np.ndarray | None = None
        if with_sets:
            bitmap, unpacked = self._stack_bitmaps(with_sets, union)
        flat = _ColumnZones(
            mins.reshape(-1),
            maxs.reshape(-1),
            has_stats.reshape(-1),
            has_distinct.reshape(-1),
            bitmap,
            union,
        )
        # Fast-path flags over live cells only: padding must never route a
        # kernel onto a branch the real data disagrees with.
        live_stats = has_stats[valid]
        live_distinct = has_distinct[valid]
        flat.all_stats = bool(live_stats.all())
        flat.any_distinct = bool(live_distinct.any())
        flat.all_distinct = bool(live_distinct.size) and bool(live_distinct.all())
        flat.unpacked = unpacked
        self._columns[name] = (flat, unsupported)
        return flat, unsupported

    def _stack_bitmaps(
        self, with_sets: list[tuple[int, _ColumnZones]], union: dict
    ) -> tuple[np.ndarray, np.ndarray]:
        """Packed ``(layouts·width, words)`` bitmap over ``union`` + its bools.

        Every layout's bitmap is unpacked onto the union's bit positions,
        then the whole column is packed once.  The bool expansion is kept
        too: equality membership then gathers bools instead of replicating
        ``uint64`` word columns across the wide stacked partition axis.
        """
        # Value-major, so the flat ``(layouts·width, values)`` view is
        # column-major: a membership gather copies one contiguous column
        # per constant.
        bits = np.zeros((len(union), len(self._indexes), self._width), dtype=bool)
        for slot, zones in with_sets:
            assert zones.bitmap is not None  # only layouts with sets are listed
            positions = np.fromiter(
                (union[value] for value in zones.value_index),
                dtype=np.int64,
                count=len(zones.value_index),
            )
            own = unpack_bits(zones.bitmap, len(positions))
            bits[positions, slot, : len(own)] = own.T
        flat_bits = bits.reshape(len(union), len(self._indexes) * self._width).T
        return pack_bits(flat_bits), flat_bits

    # --------------------------------------------------------------- evaluation
    def _positions(self, layout_ids: Sequence[str] | None) -> list[int]:
        if layout_ids is None:
            return list(range(len(self._indexes)))
        return [self._slots[layout_id] for layout_id in layout_ids]

    def prune_tensor(
        self, compiled: CompiledWorkload, layout_ids: Sequence[str] | None = None
    ) -> np.ndarray:
        """``(layouts × queries × partition_width)`` may-match tensor.

        ``tensor[i, :, :P_i]`` (``P_i`` the i-th layout's partition count)
        is bit-for-bit ``compiled.prune_matrix(index_i)``; cells beyond
        ``P_i`` are unspecified padding.
        """
        slots = self._positions(layout_ids)
        flat = self._evaluate(compiled)
        tensor = flat.reshape(compiled.num_queries, len(self._indexes), self._width)
        if slots == list(range(len(self._indexes))):
            return tensor.transpose(1, 0, 2)  # every layout, in order: a view
        return tensor[:, slots, :].transpose(1, 0, 2)

    def fractions_tensor(
        self, tensor: np.ndarray, layout_ids: Sequence[str] | None = None
    ) -> np.ndarray:
        """Fused ``c(s, q)`` contraction over a may-match tensor.

        ``tensor`` is a ``(layouts × queries × partition_width)`` bool
        tensor produced by :meth:`prune_tensor` for ``layout_ids`` against
        the stack's *current* contents.  The whole contraction is one
        einsum against the zero-padded row-count matrix — no per-layout
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
        if self._counts is None:
            counts = np.zeros((len(self._indexes), self._width), dtype=np.float64)
            for slot, index in enumerate(self._indexes.values()):
                counts[slot, : index.num_partitions] = index.row_counts
            totals = np.array(
                [index.total_rows for index in self._indexes.values()], dtype=np.float64
            )
            self._counts = (counts, totals)
        counts, totals = self._counts
        slots = self._positions(layout_ids)
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

    def _scratch(self, role: str, rows: int, cols: int) -> np.ndarray:
        """A reusable ``(rows, cols)`` bool workspace for one evaluation step."""
        need = rows * cols
        buffer = self._buffers.get(role)
        if buffer is None or buffer.size < need:
            buffer = np.empty(need, dtype=bool)
            self._buffers[role] = buffer
        return buffer[:need].reshape(rows, cols)

    def _evaluate(self, compiled: CompiledWorkload) -> np.ndarray:
        """``(queries, layouts·width)`` flat matrix over every layout at
        once: the compiled workload's own reduction, with the partition
        axis widened to the whole stack."""
        out = compiled._reduce(len(self._indexes) * self._width, self._group_block, self._scratch)
        if compiled._residue:
            # Residue predicates are exact via each layout's per-predicate
            # path — the same tier the per-layout compiled pass uses.
            for slot, index in enumerate(self._indexes.values()):
                base = slot * self._width
                segment = out[:, base : base + index.num_partitions]
                for row, node in compiled._residue:
                    segment[row] &= index._mask(node, False)
        return out

    def _group_block(self, group: _AtomGroup, out: np.ndarray) -> None:
        """One group's ``(unique_atoms, layouts·width)`` mask block → ``out``.

        The atom kernel covers every layout in one broadcasted call;
        layouts that cannot ride it — unsupported (residue-layout)
        columns, or every layout when an ``In`` group lacks a uniform
        distinct mapping — are overwritten with the per-layout
        :meth:`CompiledWorkload._group_matrix` block, which is exactly
        what the per-layout compiled pass would produce.
        """
        zones, unsupported = self._column(group.column)
        fallback: Sequence[int]
        if group.kind == "in" and not zones.all_distinct:
            fallback = range(len(self._indexes))
        else:
            _atom_block(zones, group.kind, group.first, group.second, False, out)
            fallback = unsupported
        if not fallback:
            return
        indexes = list(self._indexes.values())
        for slot in fallback:
            base = slot * self._width
            index = indexes[slot]
            CompiledWorkload._group_matrix(group, index, out[:, base : base + index.num_partitions])
