"""Reorganization policies: the *what/when* of data movement, as a protocol.

The paper's system separates two concerns the way deductive storage
optimizers and competitive dynamization both advocate: the *policy*
decides what to reorganize into and when (OREO's D-UMTS counters, a
greedy heuristic, or nothing at all), the *mechanism* moves the bytes
(:func:`~repro.storage.reorg.reorganize` or the pipelined
:class:`~repro.core.reorg_scheduler.ReorgScheduler`).  The
:class:`ReorgPolicy` protocol is that seam: per query the engine calls
``observe(query, costs)`` and acts on the returned :class:`Decision` —
any object with that method drops into the same
:class:`~repro.engine.LayoutEngine` unchanged.

Four implementations ship:

* :class:`OreoPolicy` — the paper's controller (layout manager + D-UMTS
  reorganizer) behind the protocol, with its worst-case guarantee;
* :class:`NeverReorganize` — the static baseline (stay put forever);
* :class:`GreedyPolicy` — switch whenever a candidate prices cheaper
  than the current layout, ignoring movement cost;
* :class:`SchedulePolicy` — follow a precomputed layout schedule (what
  physical replay drives the engine with).

Optional protocol extensions the engine honours when present:
``wants_costs`` (class attribute, default ``False``) asks the engine to
price the current layout and the policy's ``candidates()`` against the
live physical metadata before each ``observe``; ``bind(engine)`` is
called once at :meth:`~repro.engine.LayoutEngine.open` so a policy can
inspect engine state (e.g. the currently served layout id).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from ..core.oreo import OREO
from ..layouts.base import DataLayout
from ..queries.query import Query

if TYPE_CHECKING:  # pragma: no cover - annotation-only import (avoids cycle)
    from .engine import LayoutEngine

__all__ = [
    "Decision",
    "GreedyPolicy",
    "NeverReorganize",
    "OreoPolicy",
    "ReorgPolicy",
    "SchedulePolicy",
]


@dataclass(frozen=True)
class Decision:
    """What a :class:`ReorgPolicy` wants done after observing one query.

    ``target`` names the layout to reorganize into (``None`` = stay; a
    target equal to the engine's current layout is a no-op, so policies
    may re-state their preference every query).  ``admitted`` / ``pruned``
    report state-space membership changes for the event stream.
    ``movement_cost`` is the policy's *own* logical-ledger charge for
    this step, carried for callers that drive policies directly — the
    engine does not consume it; its physical movement ledger (and the
    ``movement_charged`` events) charge the configured α separately.
    """

    target: DataLayout | None = None
    movement_cost: float = 0.0
    admitted: tuple[str, ...] = ()
    pruned: tuple[str, ...] = ()


@runtime_checkable
class ReorgPolicy(Protocol):
    """Anything with ``observe(query, costs) -> Decision`` is a policy."""

    def observe(self, query: Query, costs: Mapping[str, float]) -> Decision:
        """Observe one query (and its per-layout costs); decide what to do.

        ``costs`` maps layout id → ``c(s, q)`` for the engine-priced
        layouts (the current layout plus the policy's ``candidates()``)
        when the policy sets ``wants_costs``; otherwise it is empty and
        the policy prices internally.
        """
        ...


class NeverReorganize:
    """The static baseline: stay on the initial layout forever."""

    #: the engine skips cost pricing entirely for this policy
    wants_costs = False

    def observe(self, query: Query, costs: Mapping[str, float]) -> Decision:
        """Always stay put."""
        return Decision()


class GreedyPolicy:
    """Switch to the cheapest candidate whenever it beats the current layout.

    The greedy baseline from the paper's evaluation, behind the protocol:
    it ignores movement cost entirely and switches the moment any
    candidate prices below the current layout by more than ``margin``.
    Candidates are priced by the engine against the *physical* metadata
    (``wants_costs``), so the decisions track what is actually on disk.
    """

    wants_costs = True

    def __init__(self, candidates: Sequence[DataLayout], margin: float = 0.0):
        if margin < 0.0:
            raise ValueError("margin must be non-negative")
        self._candidates = {layout.layout_id: layout for layout in candidates}
        self.margin = float(margin)
        self._engine: "LayoutEngine | None" = None

    def bind(self, engine: "LayoutEngine") -> None:
        """Remember the engine so ``observe`` can read the current layout."""
        self._engine = engine

    def candidates(self) -> list[DataLayout]:
        """The alternative layouts the engine should price each query."""
        return list(self._candidates.values())

    def observe(self, query: Query, costs: Mapping[str, float]) -> Decision:
        """Pick the cheapest priced layout; switch if it beats the current."""
        if not costs:
            return Decision()
        # Deterministic ties: lowest cost first, then lexicographic id.
        best_id = min(sorted(costs), key=costs.__getitem__)
        current_id = (
            self._engine.current_layout.layout_id
            if self._engine is not None and self._engine.current_layout is not None
            else None
        )
        if best_id == current_id or best_id not in self._candidates:
            return Decision()
        if current_id in costs and costs[best_id] + self.margin >= costs[current_id]:
            return Decision()
        return Decision(target=self._candidates[best_id])


class OreoPolicy:
    """The paper's OREO controller behind the :class:`ReorgPolicy` protocol.

    Wraps an :class:`~repro.core.oreo.OREO` instance — dynamic state
    space from the layout manager, D-UMTS switching decisions with the
    Theorem IV.1 guarantee, its own logical cost ledger — and surfaces
    its per-query outcome as a :class:`Decision`: the engine physically
    reorganizes whenever OREO's *effective* layout changes.  OREO prices
    layouts internally (its evaluator, its table sample), so
    ``wants_costs`` stays ``False`` and the ``costs`` argument is unused.
    """

    wants_costs = False

    def __init__(self, oreo: OREO):
        self.oreo = oreo
        self._effective = oreo.reorganizer.effective

    @property
    def ledger(self):
        """The wrapped controller's logical cost ledger."""
        return self.oreo.ledger

    @property
    def current_layout(self) -> DataLayout:
        """The layout OREO currently services queries on."""
        return self.oreo.current_layout

    def observe(self, query: Query, costs: Mapping[str, float]) -> Decision:
        """Run one OREO step; request a reorg when the effective layout moves."""
        step = self.oreo.process(query)
        target = None
        if step.effective_layout != self._effective:
            self._effective = step.effective_layout
            target = self.oreo.manager.get(step.effective_layout)
        return Decision(
            target=target,
            movement_cost=step.movement_cost,
            admitted=step.admitted,
            pruned=step.removed,
        )


class SchedulePolicy:
    """Follow a precomputed per-query layout schedule.

    This is what makes :func:`~repro.experiments.physical.replay_physical`
    a thin driver over the engine: the logical run already decided the
    layout for every stream position, so the policy just replays that
    history — the engine turns each id change into a real reorganization.
    """

    wants_costs = False

    def __init__(self, history: Sequence[str], layouts: Mapping[str, DataLayout]):
        missing = sorted(set(history) - set(layouts))
        if missing:
            raise ValueError(f"schedule references unknown layouts: {missing}")
        self._history = list(history)
        self._layouts = dict(layouts)
        self._position = 0

    @property
    def position(self) -> int:
        """How many queries of the schedule have been observed."""
        return self._position

    def observe(self, query: Query, costs: Mapping[str, float]) -> Decision:
        """Return the scheduled layout for this stream position."""
        if self._position >= len(self._history):
            raise RuntimeError("schedule exhausted: more queries than history")
        target_id = self._history[self._position]
        self._position += 1
        return Decision(target=self._layouts[target_id])
