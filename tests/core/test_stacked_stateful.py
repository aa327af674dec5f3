"""Stateful equivalence: the stacked cost engine under state churn.

A hypothesis state machine drives interleaved ``add_state`` /
``remove_state`` / reorganization / ``observe`` sequences through a
shared :class:`CostEvaluator` and a :class:`DynamicUMTS` instance, and
after every step asserts that

* the stacked admission prices (``cost_matrix`` over the live state
  space) are bit-for-bit what a *from-scratch* evaluator computes;
* every cached cost float equals the scalar-oracle fraction recomputed
  from the layout's current metadata — i.e. a reorganization's new
  snapshot invalidated everything priced against the old one, and the
  stack swapped in the new snapshot's index;
* the D-UMTS bookkeeping invariants hold (``counters ⊆ states``, state
  set in sync with the evaluator's view).
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from hypothesis import strategies as st

from repro.core import CostEvaluator, DynamicUMTS
from repro.layouts.base import DataLayout
from repro.layouts.metadata import build_layout_metadata
from repro.queries import Query, between, eq, ge, isin, lt, ne
from repro.queries.predicates import And, Not, Or
from repro.storage import ColumnSpec, Schema, Table

_SCHEMA = Schema(
    columns=(
        ColumnSpec("a", "numeric"),
        ColumnSpec("b", "numeric"),
        ColumnSpec("c", "categorical", tuple(f"v{i}" for i in range(8))),
    )
)

_QUERIES = [
    Query(predicate=p)
    for p in (
        between("a", -10, 10),
        lt("b", 20.0),
        ge("a", 0),
        eq("c", 3),
        ne("c", 1),
        isin("c", [0, 5, 7]),
        And((between("b", 0.0, 30.0), eq("c", 2))),
        Or((lt("a", -15), ge("a", 15))),
        Not(between("a", -5, 5)),
    )
]

_NUM_PARTITIONS = 8


class _StubLayout(DataLayout):
    """A layout whose row assignment the test mutates across reorgs."""

    def __init__(self, layout_id: str, assignment: np.ndarray):
        super().__init__(layout_id, _NUM_PARTITIONS)
        self.assignment = assignment

    def assign(self, table: Table) -> np.ndarray:
        return self.assignment

    def describe(self) -> str:
        return "stub"


def make_table(seed: int, n: int = 300) -> Table:
    rng = np.random.default_rng(seed)
    return Table(
        _SCHEMA,
        {
            "a": rng.integers(-20, 21, size=n).astype(np.int64),
            "b": rng.uniform(-5.0, 45.0, size=n),
            "c": rng.integers(0, 8, size=n).astype(np.int32),
        },
    )


class StackedEvaluatorMachine(RuleBasedStateMachine):
    """Random add/remove/reorg/observe streams; rebuilt-from-scratch check."""

    @initialize(seed=st.integers(0, 1_000))
    def setup(self, seed):
        self.rng = np.random.default_rng(seed)
        self.table = make_table(seed)
        self.evaluator = CostEvaluator(self.table)
        self.layouts: dict[str, _StubLayout] = {}
        self._minted = 0
        first = self._mint_layout()
        # Small alpha: transitions, counter saturation and phase resets all
        # happen within a short rule sequence.
        self.dumts = DynamicUMTS(
            [first], 1.5, np.random.default_rng(seed + 1), initial_state=first
        )

    # ----------------------------------------------------------------- helpers
    def _mint_layout(self) -> str:
        layout_id = f"L{self._minted}"
        self._minted += 1
        assignment = self.rng.integers(
            0, _NUM_PARTITIONS, size=self.table.num_rows
        )
        self.layouts[layout_id] = _StubLayout(layout_id, assignment)
        return layout_id

    def _live(self) -> list[_StubLayout]:
        return [self.layouts[layout_id] for layout_id in sorted(self.layouts)]

    # ------------------------------------------------------------------- rules
    @rule(position=st.integers(0, 10_000))
    def observe(self, position):
        """One D-UMTS step priced through the stacked cost engine."""
        query = _QUERIES[position % len(_QUERIES)]
        costs = self.evaluator.costs_for_query(self._live(), query)
        decision = self.dumts.observe(costs)
        assert 0.0 <= decision.service_cost <= 1.0
        assert self.dumts.current in self.layouts

    @rule()
    def add_state(self):
        layout_id = self._mint_layout()
        self.dumts.add_state(layout_id)

    @rule(pick=st.integers(0, 10_000))
    def remove_state(self, pick):
        if len(self.layouts) <= 1:
            return
        victims = sorted(self.layouts)
        layout_id = victims[pick % len(victims)]
        self.dumts.remove_state(layout_id)
        del self.layouts[layout_id]
        self.evaluator.forget(layout_id)

    @rule(pick=st.integers(0, 10_000), seed=st.integers(0, 10_000))
    def reorg(self, pick, seed):
        """Shuffle rows among a few partitions; register the new snapshot."""
        ids = sorted(self.layouts)
        layout = self.layouts[ids[pick % len(ids)]]
        touched = list(range(seed % _NUM_PARTITIONS + 1))
        new_assignment = layout.assignment.copy()
        member = np.isin(layout.assignment, touched)
        if member.any():
            new_assignment[member] = np.random.default_rng(seed).choice(
                touched, size=int(member.sum())
            )
        self.evaluator.register_metadata(
            layout.layout_id, build_layout_metadata(self.table, new_assignment)
        )
        layout.assignment = new_assignment

    # -------------------------------------------------------------- invariants
    @invariant()
    def stacked_prices_equal_fresh_rebuild(self):
        if not hasattr(self, "evaluator"):
            return
        layouts = self._live()
        stacked = self.evaluator.cost_matrix(layouts, _QUERIES)
        fresh = CostEvaluator(self.table).cost_matrix(layouts, _QUERIES)
        np.testing.assert_array_equal(stacked, fresh)
        vector = self.evaluator.costs_for_query(layouts, _QUERIES[0])
        for row, layout in enumerate(layouts):
            assert vector[layout.layout_id] == fresh[row, 0]

    @invariant()
    def cache_contents_equal_scalar_oracle(self):
        if not hasattr(self, "evaluator"):
            return
        for layout in self._live():
            metadata = self.evaluator.metadata(layout)
            cached = self.evaluator._query_costs.get(layout.layout_id, {})
            for query in _QUERIES:
                key = query.cache_key()
                if key in cached:
                    assert cached[key] == metadata.accessed_fraction(query.predicate)

    @invariant()
    def bookkeeping_in_sync(self):
        if not hasattr(self, "dumts"):
            return
        assert set(self.dumts.counters) <= set(self.dumts.states)
        assert set(self.dumts.state_names) == set(self.layouts)
        assert self.dumts.active <= set(self.dumts.states)


TestStackedEvaluatorMachine = StackedEvaluatorMachine.TestCase
TestStackedEvaluatorMachine.settings = settings(
    max_examples=20, stateful_step_count=10, deadline=None
)
