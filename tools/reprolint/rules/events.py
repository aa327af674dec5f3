"""Event-protocol rule: engine state transitions must emit their event.

The engine's event stream is load-bearing: the ordering tests, the
telemetry examples and the ROADMAP's replicated-epoch follower all
assume that *every* state transition the engine performs is observable —
a follower replaying the stream must land in the leader's state.  A
public engine method that mutates lifetime state without (transitively)
calling ``self._emit(...)`` breaks that contract invisibly: no unit test
fails, the follower just drifts.

RPR003 checks it statically.  For every class that emits events (any
``self._emit(...)`` call), the tracked state set is the attributes the
class's ``_reset_lifetime_state`` method assigns (the engine's own
definition of "lifetime state"), falling back to underscore attributes
assigned in ``__init__``.  Every public method or property setter that
transitively writes a tracked attribute must transitively emit.
Property getters are exempt (lazy caches mutate but are semantically
reads).
"""

from __future__ import annotations

import ast

from ..classinfo import summarize_class, transitive, transitive_written
from ..core import Finding, ModuleContext, ProjectContext, Rule, register

__all__ = ["EventEmissionRule"]


@register
class EventEmissionRule(Rule):
    """RPR003: public state transitions must emit an engine event."""

    rule_id = "RPR003"
    name = "event-emission"
    description = (
        "In a class emitting engine events (self._emit(name, ...)), "
        "every public method or setter that mutates lifetime state "
        "must transitively emit an event."
    )

    #: the method whose assignments define the tracked lifetime state
    state_definition_method = "_reset_lifetime_state"

    def check_module(self, module: ModuleContext, project: ProjectContext) -> list[Finding]:
        """Flag silent state transitions in event-emitting classes."""
        findings = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            summary = summarize_class(node)
            if not any(method.emits for method in summary.methods.values()):
                continue
            definition = summary.methods.get(self.state_definition_method)
            if definition is not None:
                tracked = {a for a in definition.writes if a.startswith("_")}
            else:
                tracked = summary.init_attrs()
            tracked.discard("_observers")
            if not tracked:
                continue
            for name, method in summary.methods.items():
                if name.startswith("_"):
                    continue
                if method.is_getter and not method.is_setter:
                    continue
                mutated = transitive_written(summary, name) & tracked
                if not mutated:
                    continue
                if transitive(summary, name, "emits"):
                    continue
                findings.append(
                    self.finding(
                        module,
                        method.node,
                        f"{summary.name}.{name} mutates lifetime state "
                        f"({', '.join(sorted(mutated))}) without emitting any "
                        "event; the event stream no longer replays to "
                        "this state",
                    )
                )
        return findings
