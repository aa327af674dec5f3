"""Cache-freshness rule: a replaced snapshot must reach the evaluator.

RPR007 — cache-pairing.  A class that holds a :class:`CostEvaluator`
(an ``evaluator`` attribute assigned in ``__init__``) and mutates its
own metadata snapshot must notify the evaluator on the same path
(``register_metadata`` / ``forget``), otherwise registered metadata goes
stale while cached prices keep being served from it.  This is the static
half of the snapshot-identity rule in ``docs/architecture.md``.
"""

from __future__ import annotations

import ast

from ..classinfo import summarize_class, transitive
from ..core import Finding, ModuleContext, ProjectContext, Rule, register

__all__ = ["CachePairingRule"]

#: evaluator calls that count as notifying it of a replaced snapshot
_CONSUMERS = frozenset({"register_metadata", "forget"})


@register
class CachePairingRule(Rule):
    """RPR007: snapshot mutation must notify the held CostEvaluator."""

    rule_id = "RPR007"
    name = "cache-pairing"
    description = (
        "In a class holding an evaluator attribute, methods that rebind "
        "the metadata snapshot must call register_metadata/forget on the "
        "evaluator in the same path."
    )

    #: attributes whose rebinding means "my priced metadata changed"
    snapshot_attrs = frozenset({"_snapshot", "_metadata"})
    #: the evaluator-holding attribute names the rule recognizes
    evaluator_attrs = frozenset({"evaluator", "_evaluator"})

    def check_module(self, module: ModuleContext, project: ProjectContext) -> list[Finding]:
        """Flag snapshot rebinding without an evaluator notification."""
        findings = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            summary = summarize_class(node)
            init = summary.methods.get("__init__")
            holders = self.evaluator_attrs & (init.writes if init else set())
            if not holders:
                continue
            for name, method in summary.methods.items():
                if name == "__init__":
                    continue  # construction, not mutation of a live snapshot
                rebinds = method.writes & self.snapshot_attrs
                if not rebinds:
                    continue
                notified = any(
                    transitive(summary, name, f"attrcall:{holder}.{consumer}")
                    for holder in holders
                    for consumer in _CONSUMERS
                )
                if notified:
                    continue
                findings.append(
                    self.finding(
                        module,
                        method.node,
                        f"{summary.name}.{name} rebinds "
                        f"{', '.join(sorted(rebinds))} without notifying the "
                        f"evaluator ({'/'.join(sorted(_CONSUMERS))}); cached "
                        "prices would keep serving the stale snapshot",
                    )
                )
        return findings
