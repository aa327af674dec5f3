"""Per-class method summaries and transitive call-graph queries.

Several rules reason about protocols at *class* granularity: "every
public method that mutates engine state must fire an event", "every
mutation path must consult the in-flight-consolidation guard".  A method
may satisfy the protocol indirectly — ``query()`` emits through
``_advance()`` — so the rules need a small intra-class call graph:
which ``self._x`` attributes a method reads/writes and which
``self.method()`` calls it makes, closed transitively.

The summaries are deliberately syntactic (no type inference): a call
``self.foo(...)`` is an edge to ``foo`` if the class defines it, and
attribute reads/writes are collected for names spelled ``self.<attr>``.
That is exactly the level the checked invariants live at — the engine
and store are single classes whose private helpers do the emitting.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = [
    "ClassSummary",
    "MethodSummary",
    "summarize_class",
    "transitive",
    "transitive_written",
]


@dataclass
class MethodSummary:
    """Syntactic facts about one method body."""

    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: ``self.<attr>`` names written (Assign/AugAssign/AnnAssign targets)
    writes: set[str] = field(default_factory=set)
    #: ``self.<attr>`` names read (Load context), including guards
    reads: set[str] = field(default_factory=set)
    #: ``self.<method>(...)`` call targets
    calls: set[str] = field(default_factory=set)
    #: event names emitted directly: ``self._emit("<name>", ...)``
    emits: set[str] = field(default_factory=set)
    #: two-level calls ``self.<attr>.<method>(...)`` as (attr, method)
    attr_calls: set[tuple[str, str]] = field(default_factory=set)
    #: whether the method is a property setter (``@x.setter``)
    is_setter: bool = False
    #: whether the method is a property getter (``@property``)
    is_getter: bool = False


@dataclass
class ClassSummary:
    """All method summaries of one class body, keyed by method name."""

    name: str
    node: ast.ClassDef
    methods: dict[str, MethodSummary] = field(default_factory=dict)

    def init_attrs(self) -> set[str]:
        """Underscore attributes assigned in ``__init__`` (direct writes)."""
        init = self.methods.get("__init__")
        if init is None:
            return set()
        return {attr for attr in init.writes if attr.startswith("_")}


def _self_attr(node: ast.AST) -> str | None:
    """The ``attr`` of a ``self.<attr>`` expression, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _MethodVisitor(ast.NodeVisitor):
    def __init__(self, summary: MethodSummary):
        self.summary = summary

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        attr = _self_attr(func)
        if attr is not None:
            self.summary.calls.add(attr)
            if attr == "_emit" and node.args:
                name = node.args[0]
                self.summary.emits.add(
                    name.value if isinstance(name, ast.Constant) else "?"
                )
        elif isinstance(func, ast.Attribute):
            owner = _self_attr(func.value)
            if owner is not None:
                self.summary.attr_calls.add((owner, func.attr))
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = _self_attr(node)
        if attr is not None:
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                self.summary.writes.add(attr)
            else:
                self.summary.reads.add(attr)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested defs are not the method's own body

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass


def summarize_class(node: ast.ClassDef) -> ClassSummary:
    """Build :class:`MethodSummary` for every method in ``node``'s body."""
    summary = ClassSummary(name=node.name, node=node)
    for item in node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        method = MethodSummary(name=item.name, node=item)
        method.is_setter = any(
            isinstance(dec, ast.Attribute) and dec.attr == "setter"
            for dec in item.decorator_list
        )
        method.is_getter = any(
            isinstance(dec, ast.Name) and dec.id in ("property", "cached_property")
            for dec in item.decorator_list
        )
        visitor = _MethodVisitor(method)
        for stmt in item.body:
            visitor.visit(stmt)
        # Later same-name defs (property setter after getter) win for
        # writes/reads union purposes: merge instead of replace.
        existing = summary.methods.get(item.name)
        if existing is not None:
            existing.writes |= method.writes
            existing.reads |= method.reads
            existing.calls |= method.calls
            existing.emits |= method.emits
            existing.attr_calls |= method.attr_calls
            existing.is_setter = existing.is_setter or method.is_setter
            existing.is_getter = existing.is_getter and method.is_getter
        else:
            summary.methods[item.name] = method
    return summary


def transitive(
    summary: ClassSummary, start: str, fact: str
) -> bool:
    """Whether ``start`` (transitively through self-calls) has ``fact``.

    ``fact`` is one of ``"emits"`` (calls ``self._emit(...)``),
    ``"reads:<attr>"`` / ``"writes:<attr>"`` / ``"touches:<attr>"`` for
    attribute access (``touches`` = reads or writes), or
    ``"attrcall:<attr>.<method>"`` for a ``self.<attr>.<method>()`` call.
    """
    seen: set[str] = set()
    stack = [start]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        method = summary.methods.get(name)
        if method is None:
            continue
        if fact == "emits" and method.emits:
            return True
        if fact.startswith("reads:") and fact[6:] in method.reads:
            return True
        if fact.startswith("writes:") and fact[7:] in method.writes:
            return True
        if fact.startswith("touches:"):
            attr = fact[8:]
            if attr in method.reads or attr in method.writes:
                return True
        if fact.startswith("attrcall:"):
            owner, _, call = fact[9:].partition(".")
            if (owner, call) in method.attr_calls:
                return True
        stack.extend(method.calls - seen)
    return False


def transitive_written(summary: ClassSummary, start: str) -> set[str]:
    """Every ``self._x`` attribute ``start`` writes, transitively."""
    written: set[str] = set()
    seen: set[str] = set()
    stack = [start]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        method = summary.methods.get(name)
        if method is None:
            continue
        written |= method.writes
        stack.extend(method.calls - seen)
    return written
