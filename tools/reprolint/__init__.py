"""reprolint: AST-based invariant checker for the repro codebase.

The repository's correctness story rests on protocol invariants that
unit tests can only probe dynamically: every partition-file mutation
flows through :class:`PartitionStore` staging (the epoch protocol in
``docs/architecture.md``), every holder of a cost evaluator tells it when
its metadata snapshot is replaced, every engine state transition
emits a matching engine event, and the vectorized
kernels stay loop-free and oracle-checked.  ``reprolint`` enforces those
protocols *statically* — a pure-stdlib AST pass over the source tree, no
imports of the checked code — so a violation is caught at review time,
not three PRs later when a thread-pooled mover trips it under load.

Usage::

    python -m tools.reprolint src/repro tools     # text output, exit 1 on findings
    python -m tools.reprolint --json src/repro    # machine-readable findings
    python -m tools.reprolint --list-rules        # the rule catalogue

Per-line suppressions use ``# reprolint: disable=RPR001`` (trailing, or
on a standalone comment line directly above); whole-file suppressions
use ``# reprolint: disable-file=RPR001``.  Hot-path kernel modules are
marked ``# reprolint: vectorized``, which opts them into the numpy
hygiene and oracle-coverage rules.  The catalogue, one fixture example
per rule, and the how-to-add-a-rule walkthrough live in
``docs/static_analysis.md``.
"""

from .core import Finding, ModuleContext, ProjectContext, Rule, all_rules
from .runner import run

__all__ = [
    "Finding",
    "ModuleContext",
    "ProjectContext",
    "Rule",
    "all_rules",
    "run",
]
