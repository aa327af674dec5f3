"""Span tracing from outside: wrappers around the layers' public callables.

Nothing under ``src/`` is instrumented.  :func:`install` replaces the
public callables listed in :data:`TARGETS` with wrappers that record one
span per call — name, wall-clock start and end, the span that caused it
and a request id shared by every span of one engine job or stream
position — into an in-memory list.  :func:`aggregate` turns the spans of
one timed window into the per-layer metrics of ``BENCHMARK.json``.

A span is named after the metric prefix it feeds
(``storage.partition_store.read`` feeds ``…read_s`` / ``…read_calls`` /
``…read_bytes``).  A layer's *self time* is its span minus the union of
its child spans; children started on pool threads (the shard fan-out)
inherit their parent through a patched ``ThreadPoolExecutor.submit``.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, NamedTuple

__all__ = [
    "Recorder", "Span", "aggregate", "install", "load_spans", "self_times", "write_spans",
]


class Span(NamedTuple):
    """One recorded call.  Times are wall-clock seconds (``time.time`` base)."""

    id: int
    parent: int  # 0 = a root span
    request: int  # the root span's id; shared by the whole request
    name: str
    start: float
    end: float
    attrs: dict[str, float] | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _ThreadState(threading.local):
    """Open spans of the current thread."""

    def __init__(self) -> None:
        self.stack: list[tuple[int, int]] = []  # (span id, request id)
        self.groups: set[str] = set()
        # (span id, request id) of the span that submitted this thread's job
        self.inherited: tuple[int, int] | None = None


class Recorder:
    """Holds the spans of one process; thread-safe by construction.

    ``list.append`` and ``next(count)`` are atomic under the interpreter
    lock, so recording needs no lock of its own.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.ids = itertools.count(1)
        self.thread = _ThreadState()
        # perf_counter is the precise clock; the offset makes spans of two
        # processes on one machine comparable.
        self.offset = time.time() - time.perf_counter()



def write_spans(path: Path, spans: Iterable[Span]) -> None:
    """Write spans as JSON lines, one array per span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def load_spans(path: Path) -> list[Span]:
    """Read spans written by :func:`write_spans`."""
    with open(path) as handle:
        return [Span(*json.loads(line)) for line in handle]


def _traced(
    recorder: Recorder,
    fn: Callable[..., Any],
    name: str,
    group: str | None = None,
    under: str | None = None,
    attrs: Callable[[tuple, Any], dict[str, float]] | None = None,
) -> Callable[..., Any]:
    """Wrap ``fn`` so each outermost call of its ``group`` records a span.

    ``group`` collapses re-entrant calls of one layer (``costs_for_query``
    calling ``cost_matrix``, ``And.evaluate`` calling its children) into
    the outermost span; ``under`` records the span only while a span of
    that group is open on the thread (predicate evaluation counts as the
    filter layer only beneath the executor).
    """
    thread = recorder.thread
    spans = recorder.spans
    ids = recorder.ids
    offset = recorder.offset
    clock = time.perf_counter

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        groups = thread.groups
        if (group is not None and group in groups) or (
            under is not None and under not in groups
        ):
            return fn(*args, **kwargs)
        stack = thread.stack
        span_id = next(ids)
        if stack:
            parent, request = stack[-1]
        elif thread.inherited is not None:
            parent, request = thread.inherited
        else:
            parent, request = 0, span_id
        stack.append((span_id, request))
        if group is not None:
            groups.add(group)
        extra = None
        start = clock()
        try:
            result = fn(*args, **kwargs)
            if attrs is not None:
                extra = attrs(args, result)
            return result
        finally:
            end = clock()
            stack.pop()
            if group is not None:
                groups.discard(group)
            spans.append(
                Span(span_id, parent, request, name, start + offset, end + offset, extra)
            )

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


# ------------------------------------------------------------------ attributes
def _read_attrs(args: tuple, _result: Any) -> dict[str, float]:
    return {"bytes": args[1].byte_size}


def _write_attrs(_args: tuple, result: Any) -> dict[str, float]:
    # write_partitions returns a StoredLayout, write_partition_file one partition
    size = result.total_bytes if hasattr(result, "total_bytes") else result.byte_size
    return {"bytes": size}


def _execute_attrs(_args: tuple, result: Any) -> dict[str, float]:
    results = result if isinstance(result, list) else [result]
    return {
        "rows_scanned": sum(r.rows_scanned for r in results),
        "rows_matched": sum(r.rows_matched for r in results),
        "partitions_scanned": sum(r.partitions_scanned for r in results),
        "partitions_total": sum(r.partitions_total for r in results),
    }


def _manager_attrs(_args: tuple, result: Any) -> dict[str, float]:
    return {"candidates": result.candidates_considered, "admitted": len(result.added)}


def _dumts_attrs(_args: tuple, result: Any) -> dict[str, float]:
    return {
        "switches": int(result.decision.switched),
        "phase_resets": int(result.decision.phase_reset),
    }


def _ingest_attrs(args: tuple, _result: Any) -> dict[str, float]:
    return {"sidecar": int(args[0].consolidating)}


def _wal_attrs(_args: tuple, result: Any) -> dict[str, float]:
    return {"bytes": Path(result).stat().st_size}


#: (module, owner class or None, attribute, span name, options).  The span
#: name is the metric prefix; see the per-layer list in BENCHMARK.json.
TARGETS: tuple[tuple[str, str | None, str, str, dict[str, Any]], ...] = (
    ("repro.queries.parser", None, "parse_predicate", "queries.parser.parse", {}),
    ("repro.layouts.metadata", None, "build_layout_metadata", "layouts.metadata.build", {"group": "metadata"}),
    ("repro.layouts.metadata", None, "build_partition_metadata", "layouts.metadata.build", {"group": "metadata"}),
    ("repro.layouts.base", "DataLayout", "metadata_for", "layouts.metadata.build", {"group": "metadata"}),
    ("repro.layouts.qdtree", "QdTreeBuilder", "build", "layouts.qdtree.build", {}),
    ("repro.layouts.zonemaps", "ZoneMapIndex", "__init__", "layouts.zonemaps.compile", {}),
    ("repro.layouts.zonemaps", "ZoneMapIndex", "relevant_partition_ids", "layouts.zonemaps.prune", {}),
    ("repro.layouts.workload_compiler", "CompiledWorkload", "__init__", "layouts.workload_compiler.compile", {}),
    ("repro.layouts.workload_compiler", "CompiledWorkload", "prune_matrix", "layouts.workload_compiler.prune", {"group": "compiled_prune"}),
    ("repro.layouts.workload_compiler", "CompiledWorkload", "accessed_fractions", "layouts.workload_compiler.prune", {"group": "compiled_prune"}),
    ("repro.layouts.stacked", "StackedStateSpace", "fractions_tensor", "layouts.stacked.kernel", {"group": "stacked_kernel"}),
    ("repro.layouts.stacked", "StackedStateSpace", "prune_tensor", "layouts.stacked.kernel", {"group": "stacked_kernel"}),
    ("repro.layouts.stacked", "StackedStateSpace", "add_layout", "layouts.stacked.maintain", {"group": "stacked_maintain"}),
    ("repro.layouts.stacked", "StackedStateSpace", "remove_layout", "layouts.stacked.maintain", {"group": "stacked_maintain"}),
    ("repro.layouts.stacked", "StackedStateSpace", "update_layout", "layouts.stacked.maintain", {"group": "stacked_maintain"}),
    ("repro.core.cost_model", "CostEvaluator", "costs_for_query", "core.cost_model.price", {"group": "pricing"}),
    ("repro.core.cost_model", "CostEvaluator", "query_cost", "core.cost_model.price", {"group": "pricing"}),
    ("repro.core.cost_model", "CostEvaluator", "cost_vector", "core.cost_model.batch_price", {"group": "pricing"}),
    ("repro.core.cost_model", "CostEvaluator", "cost_matrix", "core.cost_model.batch_price", {"group": "pricing"}),
    ("repro.core.layout_manager", "LayoutManager", "observe", "core.layout_manager.observe", {"attrs": _manager_attrs}),
    ("repro.core.layout_manager", "LayoutManager", "admit_state", "core.layout_manager.admit", {}),
    ("repro.core.reorganizer", "Reorganizer", "observe", "core.dumts.observe", {"attrs": _dumts_attrs}),
    ("repro.core.oreo", "OREO", "process", "core.oreo.process", {}),
    ("repro.storage.partition_store", "PartitionStore", "read_partition", "storage.partition_store.read", {"attrs": _read_attrs}),
    ("repro.storage.partition_store", "PartitionStore", "write_partitions", "storage.partition_store.write", {"attrs": _write_attrs}),
    ("repro.storage.partition_store", "PartitionStore", "write_partition_file", "storage.partition_store.write", {"attrs": _write_attrs}),
    ("repro.storage.partition_store", "PartitionStore", "commit_staging", "storage.partition_store.commit", {}),
    ("repro.storage.executor", "QueryExecutor", "execute", "storage.executor.execute", {"group": "executor", "attrs": _execute_attrs}),
    ("repro.storage.executor", "QueryExecutor", "execute_batch", "storage.executor.execute", {"group": "executor", "attrs": _execute_attrs}),
    ("repro.storage.reorg", None, "reorganize", "storage.reorg.reorg", {}),
    ("repro.storage.async_reorg", "AsyncReorgPipeline", "step", "storage.async_reorg.step", {}),
    ("repro.storage.ingest", "IncrementalStore", "ingest", "storage.ingest.ingest", {"attrs": _ingest_attrs}),
    ("repro.engine.engine", "LayoutEngine", "query", "engine.engine.query", {}),
    ("repro.engine.engine", "LayoutEngine", "query_batch", "engine.engine.query", {}),
    ("repro.engine.engine", "LayoutEngine", "step", "engine.engine.step", {}),
    ("repro.engine.sharded", "ShardedEngine", "query", "engine.sharded.query", {}),
    ("repro.engine.sharded", "ShardedEngine", "query_batch", "engine.sharded.query", {}),
    ("repro.engine.sharded", None, "merge_query_results", "engine.sharded.merge", {}),
    ("repro.engine.factory", "StoreDir", "append_batch", "engine.factory.wal_append", {"attrs": _wal_attrs}),
    ("repro.engine.factory", None, "table_from_columns", "engine.factory.decode", {"group": "decode"}),
    ("repro.engine.factory", None, "table_from_rows", "engine.factory.decode", {"group": "decode"}),
    ("repro.engine.factory", "StoreDir", "open_engine", "engine.factory.open", {}),
)

#: modules that import a traced function by name; imported before patching
#: so their references are replaced too
_IMPORTERS = ("repro", "repro.cli.main", "repro.server.app", "repro.experiments")


def install(recorder: Recorder) -> Callable[[], None]:
    """Patch every target in :data:`TARGETS`; returns the undo function."""
    for module_name in _IMPORTERS:
        importlib.import_module(module_name)
    undo: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, replacement: Any) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    for module_name, class_name, attr, span_name, options in TARGETS:
        module = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(module, class_name)
            patch(owner, attr, _traced(recorder, owner.__dict__[attr], span_name, **options))
            continue
        # A module function may have been imported by name elsewhere:
        # replace every reference inside the package.
        original = getattr(module, attr)
        wrapper = _traced(recorder, original, span_name, **options)
        for other in list(sys.modules.values()):
            if (
                other is not None
                and getattr(other, "__name__", "").split(".")[0] == "repro"
                and other.__dict__.get(attr) is original
            ):
                patch(other, attr, wrapper)

    predicates = importlib.import_module("repro.queries.predicates")
    pending = list(predicates.Predicate.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "evaluate" in cls.__dict__:
            patch(
                cls,
                "evaluate",
                _traced(
                    recorder,
                    cls.__dict__["evaluate"],
                    "queries.predicates.filter",
                    group="filter",
                    under="executor",
                ),
            )

    thread = recorder.thread
    original_submit = ThreadPoolExecutor.submit

    def submit(self: ThreadPoolExecutor, fn: Callable[..., Any], /, *args: Any, **kwargs: Any):
        context = thread.stack[-1] if thread.stack else thread.inherited
        if context is None:
            return original_submit(self, fn, *args, **kwargs)

        def run(*a: Any, **k: Any) -> Any:
            previous, thread.inherited = thread.inherited, context
            try:
                return fn(*a, **k)
            finally:
                thread.inherited = previous

        return original_submit(self, run, *args, **kwargs)

    patch(ThreadPoolExecutor, "submit", submit)

    def uninstall() -> None:
        while undo:
            owner, attr, original = undo.pop()
            setattr(owner, attr, original)

    return uninstall


# ----------------------------------------------------------------- aggregation
def _covered(intervals: list[tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    covered = 0.0
    cursor = low
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, high)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Seconds of self time per layer (span name without its last part)."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append((span.start, span.end))
    layers: dict[str, float] = defaultdict(float)
    for span in spans:
        own = span.seconds - _covered(children.get(span.id, []), span.start, span.end)
        layers[span.name.rsplit(".", 1)[0]] += own
    return dict(layers)


def aggregate(spans: Iterable[Span], timed_seconds: float) -> dict[str, float]:
    """Span-derived per-layer metrics of one timed window.

    ``timed_seconds`` is the window's wall time (``total_s`` of the traced
    round), the base of ``trace.attributed_share``.  Every metric is 0
    when its layer recorded nothing.
    """
    spans = list(spans)
    by_id = {span.id: span for span in spans}
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    longest: dict[str, float] = defaultdict(float)
    attrs: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    kids: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        seconds[span.name] += span.seconds
        calls[span.name] += 1
        longest[span.name] = max(longest[span.name], span.seconds)
        if span.attrs:
            for key, value in span.attrs.items():
                attrs[span.name][key] += value
        if span.parent in by_id:
            kids[span.parent].append(span)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    out: dict[str, float] = {}
    for name in (
        "queries.parser.parse",
        "layouts.metadata.build",
        "layouts.qdtree.build",
        "layouts.zonemaps.compile",
        "layouts.zonemaps.prune",
        "layouts.workload_compiler.compile",
        "layouts.stacked.kernel",
        "core.cost_model.price",
        "core.cost_model.batch_price",
        "storage.partition_store.read",
        "storage.partition_store.write",
        "storage.reorg.reorg",
        "storage.ingest.ingest",
        "engine.engine.step",
        "engine.factory.wal_append",
    ):
        out[f"{name}_s"] = seconds[name]
        out[f"{name}_calls"] = calls[name]
    for name in (
        "queries.predicates.filter",
        "layouts.workload_compiler.prune",
        "layouts.stacked.maintain",
        "core.layout_manager.observe",
        "core.dumts.observe",
        "core.oreo.process",
        "storage.partition_store.commit",
        "storage.executor.execute",
        "storage.async_reorg.step",
        "engine.engine.query",
        "engine.sharded.query",
        "engine.sharded.merge",
        "engine.factory.decode",
        "engine.factory.open",
    ):
        out[f"{name}_s"] = seconds[name]
    out["storage.async_reorg.steps"] = calls["storage.async_reorg.step"]
    out["storage.partition_store.read_bytes"] = attrs["storage.partition_store.read"]["bytes"]
    out["storage.partition_store.write_bytes"] = attrs["storage.partition_store.write"]["bytes"]
    out["engine.factory.wal_bytes"] = attrs["engine.factory.wal_append"]["bytes"]
    out["storage.ingest.sidecar_calls"] = attrs["storage.ingest.ingest"]["sidecar"]

    price = "core.cost_model.price"
    kernels_under_price = sum(
        1 for s in spans if s.name == "layouts.stacked.kernel"
        and s.parent in by_id and by_id[s.parent].name == price
    )
    out["core.cost_model.kernel_share"] = ratio(kernels_under_price, calls[price])

    manager = attrs["core.layout_manager.observe"]
    out["core.layout_manager.admit_calls"] = calls["core.layout_manager.admit"]
    out["core.layout_manager.admit_share"] = ratio(manager["admitted"], manager["candidates"])
    out["core.dumts.switches"] = attrs["core.dumts.observe"]["switches"]
    out["core.dumts.phase_resets"] = attrs["core.dumts.observe"]["phase_resets"]

    executor = attrs["storage.executor.execute"]
    out["storage.executor.rows_scanned"] = executor["rows_scanned"]
    out["storage.executor.rows_matched"] = executor["rows_matched"]
    out["storage.executor.scan_useful_share"] = ratio(
        executor["rows_matched"], executor["rows_scanned"]
    )
    out["storage.executor.skip_share"] = (
        1.0 - ratio(executor["partitions_scanned"], executor["partitions_total"])
        if executor["partitions_total"] else 0.0
    )
    read_and_filter = ("storage.partition_store.read", "queries.predicates.filter")
    out["storage.executor.plan_s"] = sum(
        span.seconds - sum(k.seconds for k in kids[span.id] if k.name in read_and_filter)
        for span in spans if span.name == "storage.executor.execute"
    )

    out["storage.reorg.stall_max_ms"] = longest["storage.reorg.reorg"] * 1e3
    out["storage.async_reorg.step_max_ms"] = longest["storage.async_reorg.step"] * 1e3

    out["engine.engine.self_s"] = sum(
        span.seconds
        - _covered([(k.start, k.end) for k in kids[span.id]], span.start, span.end)
        for span in spans if span.name == "engine.engine.query"
    )

    # Shard fan-out: how much of the shards' work overlapped, and how far
    # the slowest shard sat from the mean (the slowest sets the result).
    shard_seconds = 0.0
    skews = []
    for span in spans:
        if span.name != "engine.sharded.query":
            continue
        shards = [k.seconds for k in kids[span.id] if k.name == "engine.engine.query"]
        if shards:
            shard_seconds += sum(shards)
            skews.append(max(shards) / (sum(shards) / len(shards)))
    out["engine.sharded.overlap"] = ratio(shard_seconds, seconds["engine.sharded.query"])
    out["engine.sharded.skew"] = ratio(sum(skews), len(skews))

    out["trace.attributed_share"] = ratio(sum(self_times(spans).values()), timed_seconds)
    return out
