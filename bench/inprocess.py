"""Runners of the two in-process workloads: ``stream_scan``, ``decide_logical``.

A runner executes **one round**: it makes the round's inputs (through the
``make_inputs`` closure, so it never sees a seed), sets the program up,
runs the untimed warm-up, then times the fixed op list, checking every
answer.  Everything before the timed phase is ``setup_s``.
"""

from __future__ import annotations

import resource
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.cost_model import CostEvaluator
from repro.core.oreo import OREO, OreoConfig
from repro.engine import EngineConfig, LayoutEngine, OreoPolicy
from repro.layouts import QdTreeBuilder, RangeLayoutBuilder
from repro.storage.executor import QueryExecutor
from repro.storage.partition_store import PartitionStore
from repro.storage.reorg import reorganize

from .workloads import StreamInputs

__all__ = ["RoundResult", "peak_rss_mb", "run_decide_logical", "run_stream_scan"]

#: fraction of the table the layout builders sample (the paper's 0.1–1% of
#: 40M rows; here enough rows for 16–128 partitions)
DATA_SAMPLE_FRACTION = 0.05


@dataclass
class RoundResult:
    """Everything one round measured."""

    setup_s: float
    total_s: float
    #: wall-clock window of the timed phase, for selecting spans
    window: tuple[float, float]
    #: seconds the caller waited, per completed query
    query_seconds: list[float]
    attempted: int
    failed: int
    #: failed correctness checks; any entry fails the whole command
    errors: list[str]
    #: what each failed operation answered (a failed op is not a wrong answer)
    failures: list[str] = field(default_factory=list)
    #: reads that got an answer only on a later attempt (serving workloads)
    retried: list[str] = field(default_factory=list)
    #: workload-specific measurements (``reorg_s``, ``rss_peak_mb`` …)
    extras: dict[str, float] = field(default_factory=dict)
    #: values that repeat exactly for a seed
    deterministic: dict[str, Any] = field(default_factory=dict)
    #: client-side samples of the serving workloads, by name
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: span files a traced server wrote during this round
    span_files: list[Path] = field(default_factory=list)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _initial_layout(inputs: StreamInputs):
    """The workload-oblivious default every online method starts on."""
    sample = inputs.table.sample(DATA_SAMPLE_FRACTION, inputs.rng)
    return RangeLayoutBuilder(inputs.sort_column).build(
        sample, [], inputs.partitions, inputs.rng
    )


def _oreo(inputs: StreamInputs, initial, evaluator: CostEvaluator | None = None) -> OREO:
    config = OreoConfig(
        alpha=inputs.alpha,
        epsilon=inputs.epsilon,
        window_size=inputs.window,
        generation_interval=inputs.window,
        num_partitions=inputs.partitions,
        data_sample_fraction=DATA_SAMPLE_FRACTION,
    )
    return OREO(inputs.table, QdTreeBuilder(), initial, config, inputs.rng, evaluator)


def _measure_alpha(inputs: StreamInputs, initial, root: Path) -> float:
    """Table I's procedure: one reorganization ÷ one full scan, on disk."""
    store = PartitionStore(root, compress=True)
    stored = store.materialize(inputs.table, initial)
    scan = QueryExecutor(store).full_scan(stored).elapsed_seconds
    sample = inputs.table.sample(DATA_SAMPLE_FRACTION, inputs.rng)
    target = RangeLayoutBuilder("l_shipdate").build(
        sample, [], inputs.partitions, inputs.rng
    )
    moved, result = reorganize(store, stored, target, inputs.table.schema)
    store.delete_layout(moved)
    return result.elapsed_seconds / scan


def run_stream_scan(make_inputs: Callable[[], StreamInputs], workdir: Path) -> RoundResult:
    """The paper's Fig. 3 loop: OREO decides, the engine scans and moves."""
    started = time.perf_counter()
    inputs = make_inputs()
    initial = _initial_layout(inputs)
    alpha_measured = _measure_alpha(inputs, initial, workdir / "alpha")
    policy = OreoPolicy(_oreo(inputs, initial))
    config = EngineConfig(store_root=workdir / "store", alpha=inputs.alpha, compress=True)
    engine = LayoutEngine(config, policy=policy).open(inputs.table, initial)
    errors: list[str] = []
    failures: list[str] = []
    seconds: list[float] = []
    matched_total = 0
    try:
        expected = iter(inputs.expected)
        for query in inputs.warmup:
            if engine.query(query).rows_matched != next(expected):
                errors.append("warm-up query returned a wrong row count")
        setup_s = time.perf_counter() - started
        window_start = time.time()
        timed_start = time.perf_counter()
        for index, query in enumerate(inputs.timed):
            want = next(expected)
            sent = time.perf_counter()
            try:
                result = engine.query(query)
            except Exception as error:  # the op failed; the run goes on
                failures.append(f"query {index} raised {error!r}")
                continue
            seconds.append(time.perf_counter() - sent)
            matched_total += result.rows_matched
            if result.rows_matched != want:
                errors.append(
                    f"query {index}: rows_matched {result.rows_matched} != oracle {want}"
                )
        total_s = time.perf_counter() - timed_start
        window = (window_start, time.time())
        stats = engine.stats()
        assert engine.store is not None
        stored_bytes = engine.store.disk_usage()
    finally:
        engine.close()
    summary = policy.ledger.summary()
    movement_ok = stats.movement_charged == inputs.alpha * stats.reorgs_completed
    if not movement_ok:
        errors.append(
            f"movement charged {stats.movement_charged} != "
            f"alpha {inputs.alpha} x {stats.reorgs_completed} reorgs"
        )
    user_bytes = inputs.table.num_rows * inputs.user_bytes_per_row
    return RoundResult(
        setup_s=setup_s,
        total_s=total_s,
        window=window,
        query_seconds=seconds,
        attempted=len(inputs.timed),
        failed=len(failures),
        errors=errors,
        failures=failures,
        extras={
            "reorg_s": stats.reorg_seconds,
            "store_bytes_per_user_byte": stored_bytes / user_bytes,
            "storage.reorg.alpha_measured": alpha_measured,
            "rss_peak_mb": peak_rss_mb(),
        },
        deterministic={
            "op_list_hash": inputs.op_hash,
            "num_switches": stats.num_switches,
            "total_query_cost": summary.total_query_cost,
            "total_reorg_cost": summary.total_reorg_cost,
            "sum_rows_matched": matched_total,
            "movement_charged_is_alpha_times_reorgs": movement_ok,
        },
    )


def run_decide_logical(make_inputs: Callable[[], StreamInputs], workdir: Path) -> RoundResult:
    """Metadata-only ``OREO.process`` stream, then one batched pricing call."""
    del workdir  # the decision plane touches no storage
    started = time.perf_counter()
    inputs = make_inputs()
    initial = _initial_layout(inputs)
    evaluator = CostEvaluator(inputs.table)
    oreo = _oreo(inputs, initial, evaluator)
    for query in inputs.warmup:
        oreo.process(query)
    setup_s = time.perf_counter() - started
    errors: list[str] = []
    seconds: list[float] = []
    window_start = time.time()
    timed_start = time.perf_counter()
    for query in inputs.timed:
        sent = time.perf_counter()
        oreo.process(query)
        seconds.append(time.perf_counter() - sent)
    # The batch (Q >> 1) use of the pricing layer, beside the per-query one.
    layouts = list(oreo.manager.layouts.values())
    sample = inputs.timed[::10]
    matrix = evaluator.cost_matrix(layouts, sample)
    total_s = time.perf_counter() - timed_start
    window = (window_start, time.time())

    # Oracle: the scalar may_match walk over the same partition metadata.
    for row, layout in enumerate(layouts):
        metadata = evaluator.metadata(layout)
        for column in range(0, len(sample), 25):
            want = metadata.accessed_fraction(sample[column].predicate)
            if matrix[row, column] != want:
                errors.append(
                    f"cost_matrix[{layout.layout_id}, {column}] = "
                    f"{matrix[row, column]!r} != scalar oracle {want!r}"
                )
    summary = oreo.ledger.summary()
    movement_ok = summary.total_reorg_cost == inputs.alpha * summary.num_switches
    if not movement_ok:
        errors.append("ledger reorg cost is not alpha x switches")
    return RoundResult(
        setup_s=setup_s,
        total_s=total_s,
        window=window,
        query_seconds=seconds,
        attempted=len(inputs.timed) + 1,
        failed=0,
        errors=errors,
        extras={"rss_peak_mb": peak_rss_mb()},
        deterministic={
            "op_list_hash": inputs.op_hash,
            "num_switches": summary.num_switches,
            "total_query_cost": summary.total_query_cost,
            "total_reorg_cost": summary.total_reorg_cost,
            "num_states": oreo.manager.num_states,
            "cost_matrix_sum": float(matrix.sum()),
            "movement_charged_is_alpha_times_reorgs": movement_ok,
        },
    )
