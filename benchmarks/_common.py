"""Shared helpers for the benchmark suite.

Each benchmark regenerates one table/figure of the paper at laptop scale,
prints the reproduced rows, and writes them to the untracked
``benchmarks/out/<name>.txt``, so a test run never dirties the tree.  The
committed reference copies live in ``benchmarks/results/``; refresh them
with ``cp benchmarks/out/* benchmarks/results/`` after a quiet-machine run.
Experiment bodies run exactly once (``pedantic(rounds=1)``) — they are
long-running experiments, not micro-benchmarks.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments import format_rows

#: where every run writes (gitignored); readers in the suite read it back
OUT_DIR = Path(__file__).parent / "out"
#: the committed reference copies; no test writes here
RESULTS_DIR = Path(__file__).parent / "results"

#: Machine-readable perf trajectory seeded by the microbench gates.
#: ``gates`` holds measured speedups (volatile across machines), while
#: ``workload`` holds deterministic fingerprints of the evaluated tensors
#: under the fixed seeds — the part reruns must reproduce bit for bit.
BENCH_JSON = OUT_DIR / "BENCH_microbench.json"
BENCH_JSON_SCHEMA_VERSION = 1


def _load_bench_json() -> dict:
    payload = {
        "schema_version": BENCH_JSON_SCHEMA_VERSION,
        "suite": "microbench",
        "gates": {},
        "workload": {},
    }
    if BENCH_JSON.exists():
        try:
            existing = json.loads(BENCH_JSON.read_text())
        except ValueError:
            return payload
        if existing.get("schema_version") == BENCH_JSON_SCHEMA_VERSION:
            payload.update(existing)
            payload.setdefault("gates", {})
            payload.setdefault("workload", {})
    return payload


def _write_bench_json(payload: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def record_bench_gate(
    name: str, *, threshold: float, speedup: float, params: dict
) -> None:
    """Merge one speedup gate's measurement into ``BENCH_microbench.json``."""
    payload = _load_bench_json()
    payload["gates"][name] = {
        "threshold": float(threshold),
        "speedup": round(float(speedup), 3),
        "params": params,
    }
    _write_bench_json(payload)


def record_bench_fingerprint(name: str, value: int, params: dict) -> None:
    """Merge one deterministic workload fingerprint into the trajectory."""
    payload = _load_bench_json()
    payload["workload"][name] = {"fingerprint": int(value), "params": params}
    _write_bench_json(payload)


def validate_bench_json(payload) -> list[str]:
    """Schema check for ``BENCH_microbench.json``; returns human messages."""
    errors: list[str] = []
    if not isinstance(payload, dict):
        return ["payload is not an object"]
    if payload.get("schema_version") != BENCH_JSON_SCHEMA_VERSION:
        errors.append(f"schema_version != {BENCH_JSON_SCHEMA_VERSION}")
    if payload.get("suite") != "microbench":
        errors.append("suite != 'microbench'")
    gates = payload.get("gates")
    if not isinstance(gates, dict):
        errors.append("gates is not an object")
        gates = {}
    for name, gate in gates.items():
        if not isinstance(gate, dict):
            errors.append(f"gate {name!r} is not an object")
            continue
        for field in ("threshold", "speedup"):
            value = gate.get(field)
            if not isinstance(value, (int, float)) or value <= 0:
                errors.append(f"gate {name!r}: {field} is not a positive number")
        if not isinstance(gate.get("params"), dict):
            errors.append(f"gate {name!r}: params is not an object")
    workload = payload.get("workload")
    if not isinstance(workload, dict):
        errors.append("workload is not an object")
        workload = {}
    for name, entry in workload.items():
        if not isinstance(entry, dict):
            errors.append(f"workload {name!r} is not an object")
            continue
        if not isinstance(entry.get("fingerprint"), int):
            errors.append(f"workload {name!r}: fingerprint is not an integer")
        if not isinstance(entry.get("params"), dict):
            errors.append(f"workload {name!r}: params is not an object")
    return errors

#: Scenario-suite trajectory: per-pack competitive accounting plus the
#: cost-model calibration summary (Q-Errors are wall-clock-derived and
#: therefore volatile across machines, like the microbench speedups; the
#: regression gates assert the ceilings, not exact values).
BENCH_SCENARIOS_JSON = OUT_DIR / "BENCH_scenarios.json"


def write_scenarios_json(payload: dict) -> None:
    """Persist the scenario-suite payload as ``BENCH_scenarios.json``."""
    OUT_DIR.mkdir(exist_ok=True)
    BENCH_SCENARIOS_JSON.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


#: Bench scales: large enough for the paper's shapes to be visible, small
#: enough that the whole suite runs in minutes.  Paper scale is 30k queries
#: over ~26-40M rows; drivers accept larger values for full-scale runs.
BENCH_ROWS = 40_000
BENCH_QUERIES = 2_400
BENCH_SEGMENTS = 8


def report(name: str, title: str, rows, drop=()) -> None:
    """Print and persist one reproduced table."""
    slim = [{k: v for k, v in row.items() if k not in drop} for row in rows]
    text = format_rows(title, slim)
    print(text)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text)


def once(benchmark, fn):
    """Run an experiment body exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
