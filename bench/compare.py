"""Compare two accounts written by ``bench/run.py``: ``compare A B``.

One row per (end-to-end metric, workload): both values, how much worse B
is than A as a share of A, and the bound from ``BENCHMARK.json``.  A row
is ``worse`` when B is worse than A by more than the bound, and
``unresolved`` when either side's own run-to-run spread is wider than the
bound — then the runs cannot tell.  Exits non-zero on any ``worse`` row,
or when both sides ran the same seed and their ``deterministic`` blocks
differ.

Each side is a ``.json`` account (one run) or a ``.jsonl`` history (many
runs: the median is compared and the spread is the distance between the
quartiles as a share of the median, which needs three runs or more).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: Path) -> list[dict[str, Any]]:
    """The accounts in a ``.json`` file (one) or a ``.jsonl`` file (many)."""
    text = path.read_text()
    try:
        return [json.loads(text)]
    except json.JSONDecodeError:
        return [json.loads(line) for line in text.splitlines() if line.strip()]


def _values(runs: list[dict[str, Any]], workload: str, metric: str) -> list[float]:
    found = (
        run["workloads"].get(workload, {}).get("end_to_end", {}).get(metric) for run in runs
    )
    return [value for value in found if value is not None]


def _spread(values: list[float]) -> float | None:
    if len(values) < 3:
        return None
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def compare(
    a_runs: list[dict[str, Any]], b_runs: list[dict[str, Any]], contract: dict[str, Any]
) -> tuple[list[dict[str, Any]], list[str] | None]:
    """Rows of the comparison, and the workloads whose deterministic blocks differ.

    The second value is ``None`` when the two sides ran different seeds, whose
    blocks are not comparable.
    """
    rows = []
    for workload in (w["name"] for w in contract["workloads"]):
        for spec in contract["end_to_end"]:
            a_values = _values(a_runs, workload, spec["name"])
            b_values = _values(b_runs, workload, spec["name"])
            if not a_values or not b_values:
                continue
            a, b = statistics.median(a_values), statistics.median(b_values)
            worse_by = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            spreads = [s for s in (_spread(a_values), _spread(b_values)) if s is not None]
            if spreads and max(spreads) > spec["bound"]:
                verdict = "unresolved"
            elif worse_by > spec["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            rows.append(
                {
                    "workload": workload, "metric": spec["name"], "unit": spec["unit"],
                    "a": a, "b": b, "worse_by": worse_by, "bound": spec["bound"],
                    "spread": max(spreads) if spreads else None, "verdict": verdict,
                }
            )
    if a_runs[-1]["meta"]["seed"] != b_runs[-1]["meta"]["seed"]:
        return rows, None
    differing = []
    for workload, account in a_runs[-1]["workloads"].items():
        other = b_runs[-1]["workloads"].get(workload)
        if other is not None and json.dumps(
            account["deterministic"], sort_keys=True
        ) != json.dumps(other["deterministic"], sort_keys=True):
            differing.append(workload)
    return rows, differing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="baseline account (.json) or history (.jsonl)")
    parser.add_argument("b", type=Path, help="account or history to judge against it")
    args = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)
    rows, differing = compare(a_runs, b_runs, contract)
    print(f"{'workload':<20}{'metric':<14}{'A':>12}{'B':>12} {'unit':<4}"
          f"{'B worse by':>12}{'bound':>8}{'spread':>9}  verdict")
    for row in rows:
        spread = f"{row['spread']:>8.1%}" if row["spread"] is not None else f"{'n/a':>8}"
        print(f"{row['workload']:<20}{row['metric']:<14}{row['a']:>12.5g}{row['b']:>12.5g} "
              f"{row['unit']:<4}{row['worse_by']:>+12.1%}{row['bound']:>8.0%} {spread}  "
              f"{row['verdict']}")
    if differing is None:
        print("deterministic blocks: not compared (different seeds)")
    elif differing:
        print("deterministic blocks DIFFER on:", ", ".join(differing))
    else:
        print("deterministic blocks: byte-identical")
    worse = [row for row in rows if row["verdict"] == "worse"]
    return 1 if worse or differing else 0


if __name__ == "__main__":
    sys.exit(main())
