"""The benchmark's one command.

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
runs one workload and prints, as its last line, the result object the
benchmark contract asks for: the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``).  Without ``--workload`` it runs every
workload both ways, prints each metric by name with its unit, and writes
the whole account to ``bench/out/latest.json`` (``--record`` also appends
it to the tracked ``bench/results/history.jsonl``).

A run is a sequence of **rounds**.  Each round generates fresh inputs from
``(seed, round)``, sets the program up from nothing (timed: one ``setup_s``
sample), runs the untimed warm-up and then times the round's fixed op
list (one ``total_s`` sample).  Rounds repeat until ``--seconds`` of timed
work have been measured; reported values are medians over rounds (for the
latency percentiles: the median of each round's percentile).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    # Run as a script: import as the package ``bench`` so that ``trace.py``
    # cannot shadow the standard library module of that name.
    sys.path[0] = str(ROOT)
# The program under test is built from this checkout's source.
sys.path.insert(1, str(ROOT / "src"))

import numpy as np  # noqa: E402

from bench import inprocess, serving, trace, workloads  # noqa: E402
from repro.layouts import base as layouts_base  # noqa: E402
from bench.inprocess import RoundResult  # noqa: E402

OUT_DIR = ROOT / "bench" / "out"
HISTORY = ROOT / "bench" / "results" / "history.jsonl"

#: workload → (round runner, whether the program runs in a server subprocess)
RUNNERS: dict[str, tuple[Callable[..., RoundResult], bool]] = {
    "stream_scan": (inprocess.run_stream_scan, False),
    "decide_logical": (inprocess.run_decide_logical, False),
    "serve_sharded_read": (serving.run_serve_round, True),
    "serve_mixed": (serving.run_serve_round, True),
}


def load_contract() -> dict[str, Any]:
    """``BENCHMARK.json``: workload and metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _percentile_ms(seconds: list[float], q: float) -> float:
    return float(np.percentile(seconds, q)) * 1e3 if seconds else 0.0


def _rounds_percentile_ms(samples: list[list[float]], q: float) -> float:
    """Median over rounds of each round's percentile.

    A round that ran during a slow spell of the machine would own the tail
    of the pooled samples; it cannot move the median of the rounds.
    """
    return _median([_percentile_ms(s, q) for s in samples if s])


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _in_window(result: RoundResult, spans: list[trace.Span]) -> list[trace.Span]:
    """The spans that started during the round's timed phase."""
    low, high = result.window
    return [span for span in spans if low <= span.start <= high]


def _round_layers(
    result: RoundResult, spans: list[trace.Span], served: bool
) -> dict[str, float]:
    """Per-layer metrics of one traced round: spans plus the client's view."""
    timed = _in_window(result, spans)
    layers = trace.aggregate(timed, result.total_s)
    # The store is opened before the timed window (and again at the restart).
    opens = [s.seconds for s in spans if s.name == "engine.factory.open"]
    layers["engine.factory.open_s"] = _mean(opens)
    # Time a query request spent outside the engine job: HTTP parse, JSON,
    # the admission queue and the thread hop.
    roots = [
        s.seconds for s in timed
        if s.parent == 0 and s.name in ("engine.sharded.query", "engine.engine.query")
    ]
    waited = result.query_seconds
    layers["server.app.outside_engine_ms"] = (
        (sum(waited) - sum(roots)) / len(waited) * 1e3 if served and waited else 0.0
    )
    return layers


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, scale: str
) -> dict[str, Any]:
    """Run one workload for ``seconds`` of timed work; returns its account."""
    runner, served = RUNNERS[name]
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    layers: list[dict[str, float]] = []
    last_spans: list[trace.Span] = []

    def one_round(index: int, with_trace: bool) -> RoundResult:
        nonlocal last_spans
        workdir = tmp / f"round-{index}"
        workdir.mkdir(parents=True)
        make_inputs = functools.partial(workloads.build, name, seed, index, scale)
        # Layout ids come from a process-wide counter and D-UMTS breaks ties
        # by sorted id, so a round's decisions would otherwise depend on how
        # many layouts earlier rounds of this process had built.
        layouts_base._LAYOUT_COUNTER = itertools.count()
        recorder = trace.Recorder()
        uninstall = trace.install(recorder) if with_trace and not served else None
        try:
            if served:
                result = runner(make_inputs, workdir, with_trace)
                spans = [s for path in result.span_files for s in trace.load_spans(path)]
            else:
                result = runner(make_inputs, workdir)
                spans = recorder.spans
        finally:
            if uninstall is not None:
                uninstall()
            shutil.rmtree(workdir, ignore_errors=True)
        if with_trace:
            last_spans = spans
            layers.append(_round_layers(result, spans, served))
        return result

    rounds: list[RoundResult] = []
    reference: RoundResult | None = None
    try:
        if traced:
            # Round 0 also warms the process up; round 1 then runs untraced
            # and traced on the same inputs, so the wrappers' cost shows.
            rounds.append(one_round(0, True))
            reference = one_round(1, False)
        while True:
            rounds.append(one_round(len(rounds), traced))
            measured = sum(r.total_s for r in rounds) + (reference.total_s if reference else 0)
            if measured >= seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if traced:
        trace.write_spans(OUT_DIR / f"{name}.spans.jsonl", last_spans)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    errors = [e for r in rounds + ([reference] if reference else []) for e in r.errors]

    def extra(key: str) -> list[float]:
        return [r.extras[key] for r in rounds if key in r.extras]

    def sample(key: str) -> list[float]:
        return [s for r in rounds for s in r.samples.get(key, [])]

    end_to_end = {
        "setup_s": _median([r.setup_s for r in rounds]),
        "total_s": _median([r.total_s for r in rounds]),
        "query_p50_ms": _rounds_percentile_ms([r.query_seconds for r in rounds], 50),
        "query_p95_ms": _rounds_percentile_ms([r.query_seconds for r in rounds], 95),
        "rss_peak_mb": max(extra("rss_peak_mb")),
    }
    account: dict[str, Any] = {
        "correct": not errors,
        "errors": errors[:20],
        "failures": [f for r in rounds for f in r.failures][:20],
        "retried": [f for r in rounds for f in r.retried][:20],
        "attempted": attempted,
        "failed": failed,
        "rounds": len(rounds),
        "timed_queries": sum(len(r.query_seconds) for r in rounds),
        "ops_per_s": attempted / sum(r.total_s for r in rounds),
        "deterministic": rounds[0].deterministic,
        "end_to_end": end_to_end,
    }
    if traced:
        assert reference is not None
        per_layer = {key: _mean([layer[key] for layer in layers]) for key in layers[0]}
        per_layer.update(
            {
                # What the caller sees on some workloads only; not gated.
                "reorg_s": _median(extra("reorg_s")),
                "ingest_p50_ms": _percentile_ms(sample("ingest"), 50),
                "ingest_p90_ms": _percentile_ms(sample("ingest"), 90),
                "reopen_s": _median(extra("reopen_s")),
                "fail_share": failed / attempted,
                "store_bytes_per_user_byte": _median(extra("store_bytes_per_user_byte")),
                "server.app.health_rtt_ms": _percentile_ms(sample("health"), 50),
                "server.app.idle.query_p50_ms": _percentile_ms(sample("idle.query"), 50),
                "server.app.ingest.query_p50_ms": _percentile_ms(sample("ingest.query"), 50),
                "server.app.reorg.query_p50_ms": _percentile_ms(sample("reorg.query"), 50),
                "server.app.reorg.query_max_ms": _percentile_ms(sample("reorg.query"), 100),
                "trace.overhead_ratio": rounds[1].total_s / reference.total_s,
            }
        )
        for key in ("server.app.http_2xx", "server.app.http_4xx", "server.app.http_500",
                    "server.app.http_503", "server.app.response_bytes",
                    "storage.reorg.alpha_measured"):
            per_layer[key] = _mean(extra(key))
        account["per_layer"] = per_layer
        account["layer_self_s"] = dict(
            sorted(
                trace.self_times(_in_window(rounds[-1], last_spans)).items(),
                key=lambda item: -item[1],
            )
        )
    return account


def _with_units(values: dict[str, float], specs: list[dict[str, Any]]) -> dict[str, Any]:
    """The contract's metric objects; fails on drift from BENCHMARK.json."""
    units = {spec["name"]: spec["unit"] for spec in specs}
    if set(values) != set(units):
        raise SystemExit(
            "metric names drifted from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(values))}, "
            f"unlisted {sorted(set(values) - set(units))}"
        )
    return {
        name: {"value": float(values[name]), "unit": units[name]} for name in units
    }


def _print_metrics(title: str, metrics: dict[str, Any]) -> None:
    print(title)
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")


def _environment(seed: int, scale: str, seconds: float) -> dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="run one workload (contract mode)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),
                        help="timed work to measure per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "latest.json",
                        help="where the all-workloads account is written")
    parser.add_argument("--record", action="store_true",
                        help="append the all-workloads account to bench/results/history.jsonl")
    args = parser.parse_args(argv)
    if sorted(names) != sorted(workloads.WORKLOADS):
        raise SystemExit("workload names drifted from BENCHMARK.json")

    if args.workload:
        account = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.scale
        )
        if args.trace:
            metrics = _with_units(account["per_layer"], contract["per_layer"])
            print("layer self time (s, last traced round):")
            for layer, seconds in account["layer_self_s"].items():
                print(f"  {layer:<44} {seconds:>14.6g}")
        else:
            metrics = _with_units(account["end_to_end"], contract["end_to_end"])
        _print_metrics(f"{args.workload} (seed {args.seed}, {account['rounds']} rounds, "
                       f"{account['timed_queries']} timed queries):", metrics)
        for failure in account["failures"]:
            print("failed op:", failure)
        for retried in account["retried"]:
            print("retried op:", retried)
        for error in account["errors"]:
            print("check failed:", error)
        print("deterministic", json.dumps(account["deterministic"], sort_keys=True))
        print(json.dumps({
            "correct": account["correct"],
            "attempted": account["attempted"],
            "failed": account["failed"],
            "metrics": metrics,
        }))
        return 0 if account["correct"] else 1

    record: dict[str, Any] = {
        "meta": _environment(args.seed, args.scale, args.seconds), "workloads": {},
    }
    for name in names:
        untraced = run_workload(name, args.seed, args.seconds, False, args.scale)
        traced = run_workload(name, args.seed, args.seconds, True, args.scale)
        end_to_end = _with_units(untraced["end_to_end"], contract["end_to_end"])
        per_layer = _with_units(traced["per_layer"], contract["per_layer"])
        _print_metrics(
            f"{name}: end to end ({untraced['rounds']} rounds, "
            f"{untraced['timed_queries']} timed queries, "
            f"{untraced['ops_per_s']:.1f} ops/s, {untraced['failed']} failed)",
            end_to_end,
        )
        _print_metrics(f"{name}: per layer ({traced['rounds']} traced rounds)", per_layer)
        for failure in untraced["failures"] + traced["failures"]:
            print("failed op:", failure)
        for retried in untraced["retried"] + traced["retried"]:
            print("retried op:", retried)
        for error in untraced["errors"] + traced["errors"]:
            print("check failed:", error)
        if untraced["deterministic"] != traced["deterministic"]:
            untraced["correct"] = False
            print("check failed: deterministic blocks of the two runs differ")
        record["workloads"][name] = {
            "correct": untraced["correct"] and traced["correct"],
            "attempted": untraced["attempted"],
            "failed": untraced["failed"],
            "rounds": untraced["rounds"],
            "timed_queries": untraced["timed_queries"],
            "ops_per_s": untraced["ops_per_s"],
            "deterministic": untraced["deterministic"],
            "end_to_end": {k: v["value"] for k, v in end_to_end.items()},
            "per_layer": {k: v["value"] for k, v in per_layer.items()},
            "layer_self_s": traced["layer_self_s"],
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    if args.record:
        HISTORY.parent.mkdir(parents=True, exist_ok=True)
        with open(HISTORY, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        print(f"appended to {HISTORY}")
    return 0 if all(w["correct"] for w in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
