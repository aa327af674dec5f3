"""Smoke and determinism checks of the benchmark (collected by tier-1).

Runs every workload at ``--scale smoke``, untraced and traced, and pins
the contract: the correctness checks pass, every printed name is a legal
metric name, and the workload and metric names ``bench/run.py`` produces
are exactly those ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bench import compare, workloads

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "bench" / "run.py"), "--scale", "smoke", "--seconds", "0"]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [*RUN, *args], cwd=ROOT, capture_output=True, text=True, timeout=170, check=False
    )


def test_every_workload_passes_its_checks_and_names_match_the_contract(tmp_path):
    out = tmp_path / "smoke.json"
    completed = _run("--seed", "3", "--out", str(out))
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    account = json.loads(out.read_text())

    assert sorted(account["workloads"]) == sorted(w["name"] for w in CONTRACT["workloads"])
    assert sorted(account["workloads"]) == sorted(workloads.WORKLOADS)
    end_to_end = [m["name"] for m in CONTRACT["end_to_end"]]
    per_layer = [m["name"] for m in CONTRACT["per_layer"]]
    for name, result in account["workloads"].items():
        assert result["correct"], name
        assert result["failed"] <= 0.05 * result["attempted"], name
        assert sorted(result["end_to_end"]) == sorted(end_to_end), name
        assert sorted(result["per_layer"]) == sorted(per_layer), name
        assert all(value > 0 for value in result["end_to_end"].values()), name

    printed = re.findall(r"^  (\S+)\s+\S+ \S+$", completed.stdout, flags=re.MULTILINE)
    assert set(printed) == set(end_to_end) | set(per_layer)
    for name in [*printed, *account["workloads"]]:
        assert NAME.fullmatch(name), name

    # Layers a workload bypasses stay at zero; the ones it exists for do not.
    layers = {name: result["per_layer"] for name, result in account["workloads"].items()}
    assert layers["decide_logical"]["storage.partition_store.read_calls"] == 0
    assert layers["decide_logical"]["core.oreo.process_s"] > 0
    assert layers["stream_scan"]["queries.parser.parse_calls"] == 0
    assert layers["stream_scan"]["storage.async_reorg.steps"] == 0
    assert layers["serve_mixed"]["storage.reorg.reorg_calls"] == 0
    assert layers["serve_mixed"]["storage.ingest.ingest_calls"] > 0
    assert layers["serve_mixed"]["reopen_s"] > 0
    for name, values in layers.items():
        assert (values["engine.sharded.query_s"] > 0) == (name == "serve_sharded_read")


def _deterministic_line(stdout: str) -> str:
    lines = [line for line in stdout.splitlines() if line.startswith("deterministic ")]
    assert len(lines) == 1
    return lines[0]


@pytest.mark.parametrize("workload", ["stream_scan", "decide_logical"])
def test_same_seed_repeats_byte_for_byte(workload):
    first, second, other = (
        _run("--workload", workload, "--seed", seed) for seed in ("5", "5", "6")
    )
    for completed in (first, second, other):
        assert completed.returncode == 0, completed.stderr[-3000:]
        result = json.loads(completed.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
    assert _deterministic_line(first.stdout) == _deterministic_line(second.stdout)
    assert _deterministic_line(first.stdout) != _deterministic_line(other.stdout)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_lists_depend_on_the_seed_and_the_round_only(workload):
    def op_hash(seed: int, round_index: int) -> str:
        return workloads.build(workload, seed, round_index, "smoke").op_hash

    assert op_hash(5, 0) == op_hash(5, 0)
    assert op_hash(5, 0) != op_hash(6, 0)
    assert op_hash(5, 0) != op_hash(5, 1)


@pytest.mark.parametrize("module", ["inprocess.py", "serving.py", "serve_traced.py", "trace.py"])
def test_only_the_generators_see_a_seed_or_a_workload_name(module):
    """The code that drives the program is handed inputs, never their origin."""
    tree = ast.parse((ROOT / "bench" / module).read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not {"seed", "workload", "WORKLOADS"} & names


def _account(seed: int, total_s: float, num_switches: int = 2) -> dict:
    return {
        "meta": {"seed": seed},
        "workloads": {
            "stream_scan": {
                "end_to_end": {"total_s": total_s},
                "deterministic": {"num_switches": num_switches},
            }
        },
    }


def test_compare_marks_rows_ok_worse_and_unresolved():
    bound = next(m["bound"] for m in CONTRACT["end_to_end"] if m["name"] == "total_s")
    base = [_account(1, 1.0)]

    rows, differing = compare.compare(base, [_account(1, 1.0 + bound / 2)], CONTRACT)
    assert [row["verdict"] for row in rows] == ["ok"] and not differing

    rows, _ = compare.compare(base, [_account(1, 1.0 + 2 * bound)], CONTRACT)
    assert [row["verdict"] for row in rows] == ["worse"]

    noisy = [_account(1, value) for value in (0.5, 1.0, 1.5, 2.0)]
    rows, _ = compare.compare(base, noisy, CONTRACT)
    assert [row["verdict"] for row in rows] == ["unresolved"]

    _, differing = compare.compare(base, [_account(1, 1.0, num_switches=3)], CONTRACT)
    assert differing == ["stream_scan"]
    _, differing = compare.compare(base, [_account(2, 1.0, num_switches=3)], CONTRACT)
    assert differing is None  # another seed: the blocks are not comparable
