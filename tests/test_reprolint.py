"""Tier-1 mirror of CI's reprolint gate: the repository lints clean.

``python -m tools.reprolint src/repro tools`` is the CI invocation; this
test runs it the same way so a protocol violation (a partition write
bypassing staging, a stale evaluator snapshot, a silent engine transition, an
unguarded ingest path, a kernel without oracle coverage, …) fails the
ordinary test suite, not just CI.  Unlike the mypy gate there is nothing
to skip: the checker is pure stdlib.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _reprolint(*extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "tools.reprolint", "src/repro", "tools", *extra],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        timeout=300,
    )


def test_repository_lints_clean():
    completed = _reprolint()
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "reprolint clean" in completed.stdout


def test_json_report_confirms_zero_findings():
    completed = _reprolint("--json")
    assert completed.returncode == 0, completed.stdout + completed.stderr
    report = json.loads(completed.stdout)
    assert report == {"findings": [], "count": 0}


def test_kernel_tier_carries_vectorized_markers():
    # The oracle-coverage gate (RPR005) keys on these markers; if someone
    # strips one, the clean run above would silently stop checking that
    # kernel's hygiene.  Pin the markers explicitly.
    for module in (
        "src/repro/layouts/zonemaps.py",
        "src/repro/layouts/workload_compiler.py",
        "src/repro/layouts/stacked.py",
    ):
        source = (REPO_ROOT / module).read_text()
        assert "# reprolint: vectorized" in source, module
