"""CLI contract: exit codes, --json schema, --select, --list-rules."""

from __future__ import annotations

import json
from pathlib import Path

from tools.reprolint.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def test_exit_zero_and_clean_banner_on_clean_tree(tmp_path, capsys):
    (tmp_path / "clean.py").write_text('"""Nothing to see."""\n')
    assert main([str(tmp_path / "clean.py"), "--root", str(tmp_path)]) == 0
    assert "reprolint clean" in capsys.readouterr().out


def test_exit_one_and_rendered_findings_on_violations(capsys):
    code = main(
        [str(FIXTURES / "rpr001_bad.py"), "--root", str(FIXTURES), "--select", "RPR001"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "rpr001_bad.py:" in captured.out
    assert "RPR001" in captured.out
    assert "finding(s)" in captured.err


def test_exit_two_on_missing_path(tmp_path, capsys):
    assert main([str(tmp_path / "no_such_dir")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_json_output_schema(capsys):
    code = main(
        [
            str(FIXTURES / "rpr001_bad.py"),
            "--root",
            str(FIXTURES),
            "--select",
            "RPR001",
            "--json",
        ]
    )
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["count"] == len(report["findings"]) > 0
    finding = report["findings"][0]
    assert finding["rule"] == "RPR001"
    assert finding["path"] == "rpr001_bad.py"
    assert set(finding) == {"rule", "message", "path", "line", "col"}


def test_select_restricts_to_named_rules(capsys):
    # rpr006_bad.py violates RPR006 and (being marked but unregistered)
    # RPR005; selecting RPR005 must hide the hygiene findings.
    code = main(
        [str(FIXTURES / "rpr006_bad.py"), "--root", str(FIXTURES), "--select", "RPR005"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "RPR005" in out
    assert "RPR006" not in out


def test_list_rules_prints_the_full_catalogue(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ["RPR001", *(f"RPR00{i}" for i in range(3, 9))]:
        assert rule_id in out
    assert "RPR002" not in out  # retired with the delta protocol it guarded
    assert "RPR009" not in out  # retired with the per-hook relays it guarded
