"""Suppression directives, finding rendering, and runner edge cases."""

from __future__ import annotations

import ast
from pathlib import Path

from tools.reprolint import Finding, ModuleContext, run

FIXTURES = Path(__file__).resolve().parent / "fixtures"


# ------------------------------------------------------------- suppressions
def test_all_three_directive_styles_silence_their_findings():
    findings = run(
        [FIXTURES / "suppressions.py"],
        root=FIXTURES,
        select={"RPR001", "RPR007"},
    )
    # Same-line disable, standalone-line disable and disable-file each
    # silenced one finding; only the undirected unlink survives.
    assert len(findings) == 1
    assert findings[0].rule_id == "RPR001"
    assert ".unlink" in findings[0].message


def test_directive_in_a_string_literal_does_not_suppress(tmp_path):
    module = tmp_path / "spoof.py"
    module.write_text(
        "import shutil\n"
        'COMMENT = "# reprolint: disable=RPR001"\n'
        "def clobber(layout_dir):\n"
        "    shutil.rmtree(layout_dir)\n"
    )
    findings = run([module], root=tmp_path, select={"RPR001"})
    assert len(findings) == 1


def test_disable_only_covers_the_named_rule(tmp_path):
    module = tmp_path / "wrong_rule.py"
    module.write_text(
        "import shutil\n"
        "def clobber(layout_dir):\n"
        "    shutil.rmtree(layout_dir)  # reprolint: disable=RPR999\n"
    )
    findings = run([module], root=tmp_path, select={"RPR001"})
    assert len(findings) == 1


def test_directive_parsing_collects_markers_and_disables():
    source = (
        "# reprolint: vectorized\n"
        "# reprolint: disable-file=RPR008\n"
        "x = 1  # reprolint: disable=RPR001,RPR002\n"
    )
    module = ModuleContext(Path("m.py"), source, ast.parse(source))
    assert module.markers == {"vectorized"}
    assert module.file_disables == {"RPR008"}
    assert module.line_disables[3] == {"RPR001", "RPR002"}
    # Standalone directives on lines 1-2 cover the following line too.
    assert module.is_suppressed(Finding("RPR008", "m", Path("m.py"), 99))


# ------------------------------------------------------------------ runner
def test_syntax_error_reported_as_rpr000_not_crash(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def unterminated(:\n")
    fine = tmp_path / "fine.py"
    fine.write_text("import shutil\nshutil.rmtree('x')\n")
    findings = run([tmp_path], root=tmp_path, select=None)
    rpr000 = [f for f in findings if f.rule_id == "RPR000"]
    assert len(rpr000) == 1 and rpr000[0].path == broken
    # The broken module did not mask findings in the healthy one.
    assert any(f.rule_id == "RPR001" and f.path == fine for f in findings)


def test_findings_are_stably_ordered_and_render_relative(tmp_path):
    module = tmp_path / "two.py"
    module.write_text(
        "import shutil\n"
        "def second(d):\n"
        "    shutil.rmtree(d)\n"
        "def first(p):\n"
        "    p.unlink()\n"
    )
    findings = run([module], root=tmp_path, select={"RPR001"})
    assert [f.line for f in findings] == [3, 5]
    rendered = findings[0].render(tmp_path)
    assert rendered.startswith("two.py:3:")
    assert findings[0].to_dict(tmp_path)["path"] == "two.py"
