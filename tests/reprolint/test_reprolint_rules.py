"""Every reprolint rule fires on its bad fixture and stays quiet on the good.

The fixtures under ``fixtures/`` are linted, never imported: each
``rprNNN_bad.py`` contains the exact protocol violation rule RPRNNN
exists to catch, each ``rprNNN_good.py`` the compliant shape of the same
code.  A rule that silently stopped firing (or started flagging the
compliant idiom) fails here long before it would mislead CI.
"""

from __future__ import annotations

from pathlib import Path

from tools.reprolint import Finding, run
from tools.reprolint.rules.vectorized import OracleCoverageRule

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def check(name: str, rule_id: str) -> list[Finding]:
    """Run one rule over one fixture file, returning its findings."""
    return run([FIXTURES / name], root=FIXTURES, select={rule_id})


def lines(findings: list[Finding]) -> list[int]:
    return [f.line for f in findings]


# ------------------------------------------------------------------ RPR001
def test_rpr001_flags_every_raw_file_mutation():
    findings = check("rpr001_bad.py", "RPR001")
    primitives = sorted(f.message.split("'")[1] for f in findings)
    assert primitives == [".rename", ".unlink", "np.savez_compressed", "shutil.rmtree"]


def test_rpr001_quiet_on_store_routed_lifecycle():
    assert check("rpr001_good.py", "RPR001") == []


def test_rpr001_catches_deliberately_broken_scratch_module(tmp_path):
    # The ISSUE's acceptance case: a scratch module writing a partition
    # file directly, bypassing the staging protocol, must be caught.
    scratch = tmp_path / "scratch.py"
    scratch.write_text(
        "import numpy as np\n"
        "def sneak_write(path, arrays):\n"
        "    np.savez_compressed(path, **arrays)\n"
    )
    findings = run([scratch], root=tmp_path, select={"RPR001"})
    assert len(findings) == 1
    assert findings[0].rule_id == "RPR001"
    assert "np.savez_compressed" in findings[0].message


# ------------------------------------------------------------------ RPR003
def test_rpr003_flags_silent_state_transition():
    findings = check("rpr003_bad.py", "RPR003")
    assert len(findings) == 1
    assert "adopt_layout" in findings[0].message
    assert "_epoch" in findings[0].message and "_layout_id" in findings[0].message


def test_rpr003_quiet_on_transitive_emission_and_lazy_getters():
    assert check("rpr003_good.py", "RPR003") == []


def test_rpr003_keys_on_the_emit_channel(tmp_path):
    # A computed event name is still an emission; a class that never
    # calls self._emit is not an event-emitting class at all.
    module = tmp_path / "engines.py"
    module.write_text(
        "class Computed:\n"
        "    def _reset_lifetime_state(self):\n"
        "        self._epoch = 0\n"
        "    def bump(self, name):\n"
        "        self._epoch += 1\n"
        "        self._emit(name)\n"
        "    def silent(self):\n"
        "        self._epoch += 1\n"
        "class NoChannel:\n"
        "    def _reset_lifetime_state(self):\n"
        "        self._epoch = 0\n"
        "    def bump(self):\n"
        "        self._epoch += 1\n"
        "        self._events.on_bump()\n"
    )
    findings = run([module], root=tmp_path, select={"RPR003"})
    assert [f.message.split(" ")[0] for f in findings] == ["Computed.silent"]


# ------------------------------------------------------------------ RPR004
def test_rpr004_flags_unguarded_mutation_paths():
    findings = check("rpr004_bad.py", "RPR004")
    flagged = sorted(f.message.split(" ")[0] for f in findings)
    assert flagged == [
        "UnguardedStore.compact",
        "UnguardedStore.ingest",
        "UnguardedStore.reset",
    ]


def test_rpr004_quiet_when_guard_is_consulted_transitively():
    assert check("rpr004_good.py", "RPR004") == []


# ------------------------------------------------------------------ RPR005
def test_rpr005_flags_marked_module_without_registry_entry():
    findings = check("rpr005_bad.py", "RPR005")
    assert len(findings) == 1
    assert "no registered differential test" in findings[0].message


def test_rpr005_quiet_when_oracle_test_registered_and_tokens_present():
    rule = OracleCoverageRule(
        registry={
            "rpr005_good.py": (
                "rpr005_oracle_stub.py",
                ("FixtureKernel", "may_match"),
            )
        },
        required=frozenset({"rpr005_good.py"}),
    )
    findings = run([FIXTURES / "rpr005_good.py"], root=FIXTURES, rules=[rule])
    assert findings == []


def test_rpr005_flags_required_module_missing_the_marker():
    rule = OracleCoverageRule(registry={}, required=frozenset({"rpr006_unmarked.py"}))
    findings = run([FIXTURES / "rpr006_unmarked.py"], root=FIXTURES, rules=[rule])
    assert len(findings) == 1
    assert "must carry" in findings[0].message


def test_rpr005_flags_registered_test_that_does_not_exist():
    rule = OracleCoverageRule(
        registry={"rpr005_good.py": ("no_such_test.py", ("FixtureKernel",))},
        required=frozenset(),
    )
    findings = run([FIXTURES / "rpr005_good.py"], root=FIXTURES, rules=[rule])
    assert len(findings) == 1
    assert "does not exist" in findings[0].message


def test_rpr005_flags_registered_test_missing_the_tokens():
    rule = OracleCoverageRule(
        registry={
            # rpr008_good.py exists but references neither token.
            "rpr005_good.py": ("rpr008_good.py", ("FixtureKernel", "may_match"))
        },
        required=frozenset(),
    )
    findings = run([FIXTURES / "rpr005_good.py"], root=FIXTURES, rules=[rule])
    assert len(findings) == 1
    assert "no longer references" in findings[0].message


# ------------------------------------------------------------------ RPR006
def test_rpr006_flags_each_hygiene_violation():
    findings = check("rpr006_bad.py", "RPR006")
    messages = [f.message for f in findings]
    assert any("np.append" in m for m in messages)
    assert any("inside a loop" in m for m in messages)
    assert any("per-partition loop" in m for m in messages)
    assert any("np.asarray" in m for m in messages)
    assert len(findings) == 4


def test_rpr006_quiet_on_whole_array_kernels():
    assert check("rpr006_good.py", "RPR006") == []


def test_rpr006_ignores_unmarked_modules():
    assert check("rpr006_unmarked.py", "RPR006") == []


# ------------------------------------------------------------------ RPR007
def test_rpr007_flags_snapshot_rebind_without_notification():
    findings = check("rpr007_bad.py", "RPR007")
    assert len(findings) == 1
    assert "swap_snapshot" in findings[0].message
    assert "_snapshot" in findings[0].message


def test_rpr007_quiet_when_evaluator_is_notified():
    assert check("rpr007_good.py", "RPR007") == []


# ------------------------------------------------------------------ RPR008
def test_rpr008_flags_all_three_drift_modes():
    findings = check("rpr008_bad.py", "RPR008")
    messages = " | ".join(f.message for f in findings)
    assert "duplicate __all__ entry 'exported'" in messages
    assert "'renamed_away'" in messages
    assert "'forgotten_public_function'" in messages
    assert len(findings) == 3


def test_rpr008_quiet_on_consistent_module():
    assert check("rpr008_good.py", "RPR008") == []


def test_rpr008_docs_references_resolve_against_source_tree(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('__all__ = ["Engine"]\nfrom .engine import Engine\n')
    (package / "engine.py").write_text(
        '__all__ = ["Engine"]\n\n\nclass Engine:\n    def query(self):\n        return 0\n'
    )
    (tmp_path / "README.md").write_text(
        "See `repro.engine.Engine.query` and the re-export `repro.Engine`.\n"
        "But `repro.engine.Missing` and `repro.engine.Engine.gone` drifted.\n"
        "```\n`repro.inside.a.code.fence` is never checked\n```\n"
    )
    findings = run([tmp_path / "src"], root=tmp_path, select={"RPR008"})
    messages = sorted(f.message for f in findings)
    assert len(findings) == 2
    assert "no member 'gone'" in messages[0]
    assert "repro.engine defines no 'Missing'" in messages[1]
    assert all(f.path.name == "README.md" for f in findings)
