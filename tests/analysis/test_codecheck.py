"""Tests for ``repro.analysis.codecheck`` — checkpoint coverage.

The fixture module ``fixtures/checkpointed.py`` carries one seeded
violation per rule; it is analyzed by AST only and never imported.  The
whole-tree test asserts the shipped package is clean, and the injection
tests plant the rules' bugs in patched copies of the real classes: a
field added to any checkpointed class but left out of its snapshot, and a
snapshot key a real restore stops reading.
"""

import ast
from pathlib import Path

import pytest

from repro.analysis.codecheck import (
    CHECKPOINT_SPECS,
    SRC_ROOT,
    CheckpointSpec,
    FunctionRef,
    analyze,
)
from repro.efsm.diagnostics import Severity

FIXTURES = Path(__file__).parent / "fixtures"

STORE_SPEC = CheckpointSpec(module="checkpointed.py", cls="Store")
FROZEN_SPEC = CheckpointSpec(
    module="checkpointed.py", cls="Frozen", snapshot=(),
    exempt={"label": "not state"})


def run_fixture(*specs):
    return analyze(root=FIXTURES, specs=specs)


def by_code(diagnostics, code):
    return [d for d in diagnostics if d.data["code"] == code]


def subjects(diagnostics, code):
    return {d.data["subject"] for d in by_code(diagnostics, code)}


def test_uncovered_and_halfcovered_attrs_flagged():
    cc001 = by_code(run_fixture(STORE_SPEC), "CC001")
    flagged = {(d.state, d.data["subject"]) for d in cc001}
    assert ("Store", "missing") in flagged      # never captured
    assert ("Store", "half") in flagged         # captured, never restored
    assert all(d.severity is Severity.ERROR for d in cc001)
    # The covered attr and the immutable constant stay quiet.
    names = {f[1] for f in flagged}
    assert "covered" not in names and "name" not in names


def test_snapshot_key_without_restore_consumer_flagged():
    assert subjects(run_fixture(STORE_SPEC), "CC002") == {"stale"}


def test_checkpoint_free_class_needs_exemptions():
    findings = run_fixture(FROZEN_SPEC)
    assert subjects(findings, "CC001") == {"cache"}
    assert "checkpoint-free" in by_code(findings, "CC001")[0].message


def test_stale_exemption_is_config_error():
    spec = CheckpointSpec(
        module="checkpointed.py", cls="Store",
        exempt={"missing": "ok", "half": "ok", "ghost": "gone"})
    findings = run_fixture(spec)
    cx = by_code(findings, "CX001")
    assert any("ghost" in d.message for d in cx)
    # With real attrs exempted, CC001 no longer fires for them.
    assert not by_code(findings, "CC001")


def test_missing_spec_target_is_config_error():
    for missing in ("nonexistent",
                    FunctionRef("checkpointed.py", "Elsewhere.nonexistent")):
        spec = CheckpointSpec(module="checkpointed.py", cls="Store",
                              snapshot=(missing,))
        assert any("nonexistent" in d.message
                   for d in by_code(run_fixture(spec), "CX001"))


def test_shipped_tree_is_clean():
    findings = analyze()
    assert findings == [], "codecheck found findings on the shipped tree:\n" \
        + "\n".join(d.describe() for d in findings)


def test_checkpoint_specs_match_shipped_layout():
    # Every spec resolves: no CX001 means no module/class/function drifted
    # out from under the spec table.
    findings = analyze(specs=CHECKPOINT_SPECS)
    assert not by_code(findings, "CX001"), [d.message for d in findings]


def with_probe_field(spec):
    """The spec's module with ``self._codecheck_probe = {}`` appended to
    the top level of its class's ``__init__``."""
    source = (SRC_ROOT / spec.module).read_text(encoding="utf-8")
    cls = next(node for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ClassDef) and node.name == spec.cls)
    init = next(node for node in cls.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "__init__")
    indent = " " * init.body[0].col_offset
    lines = source.splitlines(keepends=True)
    lines.insert(init.body[-1].end_lineno,
                 f"{indent}self._codecheck_probe = {{}}\n")
    return "".join(lines)


@pytest.mark.parametrize("spec", CHECKPOINT_SPECS, ids=lambda s: s.cls)
def test_field_added_without_checkpoint_is_caught(spec):
    """A field added to any checkpointed class's ``__init__`` but left
    out of its snapshot fails the checkpoint-coverage rule."""
    findings = analyze(overrides={spec.module: with_probe_field(spec)})
    assert [(d.data["code"], d.state, d.data["subject"])
            for d in findings] == [("CC001", spec.cls, "_codecheck_probe")]


def test_snapshot_key_a_real_restore_stops_reading_is_caught():
    rel = "vids/patterns/cross_call.py"
    source = (SRC_ROOT / rel).read_text(encoding="utf-8")
    read = 'self.orphan_tracker.restore(snapshot["orphan"])'
    assert read in source
    patched = source.replace(read, "self.orphan_tracker.restore({})", 1)
    findings = analyze(overrides={rel: patched})
    assert [(d.data["code"], d.state, d.data["subject"])
            for d in findings] == [("CC002", "CrossCallTrackers", "orphan")]
