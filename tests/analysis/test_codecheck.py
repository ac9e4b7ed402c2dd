"""Tests for ``repro.analysis.codecheck`` — the codelint analyzer.

Fixture modules under ``fixtures/`` carry one seeded violation per rule;
they are analyzed by AST only and never imported.  The whole-tree tests
assert the shipped package is clean modulo the committed baseline, and
the injection test proves the checkpoint-coverage rule catches a field
added to ``Vids`` but omitted from checkpointing — the failure mode the
rule exists for.
"""

from pathlib import Path

from repro.analysis.codecheck import (
    CHECKPOINT_SPECS,
    RULES,
    SRC_ROOT,
    CheckpointSpec,
    FunctionRef,
    analyze,
    fingerprint,
    load_baseline,
    partition_findings,
    write_baseline,
)
from repro.efsm.diagnostics import Severity

FIXTURES = Path(__file__).parent / "fixtures"
BASELINE = SRC_ROOT.parents[1] / "tools" / "codelint_baseline.json"

STORE_SPEC = CheckpointSpec(module="checkpointed.py", cls="Store")
FROZEN_SPEC = CheckpointSpec(
    module="checkpointed.py", cls="Frozen", snapshot=(),
    exempt={"label": "not state"})


def run_fixture(**kwargs):
    defaults = dict(specs=(), check_guards=False, check_plain_state=False,
                    check_isolation=False)
    defaults.update(kwargs)
    return analyze(root=FIXTURES, **defaults)


def by_code(diagnostics, code):
    return [d for d in diagnostics if d.data["code"] == code]


def subjects(diagnostics, code):
    return {d.data["fingerprint"].rsplit(":", 1)[-1]
            for d in by_code(diagnostics, code)}


# ---------------------------------------------------------------------------
# checkpoint coverage (CC001/CC002)
# ---------------------------------------------------------------------------

def test_uncovered_and_halfcovered_attrs_flagged():
    findings = run_fixture(specs=(STORE_SPEC,))
    cc001 = by_code(findings, "CC001")
    flagged = {(d.state, d.data["fingerprint"].rsplit(":", 1)[-1])
               for d in cc001}
    assert ("Store", "missing") in flagged      # never captured
    assert ("Store", "half") in flagged         # captured, never restored
    assert all(d.severity is Severity.ERROR for d in cc001)
    # The covered attr and the immutable constant stay quiet.
    names = {f[1] for f in flagged}
    assert "covered" not in names and "name" not in names


def test_snapshot_key_without_restore_consumer_flagged():
    findings = run_fixture(specs=(STORE_SPEC,))
    assert subjects(findings, "CC002") == {"stale"}


def test_checkpoint_free_class_needs_exemptions():
    findings = run_fixture(specs=(FROZEN_SPEC,))
    assert subjects(findings, "CC001") == {"cache"}
    assert "checkpoint-free" in by_code(findings, "CC001")[0].message


def test_stale_exemption_is_config_error():
    spec = CheckpointSpec(
        module="checkpointed.py", cls="Store",
        exempt={"missing": "ok", "half": "ok", "ghost": "gone"})
    findings = run_fixture(specs=(spec,))
    cx = by_code(findings, "CX001")
    assert any("ghost" in d.message for d in cx)
    # With real attrs exempted, CC001 no longer fires for them.
    assert not by_code(findings, "CC001")


def test_missing_spec_target_is_config_error():
    for missing in ("nonexistent",
                    FunctionRef("checkpointed.py", "Elsewhere.nonexistent")):
        spec = CheckpointSpec(module="checkpointed.py", cls="Store",
                              snapshot=(missing,))
        findings = run_fixture(specs=(spec,))
        assert any("nonexistent" in d.message
                   for d in by_code(findings, "CX001"))


# ---------------------------------------------------------------------------
# guard purity (GP001-GP002)
# ---------------------------------------------------------------------------

def test_impure_guards_flagged_by_kind():
    findings = run_fixture(check_guards=True)
    gp001_scopes = {d.state for d in by_code(findings, "GP001")}
    assert "writes_state" in gp001_scopes
    assert "transitive_writer" in gp001_scopes    # via the _poke callee
    assert "uses_scratch" in gp001_scopes         # no memo-slot carve-out
    assert "leaf_writer" in gp001_scopes          # reached via helper(fn)
    gp002_scopes = {d.state for d in by_code(findings, "GP002")}
    assert "mutates_list" in gp002_scopes
    assert any(scope.startswith("<lambda") for scope in gp002_scopes)
    # Timers are started by statements, which are data: no GP003.
    assert "GP003" not in RULES


def test_pure_and_suppressed_guards_pass():
    findings = run_fixture(check_guards=True)
    scopes = {d.state for d in findings}
    assert "pure_leaf" not in scopes       # a helper leaf that only reads
    assert "suppressed" not in scopes      # per-line "# noqa: GP001"


def test_scratch_memo_through_module_accessor_is_flagged():
    # The retired rtp_machine idiom: memo = _memo(ctx); memo[key] = value.
    # A per-delivery memo is a plain GP001 write, in the accessor and in
    # the guard that fills it.
    source = (
        "def _memo(ctx):\n"
        "    cache = ctx.scratch\n"
        "    if cache is None:\n"
        "        cache = ctx.scratch = {}\n"
        "    return cache\n"
        "\n"
        "\n"
        "def cached(ctx):\n"
        "    memo = _memo(ctx)\n"
        "    memo['verdict'] = True\n"
        "    return memo['verdict']\n"
        "\n"
        "\n"
        "def build(machine):\n"
        "    machine.add_transition('s0', 'e', 's0', predicate=cached)\n"
    )
    findings = analyze(root=FIXTURES, overrides={"aliased.py": source},
                       specs=(), check_plain_state=False,
                       check_isolation=False)
    flagged = [d for d in findings if d.machine == "aliased.py"]
    assert {d.data["code"] for d in flagged} == {"GP001"}
    assert {d.data["line"] for d in flagged} == {4, 10}
    assert {d.state for d in flagged} == {"cached"}


# ---------------------------------------------------------------------------
# plain-data state (PD001)
# ---------------------------------------------------------------------------

def test_non_plain_state_values_flagged():
    findings = run_fixture(check_plain_state=True)
    # A state write is a statement now: a constant it writes is checked
    # when the machine is built (tests/efsm/test_machine.py).
    assert subjects(findings, "PD001") == {
        "factory", "gen", "handle",
        # mutable containers: display, constructor call, nested in a tuple
        "table", "seen", "pair"}
    assert all(d.severity is Severity.WARNING
               for d in by_code(findings, "PD001"))


# ---------------------------------------------------------------------------
# shard isolation (SI001)
# ---------------------------------------------------------------------------

def test_shared_tracker_rebinds_flagged_outside_sites():
    findings = run_fixture(check_isolation=True)
    si001 = by_code(findings, "SI001")
    assert {d.state for d in si001} == {"Facade.__init__", "Facade.reset"}


# ---------------------------------------------------------------------------
# whole tree, baseline, and the acceptance injection
# ---------------------------------------------------------------------------

def test_shipped_tree_is_clean_modulo_baseline():
    findings = analyze()
    baseline = load_baseline(BASELINE)
    new, _accepted, _stale = partition_findings(findings, baseline)
    assert new == [], "codelint found new findings on the shipped tree:\n" \
        + "\n".join(d.describe() for d in new)


def test_checkpoint_specs_match_shipped_layout():
    # Every spec resolves: no CX001 means no module/class/function drifted
    # out from under the spec table.
    findings = analyze(specs=CHECKPOINT_SPECS, check_guards=False,
                       check_plain_state=False, check_isolation=False)
    assert not by_code(findings, "CX001"), [d.message for d in findings]


def test_field_added_to_vids_without_checkpoint_is_caught():
    """Acceptance: a test-only field added to Vids.__init__ but omitted
    from checkpoint coverage must fail the checkpoint-coverage rule."""
    source = (SRC_ROOT / "vids" / "ids.py").read_text(encoding="utf-8")
    anchor = "self._busy_until = 0.0"
    assert anchor in source
    patched = source.replace(
        anchor, anchor + "\n        self._codecheck_probe = {}", 1)
    findings = analyze(overrides={"vids/ids.py": patched})
    cc001 = [d for d in by_code(findings, "CC001")
             if "_codecheck_probe" in d.message]
    assert cc001, "injected uncovered Vids field was not caught"
    assert cc001[0].severity is Severity.ERROR
    assert cc001[0].state == "Vids"
    # And it is a NEW finding relative to the committed baseline.
    new, _, _ = partition_findings(findings, load_baseline(BASELINE))
    assert any("_codecheck_probe" in d.message for d in new)


def test_fingerprints_are_line_number_independent():
    source = (FIXTURES / "checkpointed.py").read_text(encoding="utf-8")
    shifted = "# shifted\n# shifted again\n" + source
    original = {fingerprint(d)
                for d in run_fixture(specs=(STORE_SPEC, FROZEN_SPEC))}
    moved = {fingerprint(d) for d in analyze(
        root=FIXTURES, overrides={"checkpointed.py": shifted},
        specs=(STORE_SPEC, FROZEN_SPEC), check_guards=False,
        check_plain_state=False, check_isolation=False)}
    assert original == moved


def test_baseline_round_trip(tmp_path):
    findings = run_fixture(specs=(STORE_SPEC,))
    assert findings
    path = tmp_path / "baseline.json"
    write_baseline(path, findings)
    baseline = load_baseline(path)
    new, accepted, stale = partition_findings(findings, baseline)
    assert new == [] and len(accepted) == len(findings) and stale == []
    # Fixing one finding leaves its baseline entry stale, not failing.
    remaining = findings[1:]
    new, accepted, stale = partition_findings(remaining, baseline)
    assert new == [] and len(stale) == 1


def test_cli_codelint_clean_exit(capsys):
    from repro.cli import main

    assert main(["codelint"]) == 0
    out = capsys.readouterr().out
    assert "codelint" in out
