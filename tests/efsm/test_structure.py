"""Structural pins: the machine layer keeps one of each mechanism.

One dispatch (the compiled tables; the reference lives test side, in
``tests/efsm/oracle.py``), one representation of a transition — guard,
statements, output arguments (``repro.efsm.guards``) — read by speclint
without mining any source and run as functions of the instance and the
event, no throwaway instance pinned to a state, one
firing tail (in ``EfsmInstance.deliver``), one way to send (declarative
``Output``), one declaration of the shared media globals, one way to build
a call system, a closed domain of state values.  These read the source so
a second copy cannot come back unnoticed.
"""

import ast
import inspect
import re
from pathlib import Path

import repro
from repro.efsm import EfsmInstance, EfsmSystem
from repro.sip.transaction import transaction_machines
from repro.vids import DEFAULT_CONFIG
from repro.vids.spec import call_spec

SRC = Path(repro.__file__).resolve().parent


def _sources():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), path.read_text("utf-8")


def _files_with(needle):
    return [rel for rel, source in _sources() if needle in source]


def _count(needle):
    return sum(source.count(needle) for _, source in _sources())


def test_contexts_are_built_only_by_the_machine_module():
    """The firing context is the instance and the event, which
    ``EfsmInstance.deliver`` passes as they are: no module builds a context
    object, and none takes or reads a ``ctx`` — the abstract valuation
    ``guards.decide`` compiles against is ``valuation``."""
    assert _files_with("TransitionContext") == []
    for rel, source in _sources():
        assert not re.search(r"\bctx\b", source), rel


def test_no_throwaway_instance_is_pinned_to_a_state():
    """Building an ``EfsmInstance`` and assigning its ``state`` in the same
    function is the probe idiom ``Efsm.enabled_at`` used; specdiff reads
    the recorded firings instead."""
    pinned = []
    for rel, source in _sources():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            builds = any(isinstance(inner, ast.Call)
                         and isinstance(inner.func, ast.Name)
                         and inner.func.id == "EfsmInstance"
                         for inner in ast.walk(node))
            pins = any(isinstance(inner, ast.Assign)
                       and any(isinstance(target, ast.Attribute)
                               and target.attr == "state"
                               for target in inner.targets)
                       for inner in ast.walk(node))
            if builds and pins:
                pinned.append((rel, node.name))
    assert pinned == []


def test_the_sampled_probe_and_the_second_dispatch_are_gone():
    for needle in ("PROBE_SAMPLES", "compiled_dispatch", "probed_dispatch",
                   "allow_impure_guard", "GuardSpec", "samples=",
                   "enabled_at", "args_from", "_SAMPLES_PER_GROUP"):
        assert _files_with(needle) == [], needle
    # Guards run as the function Guard.compiled() generates, and only
    # dispatch entries ask for it.
    assert _files_with(".compiled()") == ["efsm/machine.py"]


def test_speclint_reads_the_data_and_mines_no_source():
    tree = ast.parse((SRC / "efsm/verify.py").read_text("utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert not {"inspect", "re"} & imported
    for needle in ("getsource", "_closure_bindings", "_resolve_identifier",
                   "_expand_callables", "CTX_EFFECT_METHODS"):
        assert _files_with(needle) == [], needle


def test_one_firing_tail():
    assert _count("self.state = transition.target") == 1
    assert _count("FiringResult(") == 1
    assert _files_with("FiringResult(") == ["efsm/machine.py"]


def test_context_has_no_memo_slot_and_no_dynamic_send():
    """Every compiled entry of the shipped machines — guard and firing — is
    a generated function of ``(inst, ev)``: no memo slot to write, and
    sends only through the declared outputs."""
    entries = 0
    for cross_protocol in (True, False):
        for machine in call_spec(DEFAULT_CONFIG.with_overrides(
                cross_protocol=cross_protocol)).machines:
            for candidates in machine._compiled.values():
                for enabled, _, fire, _ in candidates:
                    for fn in (enabled, fire):
                        if fn is not None:
                            entries += 1
                            assert list(inspect.signature(fn).parameters) \
                                == ["inst", "ev"], fn.__doc__
    assert entries > 50
    assert not hasattr(EfsmInstance, "scratch")
    assert not hasattr(EfsmInstance, "emit")
    assert _count(".scratch") == 0


def test_every_entry_knows_whether_its_firing_is_observable():
    """The observable flag of each compiled entry — what decides whether a
    firing is materialised for the analysis — is exactly an attack
    transition or an entry into a final state from another state, on every
    shipped definition: both call specs (with their Figure-4/6 pattern
    machines) and the simulator's transaction machines."""
    machines = [machine for cross_protocol in (True, False)
                for machine in call_spec(DEFAULT_CONFIG.with_overrides(
                    cross_protocol=cross_protocol)).machines]
    machines += transaction_machines().values()
    entries = observable = 0
    for machine in machines:
        for candidates in machine.freeze()._compiled.values():
            for _, transition, _, flag in candidates:
                entries += 1
                observable += flag
                assert flag == (transition.attack or (
                    transition.target in machine.final_states
                    and transition.target != transition.source)), \
                    (machine.name, transition.describe())
    assert entries > observable > 10


def test_media_globals_are_defaulted_in_one_file():
    assert _files_with("g_offer_addr=") == ["vids/sync.py"]


def test_a_call_system_is_built_one_way_and_keeps_no_firing_log():
    """``add_machine`` is the constructor; firings go to ``on_result`` and
    to ``inject``'s caller, never into a per-call list."""
    for needle in ("SystemTemplate", "from_template", "seed_globals",
                   "attack_matches"):
        assert _files_with(needle) == [], needle
    assert not hasattr(EfsmSystem, "deviations")


def test_copy_state_has_no_deepcopy_fallback():
    assert "copy.deepcopy(" not in (SRC / "efsm/machine.py").read_text("utf-8")
