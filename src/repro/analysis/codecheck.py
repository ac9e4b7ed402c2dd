"""Checkpoint coverage, read from the source (run by ``make lint``).

A failed shard is rebuilt from its members' ``snapshot()`` payloads
(docs/ROBUSTNESS.md).  A field a class gains that its snapshot never
captures survives failover stale, and the round-trip tests compare a
snapshot with a snapshot, so they cannot see it.  This module walks the
abstract syntax trees of the classes :data:`CHECKPOINT_SPECS` names — no
analyzed module is imported — and reports every finding as an ERROR
:class:`~repro.efsm.diagnostics.Diagnostic`, the vocabulary speclint uses
(``docs/CODECHECK.md``):

``CC001 checkpoint-coverage``
    Every ``__init__``-assigned mutable attribute of a checkpointed class
    must be captured by its snapshot functions *and* written back by its
    restore functions, or carry an audited exemption in
    :data:`CHECKPOINT_SPECS`.

``CC002 checkpoint-restore-gap``
    Every key a snapshot emits must be consumed on the restore side
    (stale keys are checkpoint bytes nothing reads back).

``CX001 codecheck-config``
    A spec names a module, class or function that no longer exists, or
    exempts an attribute ``__init__`` no longer assigns.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence, Set,
                    Tuple, Union)

from ..efsm.diagnostics import Diagnostic, Severity
from ..efsm.guards import MUTATING_METHODS

__all__ = ["RULES", "CheckpointSpec", "FunctionRef", "CHECKPOINT_SPECS",
           "analyze"]

#: Root of the analyzed package (``src/repro``); module paths in the spec
#: table are relative to this directory.
SRC_ROOT = Path(__file__).resolve().parents[1]

#: code -> rule name.
RULES: Dict[str, str] = {
    "CC001": "checkpoint-coverage",
    "CC002": "checkpoint-restore-gap",
    "CX001": "codecheck-config",
}


# ---------------------------------------------------------------------------
# Spec table: what must be checkpointed
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionRef:
    """A function named by (module path relative to SRC_ROOT, qualname)."""

    module: str
    qualname: str


@dataclass(frozen=True)
class CheckpointSpec:
    """Checkpoint-coverage contract for one state-carrying class.

    ``snapshot``/``restore`` name the functions that capture / rebuild
    this class's state: a bare name is a method of the class itself (by
    default its own ``snapshot``/``restore`` pair), a :class:`FunctionRef`
    a function elsewhere, for state that travels with an owner.  An
    attribute is covered when its name is referenced on both sides.
    ``exempt`` maps audited non-checkpointed attributes to their
    justification.  An empty ``snapshot`` declares the class
    checkpoint-free (``restore`` is not looked at): every mutable
    attribute must then be exempt.
    """

    module: str
    cls: str
    snapshot: Tuple[Union[str, FunctionRef], ...] = ("snapshot",)
    restore: Tuple[Union[str, FunctionRef], ...] = ("restore",)
    exempt: Mapping[str, str] = field(default_factory=dict)


CHECKPOINT_SPECS: Tuple[CheckpointSpec, ...] = (
    CheckpointSpec(
        module="efsm/machine.py",
        cls="Efsm",
        # Checkpoint-free by design: definitions are built once, sealed by
        # freeze(), and shared read-only across every instance — only
        # EfsmInstance carries per-call state.
        snapshot=(),
        exempt={
            "states": "frozen definition data (sealed by freeze())",
            "variables": "frozen declaration defaults, copied per instance",
            "global_variables": "frozen declaration defaults",
            "transitions": "frozen transition relation",
            "frozen": "set once by freeze(); a frozen definition refuses "
                      "construction calls",
            "_compiled": "dispatch table compiled by freeze() from the "
                         "frozen transition relation",
            "attack_states": "frozen definition data",
            "final_states": "frozen definition data",
            "alphabet": "frozen definition data",
            "channels": "frozen definition data",
        },
    ),
    CheckpointSpec(
        module="efsm/machine.py",
        cls="Variables",
        # Locals travel with the owning instance, the shared globals dict
        # with the owning system.
        snapshot=(FunctionRef("efsm/machine.py", "EfsmInstance.snapshot"),
                  FunctionRef("efsm/system.py", "EfsmSystem.snapshot")),
        restore=(FunctionRef("efsm/machine.py", "EfsmInstance.restore"),
                 FunctionRef("efsm/system.py", "EfsmSystem.restore")),
    ),
    CheckpointSpec(
        module="efsm/machine.py",
        cls="EfsmInstance",
        exempt={
            "_timers": "opaque scheduler handles; restore re-arms them "
                       "through start_timer from _timer_meta",
            "on_timer_event": "delivery hook re-wired by the owning "
                              "EfsmSystem when the instance is rebuilt",
        },
    ),
    CheckpointSpec(
        module="efsm/system.py",
        cls="EfsmSystem",
        exempt={
            "_channel_list": "flat mirror of channels maintained by "
                             "connect(); no independent state",
        },
    ),
    CheckpointSpec(
        module="vids/factbase.py",
        cls="CallRecord",
        # A record's state travels through its fact base.
        snapshot=(FunctionRef("vids/factbase.py",
                              "CallStateFactBase.checkpoint_call"),),
        restore=tuple(
            FunctionRef("vids/factbase.py", f"CallStateFactBase.{name}")
            for name in ("restore_call", "refresh_media_index", "_create")),
        exempt={
            "media_map": "not stored: re-derived from the restored globals "
                         "by refresh_media_index",
            "_contribution": "byte-size memo, recomputed lazily",
            "_media_sig": "raw media-global signature memo; re-derived by "
                          "refresh_media_index after restore",
        },
    ),
    CheckpointSpec(
        module="vids/factbase.py",
        cls="CallStateFactBase",
        restore=("restore", "restore_call", "_create", "refresh_media_index"),
        exempt={
            "metrics": "the owning Vids' VidsMetrics (a shared reference); "
                       "Vids.snapshot checkpoints it",
            "spec": "the deployment's frozen CallSpec, call_spec(config): "
                    "the same in every member of one config",
            "_total_bytes": "incremental byte total, rebuilt lazily from "
                            "the _dirty set after restore",
            "_dirty": "size-accounting scratch; _create re-marks every "
                      "restored record",
            "media_index": "re-derived per call by refresh_media_index "
                           "during restore_call",
        },
    ),
    CheckpointSpec(
        module="vids/alerts.py",
        cls="AlertManager",
        exempt={
            "counts": "not stored: re-derived from the restored alerts",
        },
    ),
    CheckpointSpec(
        module="vids/ids.py",
        cls="Vids",
        exempt={
            "classifier": "holds only a monotonic observability counter; "
                          "a fresh classifier is correct after failover",
            "engine": "stateless: deviation dedup lives on the call record "
                      "and the stray table belongs to trackers",
            "trackers": "the deployment's cross-call state, shared by "
                        "every shard; whoever supervises the deployment "
                        "checkpoints it once (see the CrossCallTrackers "
                        "spec)",
            "distributor": "stateless routing facade over factbase/engine/"
                           "trackers",
            "_var_shadow": "trace-only changed-variable shadow; a cold "
                           "shadow just re-emits full valuations on the "
                           "next fire after failover",
        },
    ),
    CheckpointSpec(
        module="vids/patterns/invite_flood.py",
        cls="InviteFloodTracker",
        exempt={
            "_order": "the open windows in the order they close; restore "
                      "rebuilds it from the checkpointed windows",
        },
    ),
    CheckpointSpec(
        module="vids/patterns/media_spam.py",
        cls="OrphanMediaTracker",
        restore=("restore", "machine_for"),
    ),
    CheckpointSpec(
        module="vids/patterns/cross_call.py",
        cls="CrossCallTrackers",
    ),
    CheckpointSpec(
        module="vids/engine.py",
        cls="AnalysisEngine",
        # Checkpoint-free: the engine holds no state of its own.
        snapshot=(),
        exempt={
            "scenarios": "attack-scenario definition database; immutable "
                         "after construction and identical on every member",
            "_first_stray": "asks the deployment's shared stray-dedup "
                            "table, owned and checkpointed by "
                            "CrossCallTrackers",
        },
    ),
)


# ---------------------------------------------------------------------------
# AST helpers
# ---------------------------------------------------------------------------

def _functions_by_qualname(module: ast.Module) -> Dict[str, ast.AST]:
    """Every FunctionDef/AsyncFunctionDef keyed by dotted qualname."""
    found: Dict[str, ast.AST] = {}

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                found[name] = child
                walk(child, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(module, "")
    return found


def _find_class(module: ast.Module, name: str) -> Optional[ast.ClassDef]:
    for node in ast.walk(module):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _attr_chain(node: ast.AST) -> List[str]:
    """Name/attribute chain of an expression: ``a.b["k"].c`` -> [a, b, c].

    Subscripts and calls are transparent (the chain follows the object
    being indexed/called); a chain not rooted at a plain name is empty.
    """
    parts: List[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            return parts[::-1]
        else:
            return []


def _mentions(nodes: Iterable[ast.AST]) -> Set[str]:
    """All attribute names, bare names, and string constants in a subtree."""
    seen: Set[str] = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                seen.add(node.value)
    return seen


def _is_mutable_expr(node: ast.AST) -> bool:
    """Conservative "this init value is a mutable container/object" test."""
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp, ast.Call)):
        return True
    if isinstance(node, ast.IfExp):
        return _is_mutable_expr(node.body) or _is_mutable_expr(node.orelse)
    if isinstance(node, ast.BoolOp):
        return any(_is_mutable_expr(value) for value in node.values)
    return False


def _init_attrs(cls: ast.ClassDef) -> Dict[str, Tuple[ast.AST, int]]:
    """``self.X = value`` assignments in ``__init__`` -> {X: (value, line)}.

    Nested function bodies are skipped (closures assign to their own
    objects, not to the instance under construction).
    """
    attrs: Dict[str, Tuple[ast.AST, int]] = {}
    init = next((n for n in cls.body
                 if isinstance(n, ast.FunctionDef) and n.name == "__init__"),
                None)
    if init is None:
        return attrs

    def walk(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            if isinstance(child, (ast.Assign, ast.AnnAssign)):
                targets = (child.targets if isinstance(child, ast.Assign)
                           else [child.target])
                value = child.value
                for target in targets:
                    if (value is not None
                            and isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                            and target.attr not in attrs):
                        attrs[target.attr] = (value, child.lineno)
            walk(child)

    walk(init)
    return attrs


def _mutated_attrs(cls: ast.ClassDef) -> Set[str]:
    """Attributes rebound or mutated through ``self`` outside ``__init__``."""
    mutated: Set[str] = set()
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if method.name == "__init__":
            continue
        for node in ast.walk(method):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in MUTATING_METHODS:
                chain = _attr_chain(node.func.value)
                if len(chain) >= 2 and chain[0] == "self":
                    mutated.add(chain[1])
            for target in targets:
                chain = _attr_chain(target)
                if len(chain) >= 2 and chain[0] == "self":
                    mutated.add(chain[1])
    return mutated


def _emitted_keys(functions: Sequence[ast.AST]) -> Dict[str, int]:
    """Keys a snapshot emits: the string keys of returned dict literals.
    Maps key -> line for anchoring."""
    keys: Dict[str, int] = {}
    for fn in functions:
        for node in ast.walk(fn):
            if isinstance(node, ast.Return) and isinstance(node.value,
                                                           ast.Dict):
                for key in node.value.keys:
                    if isinstance(key, ast.Constant) and \
                            isinstance(key.value, str):
                        keys.setdefault(key.value, key.lineno)
    return keys


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

class _Analysis:
    """The modules one run parsed, and the findings it made."""

    def __init__(self, root: Path, overrides: Mapping[str, str]):
        self.root = root
        self.overrides = overrides
        self.parsed: Dict[str, Optional[ast.Module]] = {}
        self.diagnostics: List[Diagnostic] = []

    def module(self, rel: str) -> Optional[ast.Module]:
        if rel not in self.parsed:
            try:
                source = (self.overrides[rel] if rel in self.overrides else
                          (self.root / rel).read_text(encoding="utf-8"))
                self.parsed[rel] = ast.parse(source, filename=rel)
            except (OSError, SyntaxError):
                self.parsed[rel] = None
        return self.parsed[rel]

    def add(self, code: str, message: str, *, path: str, scope: str,
            subject: str, line: int = 0, hint: str = "") -> None:
        self.diagnostics.append(Diagnostic(
            RULES[code], Severity.ERROR, message,
            machine=path, state=scope, hint=hint,
            data={"code": code, "path": path, "line": line,
                  "subject": subject}))

    def resolve(self, spec: CheckpointSpec,
                refs: Sequence[Union[str, FunctionRef]]) -> List[ast.AST]:
        resolved: List[ast.AST] = []
        for ref in refs:
            if isinstance(ref, str):
                ref = FunctionRef(spec.module, f"{spec.cls}.{ref}")
            module = self.module(ref.module)
            if module is None:
                self.add("CX001",
                         f"spec {spec.cls!r} references missing module "
                         f"{ref.module!r}",
                         path=ref.module, scope=spec.cls, subject=ref.module)
                continue
            node = _functions_by_qualname(module).get(ref.qualname)
            if node is None:
                self.add("CX001",
                         f"spec {spec.cls!r} references missing function "
                         f"{ref.qualname!r} in {ref.module!r}",
                         path=ref.module, scope=spec.cls,
                         subject=ref.qualname)
                continue
            resolved.append(node)
        return resolved

    def check(self, spec: CheckpointSpec) -> None:
        module = self.module(spec.module)
        if module is None:
            self.add("CX001", f"spec {spec.cls!r}: module {spec.module!r} "
                     f"missing or unparseable",
                     path=spec.module, scope=spec.cls, subject=spec.module)
            return
        cls = _find_class(module, spec.cls)
        if cls is None:
            self.add("CX001", f"spec {spec.cls!r}: class {spec.cls!r} not "
                     f"found in {spec.module!r}",
                     path=spec.module, scope=spec.cls, subject=spec.cls)
            return
        snapshot_fns = self.resolve(spec, spec.snapshot)
        restore_mentions = _mentions(
            self.resolve(spec, spec.restore if spec.snapshot else ()))
        snapshot_mentions = _mentions(snapshot_fns)

        attrs = _init_attrs(cls)
        mutated = _mutated_attrs(cls)
        flagged_attrs: Set[str] = set()
        for attr, (value, line) in attrs.items():
            if not (_is_mutable_expr(value) or attr in mutated):
                continue                # immutable/config wiring: not state
            if attr in spec.exempt:
                continue
            if not spec.snapshot:
                self.add("CC001",
                         f"{spec.cls}.{attr} is mutable state but "
                         f"{spec.cls} is declared checkpoint-free",
                         path=spec.module, line=line, scope=spec.cls,
                         subject=attr,
                         hint="add an audited exemption to CHECKPOINT_SPECS "
                              "or give the class snapshot/restore coverage")
            elif attr not in snapshot_mentions:
                self.add("CC001",
                         f"{spec.cls}.{attr} is mutable state but no "
                         f"snapshot function of spec {spec.cls!r} references "
                         f"it: a failover would resurrect it stale",
                         path=spec.module, line=line, scope=spec.cls,
                         subject=attr,
                         hint="capture it in the snapshot path or add an "
                              "audited exemption to CHECKPOINT_SPECS")
            elif attr not in restore_mentions:
                flagged_attrs.add(attr)
                self.add("CC001",
                         f"{spec.cls}.{attr} is captured on snapshot but no "
                         f"restore function of spec {spec.cls!r} references "
                         f"it: the checkpointed value is never written back",
                         path=spec.module, line=line, scope=spec.cls,
                         subject=attr,
                         hint="write it back on the restore path or add an "
                              "audited exemption")
        for attr in spec.exempt:
            if attr not in attrs:
                self.add("CX001",
                         f"spec {spec.cls!r} exempts {attr!r} but "
                         f"{spec.cls}.__init__ no longer assigns it",
                         path=spec.module, scope=spec.cls,
                         subject=f"stale-exempt:{attr}",
                         hint="drop the stale exemption from CHECKPOINT_SPECS")

        for key, line in _emitted_keys(snapshot_fns).items():
            if key in restore_mentions or key in flagged_attrs:
                continue        # a flagged attr is reported as a CC001 gap
            first = spec.snapshot[0]
            self.add("CC002",
                     f"snapshot of spec {spec.cls!r} emits key {key!r} but "
                     f"no restore function consumes it",
                     path=spec.module if isinstance(first, str)
                     else first.module,
                     line=line, scope=spec.cls, subject=key,
                     hint="read the key back on restore or drop it from the "
                          "snapshot")


def analyze(root: Optional[Path] = None,
            overrides: Optional[Mapping[str, str]] = None,
            specs: Sequence[CheckpointSpec] = CHECKPOINT_SPECS
            ) -> List[Diagnostic]:
    """Check each spec's class against its snapshot and restore functions.

    ``root`` defaults to the ``repro`` package source; ``overrides`` maps a
    module path to replacement source text, so a test analyzes a patched
    copy of a shipped module without touching the filesystem.
    """
    run = _Analysis(Path(root) if root is not None else SRC_ROOT,
                    dict(overrides or {}))
    for spec in specs:
        run.check(spec)
    run.diagnostics.sort(key=lambda d: (d.machine or "", d.data["line"],
                                        d.data["code"]))
    return run.diagnostics
