"""Static invariant analysis over the *implementation* (``codelint``).

``speclint`` (:mod:`repro.efsm.verify`) verifies the EFSM *specifications*;
this module verifies the implementation invariants those specifications
rely on, by walking the abstract syntax trees of the source files — no
analyzed module is ever imported or executed.  Findings reuse the
:class:`~repro.efsm.diagnostics.Diagnostic` vocabulary, so the CLI, the
baseline gate, and the tests all share one format with speclint.

Rule catalog (``docs/CODECHECK.md``):

``CC001 checkpoint-coverage``
    Every ``__init__``-assigned mutable attribute of a checkpoint-
    participating class must be captured by its snapshot functions *and*
    written back by its restore functions, or carry an audited exemption
    in :data:`CHECKPOINT_SPECS`.  A new field added in a later PR fails
    lint instead of silently surviving failover as stale state.

``CC002 checkpoint-restore-gap``
    Every key a snapshot emits must be consumed on the restore side
    (stale keys are checkpoint bytes nothing reads back).

``GP001 guard-impure-write`` / ``GP002 guard-mutating-call``
    What is still *code* in a transition must be pure — a ``helper(fn)``
    function, a bare callable passed as ``predicate=`` (an expression of
    :mod:`repro.efsm.guards` is pure by construction): dispatch may
    evaluate a guard more than once, and incremental checkpointing
    versions calls by firing counts — a guard that mutates state corrupts
    both invisibly.

``PD001 plain-data-state``
    Declared state-variable defaults must stay inside the plain-data
    domain :func:`~repro.efsm.machine.copy_state` round-trips (no lambdas,
    generators, file handles, or custom class instances) and must be
    immutable: a dict, list or set value is deep-copied by every
    checkpoint, and as a declared default it is one object shared by
    every call built from the definition.  A constant a statement writes
    is checked when the machine is built.

``SI001 shard-shared-mutation``
    The cross-call trackers every shard shares (and the stray-dedup table
    among them) are bound by constructors only; a rebind anywhere else
    silently splits the aggregate view the rate patterns need.

Suppression: a ``# noqa: CC001`` (etc.) comment on the flagged source
line silences that finding; :func:`noqa_lines` is the one parser, which
``tools/lint.py`` uses too.  Cross-run acceptance goes through the committed
baseline file instead (``tools/codelint_baseline.json``).
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Set, Tuple, Union)

from ..efsm.diagnostics import Diagnostic, Severity

__all__ = [
    "RULES",
    "CheckpointSpec",
    "FunctionRef",
    "CHECKPOINT_SPECS",
    "SHARED_STATE_ATTRS",
    "SHARED_STATE_SITES",
    "SourceTree",
    "analyze",
    "fingerprint",
    "is_silenced",
    "noqa_lines",
    "load_baseline",
    "write_baseline",
    "partition_findings",
]

#: Root of the analyzed package (``src/repro``); module paths in the spec
#: tables are relative to this directory.
SRC_ROOT = Path(__file__).resolve().parents[1]

#: code -> (rule name, severity, one-line summary).
RULES: Dict[str, Tuple[str, Severity, str]] = {
    "CC001": ("checkpoint-coverage", Severity.ERROR,
              "init-assigned mutable attribute not covered by "
              "snapshot/restore"),
    "CC002": ("checkpoint-restore-gap", Severity.ERROR,
              "snapshot-emitted key never consumed by restore"),
    "GP001": ("guard-impure-write", Severity.ERROR,
              "attribute/subscript assignment inside a guard"),
    "GP002": ("guard-mutating-call", Severity.ERROR,
              "known-mutating method call inside a guard"),
    "PD001": ("plain-data-state", Severity.WARNING,
              "declared state default mutable, or outside the copy_state "
              "plain-data domain"),
    "SI001": ("shard-shared-mutation", Severity.ERROR,
              "shard-shared tracker rebound outside its wiring sites"),
    "CX001": ("codecheck-config", Severity.ERROR,
              "analyzer spec references a missing module/class/function"),
}

#: Container/"known-mutating" method names rejected inside guards.
MUTATING_METHODS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert", "add",
    "update", "setdefault", "pop", "popleft", "popitem", "remove",
    "discard", "clear", "sort", "reverse", "__setitem__", "__delitem__",
})

#: Call targets whose results stay inside the plain-data domain.
_PLAIN_CALLS = frozenset({
    "tuple", "frozenset", "str", "int", "float", "bool", "bytes", "len",
    "min", "max", "sum", "abs", "round", "copy_state", "repr", "format",
    "divmod", "hash", "id", "ord", "chr",
})

#: Call targets that build a mutable container.
_MUTABLE_CALLS = frozenset({
    "dict", "list", "set", "bytearray", "sorted", "defaultdict", "Counter",
    "OrderedDict", "deque",
})


# ---------------------------------------------------------------------------
# Spec tables: what must be checkpointed, and where shared state may change
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
            "_size_cache": "byte-size memo, recomputed lazily",
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
        restore=("restore", "machine_for"),
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

#: Attribute names under which the deployment's one cross-call object and
#: its parts are held (see ``docs/SCALING.md``).
SHARED_STATE_ATTRS = frozenset({
    "trackers", "flood_tracker", "source_flood_tracker", "orphan_tracker",
    "_stray_keys",
})

#: (module, qualname) sites allowed to bind a shared-state attribute:
#: constructors only — a restore refills the same objects in place.
SHARED_STATE_SITES = frozenset({
    ("vids/patterns/cross_call.py", "CrossCallTrackers.__init__"),
    ("vids/ids.py", "Vids.__init__"),
    ("vids/distributor.py", "EventDistributor.__init__"),
    ("vids/sharding.py", "ShardedVids.__init__"),
})


# ---------------------------------------------------------------------------
# Source tree access (AST only — analyzed modules are never imported)
# ---------------------------------------------------------------------------

_NOQA_CODE = re.compile(r"[A-Z]+[0-9]+")


def noqa_lines(source: str) -> Dict[int, Set[str]]:
    """Line number -> silenced rule codes ('*' = all): ``# noqa`` silences
    every rule on its line, ``# noqa: E731, F401 - prose`` the codes it
    names.  The one parser behind codelint and ``tools/lint.py``."""
    silenced: Dict[int, Set[str]] = {}
    for number, line in enumerate(source.splitlines(), start=1):
        if "# noqa" not in line:
            continue
        _, _, tail = line.partition("# noqa")
        if tail.lstrip().startswith(":"):
            codes = set()
            for part in tail.lstrip().lstrip(":").split(","):
                match = _NOQA_CODE.match(part.strip())
                if match:
                    codes.add(match.group(0))
            silenced[number] = codes or {"*"}
        else:
            silenced[number] = {"*"}
    return silenced


def is_silenced(silenced: Mapping[int, Set[str]], line: int,
                code: str) -> bool:
    codes = silenced.get(line, set())
    return "*" in codes or code in codes


class SourceTree:
    """Lazy AST access to every ``*.py`` under a root directory.

    ``overrides`` maps relative paths to replacement source text, letting
    the tests analyze a patched copy of a shipped module (or a synthetic
    module that exists nowhere on disk) without touching the filesystem.
    """

    def __init__(self, root: Optional[Path] = None,
                 overrides: Optional[Mapping[str, str]] = None):
        self.root = Path(root) if root is not None else SRC_ROOT
        self.overrides = dict(overrides or {})
        self._sources: Dict[str, Optional[str]] = {}
        self._modules: Dict[str, Optional[ast.Module]] = {}
        self._noqa: Dict[str, Dict[int, Set[str]]] = {}

    def paths(self) -> List[str]:
        found: Set[str] = set(self.overrides)
        if self.root.is_dir():
            for path in self.root.rglob("*.py"):
                if "__pycache__" in path.parts:
                    continue
                found.add(path.relative_to(self.root).as_posix())
        return sorted(found)

    def source(self, rel: str) -> Optional[str]:
        if rel not in self._sources:
            if rel in self.overrides:
                self._sources[rel] = self.overrides[rel]
            else:
                path = self.root / rel
                try:
                    self._sources[rel] = path.read_text(encoding="utf-8")
                except OSError:
                    self._sources[rel] = None
        return self._sources[rel]

    def module(self, rel: str) -> Optional[ast.Module]:
        if rel not in self._modules:
            source = self.source(rel)
            if source is None:
                self._modules[rel] = None
            else:
                try:
                    self._modules[rel] = ast.parse(source, filename=rel)
                except SyntaxError:
                    self._modules[rel] = None
        return self._modules[rel]

    def noqa(self, rel: str) -> Dict[int, Set[str]]:
        if rel not in self._noqa:
            source = self.source(rel)
            self._noqa[rel] = noqa_lines(source) if source else {}
        return self._noqa[rel]

    def modules(self) -> Iterator[Tuple[str, ast.Module]]:
        for rel in self.paths():
            module = self.module(rel)
            if module is not None:
                yield rel, module


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
    """Name/attribute chain of an expression: ``ctx.v["x"].y`` -> [ctx, v, y].

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


# ---------------------------------------------------------------------------
# Finding construction
# ---------------------------------------------------------------------------

class _Collector:
    """Accumulates findings, applying per-line noqa suppression."""

    def __init__(self, tree: SourceTree):
        self.tree = tree
        self.diagnostics: List[Diagnostic] = []

    def add(self, code: str, message: str, *, path: str, line: int = 0,
            scope: str = "", subject: str = "", hint: str = "") -> None:
        rule, severity, _ = RULES[code]
        if line and is_silenced(self.tree.noqa(path), line, code):
            return
        print_name = f"{path}:{line}" if line else path
        self.diagnostics.append(Diagnostic(
            rule, severity, message,
            machine=path, state=scope or None, hint=hint,
            data={
                "code": code,
                "path": path,
                "line": line,
                "location": print_name,
                "fingerprint": ":".join((code, path, scope, subject)),
            }))


def fingerprint(diagnostic: Diagnostic) -> str:
    """Stable identity of a finding (line-number free) for baselining."""
    return str(diagnostic.data.get("fingerprint", ""))


# ---------------------------------------------------------------------------
# Rule: checkpoint coverage (CC001/CC002)
# ---------------------------------------------------------------------------

def _resolve_functions(tree: SourceTree, spec: CheckpointSpec,
                       refs: Sequence[Union[str, FunctionRef]],
                       out: _Collector) -> List[ast.AST]:
    resolved: List[ast.AST] = []
    for ref in refs:
        if isinstance(ref, str):
            ref = FunctionRef(spec.module, f"{spec.cls}.{ref}")
        module = tree.module(ref.module)
        if module is None:
            out.add("CX001",
                    f"spec {spec.cls!r} references missing module "
                    f"{ref.module!r}",
                    path=ref.module, scope=spec.cls, subject=ref.module)
            continue
        node = _functions_by_qualname(module).get(ref.qualname)
        if node is None:
            out.add("CX001",
                    f"spec {spec.cls!r} references missing function "
                    f"{ref.qualname!r} in {ref.module!r}",
                    path=ref.module, scope=spec.cls, subject=ref.qualname)
            continue
        resolved.append(node)
    return resolved


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


def _check_checkpoint_spec(tree: SourceTree, spec: CheckpointSpec,
                           out: _Collector) -> None:
    module = tree.module(spec.module)
    if module is None:
        out.add("CX001", f"spec {spec.cls!r}: module {spec.module!r} "
                f"missing or unparseable",
                path=spec.module, scope=spec.cls, subject=spec.module)
        return
    cls = _find_class(module, spec.cls)
    if cls is None:
        out.add("CX001", f"spec {spec.cls!r}: class {spec.cls!r} not "
                f"found in {spec.module!r}",
                path=spec.module, scope=spec.cls, subject=spec.cls)
        return
    snapshot_fns = _resolve_functions(tree, spec, spec.snapshot, out)
    restore_fns = _resolve_functions(
        tree, spec, spec.restore if spec.snapshot else (), out)
    snapshot_mentions = _mentions(snapshot_fns)
    restore_mentions = _mentions(restore_fns)

    attrs = _init_attrs(cls)
    mutated = _mutated_attrs(cls)
    flagged_attrs: Set[str] = set()
    for attr, (value, line) in attrs.items():
        if not (_is_mutable_expr(value) or attr in mutated):
            continue                # immutable/config wiring: not state
        if attr in spec.exempt:
            continue
        if not spec.snapshot:
            out.add("CC001",
                    f"{spec.cls}.{attr} is mutable state but {spec.cls} is "
                    f"declared checkpoint-free",
                    path=spec.module, line=line, scope=spec.cls,
                    subject=attr,
                    hint="add an audited exemption to CHECKPOINT_SPECS or "
                         "give the class snapshot/restore coverage")
        elif attr not in snapshot_mentions:
            out.add("CC001",
                    f"{spec.cls}.{attr} is mutable state but no snapshot "
                    f"function of spec {spec.cls!r} references it: a "
                    f"failover would resurrect it stale",
                    path=spec.module, line=line, scope=spec.cls,
                    subject=attr,
                    hint="capture it in the snapshot path or add an audited "
                         "exemption to CHECKPOINT_SPECS")
        elif attr not in restore_mentions:
            flagged_attrs.add(attr)
            out.add("CC001",
                    f"{spec.cls}.{attr} is captured on snapshot but no "
                    f"restore function of spec {spec.cls!r} references "
                    f"it: the checkpointed value is never written back",
                    path=spec.module, line=line, scope=spec.cls,
                    subject=attr,
                    hint="write it back on the restore path or add an "
                         "audited exemption")
    for attr in spec.exempt:
        if attr not in attrs:
            out.add("CX001",
                    f"spec {spec.cls!r} exempts {attr!r} but "
                    f"{spec.cls}.__init__ no longer assigns it",
                    path=spec.module, scope=spec.cls,
                    subject=f"stale-exempt:{attr}",
                    hint="drop the stale exemption from CHECKPOINT_SPECS")

    for key, line in _emitted_keys(snapshot_fns).items():
        if key in restore_mentions:
            continue
        if key in flagged_attrs:
            continue        # root cause already reported as a CC001 gap
        first = spec.snapshot[0]
        snap_path = spec.module if isinstance(first, str) else first.module
        out.add("CC002",
                f"snapshot of spec {spec.cls!r} emits key {key!r} but no "
                f"restore function consumes it",
                path=snap_path, line=line, scope=spec.cls, subject=key,
                hint="read the key back on restore or drop it from the "
                     "snapshot")


# ---------------------------------------------------------------------------
# Rule: guard purity (GP001-GP002)
# ---------------------------------------------------------------------------

class _GuardChecker:
    """Purity walk over one guard callable (transitively, same module)."""

    def __init__(self, rel: str, functions: Mapping[str, List[ast.AST]],
                 out: _Collector):
        self.rel = rel
        self.functions = functions
        self.out = out
        self.seen: Set[int] = set()

    def check(self, fn: ast.AST, guard_name: str, depth: int = 0) -> None:
        if id(fn) in self.seen or depth > 5:
            return
        self.seen.add(id(fn))
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        for stmt in body:
            for node in ast.walk(stmt):
                self._check_node(node, guard_name, depth)

    def _check_node(self, node: ast.AST, guard: str, depth: int) -> None:
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        for target in targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                where = ".".join(_attr_chain(target)) or "<expression>"
                self.out.add(
                    "GP001",
                    f"guard {guard!r} writes {where}: guards must be "
                    f"pure (dispatch may evaluate one twice; checkpoint "
                    f"versioning assumes firings are the only mutations)",
                    path=self.rel, line=target.lineno, scope=guard,
                    subject=where,
                    hint="move the mutation into the transition action")
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute):
                chain = _attr_chain(node.func)
                method = node.func.attr
                if method in MUTATING_METHODS:
                    where = ".".join(chain)
                    self.out.add(
                        "GP002",
                        f"guard {guard!r} calls mutating method {where}()",
                        path=self.rel, line=node.lineno, scope=guard,
                        subject=where,
                        hint="guards may only read; mutate from the action")
            elif isinstance(node.func, ast.Name):
                for callee in self.functions.get(node.func.id, []):
                    self.check(callee, guard, depth + 1)


def _check_guards(tree: SourceTree, out: _Collector) -> None:
    for rel, module in tree.modules():
        functions: Dict[str, List[ast.AST]] = {}
        for node in ast.walk(module):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.setdefault(node.name, []).append(node)
        checker = _GuardChecker(rel, functions, out)
        for node in ast.walk(module):
            if not isinstance(node, ast.Call):
                continue
            # Guard *code*: a helper(fn) leaf's function, or a bare callable
            # handed to add_transition (a guard expression is no function).
            chain = _attr_chain(node.func)
            predicate: Optional[ast.AST] = None
            if chain[-1:] == ["helper"] and node.args:
                predicate = node.args[0]
            elif chain[-1:] == ["add_transition"]:
                for keyword in node.keywords:
                    if keyword.arg == "predicate":
                        predicate = keyword.value
                if predicate is None and len(node.args) > 3:
                    predicate = node.args[3]
            if isinstance(predicate, ast.Lambda):
                checker.check(predicate, f"<lambda:{predicate.lineno}>")
            elif isinstance(predicate, ast.Name):
                for fn in functions.get(predicate.id, []):
                    checker.check(fn, predicate.id)


# ---------------------------------------------------------------------------
# Rule: plain-data state values (PD001)
# ---------------------------------------------------------------------------

#: Every checkpoint has to deep-copy one, and as a declared default it is
#: a single object shared by every call built from the definition.
_MUTABLE = "a mutable container"


def _non_plain_reason(node: ast.AST) -> Optional[str]:
    """Why a value expression is mutable, or leaves the copy_state
    plain-data domain."""
    if isinstance(node, ast.Lambda):
        return "a callable (lambda)"
    if isinstance(node, ast.GeneratorExp):
        return "a generator expression"
    if isinstance(node, (ast.Await, ast.Yield, ast.YieldFrom)):
        return "a lazy/async value"
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return _MUTABLE
    if isinstance(node, ast.Tuple):
        for element in node.elts:
            reason = _non_plain_reason(element)
            if reason:
                return reason
        return None
    if isinstance(node, ast.IfExp):
        return (_non_plain_reason(node.body)
                or _non_plain_reason(node.orelse))
    if isinstance(node, ast.Starred):
        return _non_plain_reason(node.value)
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name):
            name = node.func.id
            if name == "open":
                return "a file handle"
            if name == "iter":
                return "an iterator"
            if name in _MUTABLE_CALLS:
                return f"{_MUTABLE} ({name}())"
            if name in _PLAIN_CALLS or not name[:1].isupper():
                return None
            return f"an instance of {name}"
        return None       # method calls / attribute constructors: unknown
    return None           # constants, names, subscripts, arithmetic, ...


def _check_plain_state(tree: SourceTree, out: _Collector) -> None:
    for rel, module in tree.modules():
        # Anchor findings to the innermost enclosing function for context.
        owner: Dict[int, str] = {}
        for qualname, fn in _functions_by_qualname(module).items():
            for node in ast.walk(fn):
                owner[id(node)] = qualname
        for node in ast.walk(module):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("declare", "declare_global")):
                continue
            for keyword in node.keywords:
                reason = (_non_plain_reason(keyword.value)
                          if keyword.arg is not None else None)
                if reason:
                    out.add(
                        "PD001",
                        f"state variable {keyword.arg!r} defaults to "
                        f"{reason}; copy_state cannot share it with, or "
                        f"round-trip it through, a checkpoint",
                        path=rel, line=keyword.value.lineno,
                        scope=owner.get(id(node), "<module>"),
                        subject=keyword.arg,
                        hint="keep state immutable plain data (numbers, "
                             "strings, tuples rebuilt on write); derive "
                             "richer values on read")


# ---------------------------------------------------------------------------
# Rule: shard-state isolation (SI001)
# ---------------------------------------------------------------------------

def _scoped_nodes(node: ast.AST, prefix: str = ""
                  ) -> Iterator[Tuple[str, ast.AST]]:
    """Depth-first walk yielding each node with the dotted class/function
    qualname it sits in."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            name = f"{prefix}.{child.name}" if prefix else child.name
            yield name, child
            yield from _scoped_nodes(child, name)
        else:
            yield prefix, child
            yield from _scoped_nodes(child, prefix)


def _check_shard_isolation(tree: SourceTree, out: _Collector) -> None:
    for rel, module in tree.modules():
        for scope, node in _scoped_nodes(module):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if not (isinstance(target, ast.Attribute)
                        and target.attr in SHARED_STATE_ATTRS):
                    continue
                if (rel, scope) in SHARED_STATE_SITES:
                    continue
                out.add(
                    "SI001",
                    f"{scope or '<module>'} rebinds shared attribute "
                    f"{target.attr!r}: outside the constructors that wire "
                    f"it a rebind splits the cross-shard aggregate view",
                    path=rel, line=target.lineno, scope=scope or "<module>",
                    subject=target.attr,
                    hint="mutate the shared object in place "
                         "(codecheck.SHARED_STATE_SITES lists the "
                         "constructors)")


# ---------------------------------------------------------------------------
# Driver + baseline
# ---------------------------------------------------------------------------

def analyze(root: Optional[Path] = None,
            overrides: Optional[Mapping[str, str]] = None,
            specs: Sequence[CheckpointSpec] = CHECKPOINT_SPECS,
            check_guards: bool = True,
            check_plain_state: bool = True,
            check_isolation: bool = True) -> List[Diagnostic]:
    """Run every codecheck rule over the tree; returns structured findings.

    ``root`` defaults to the installed ``repro`` package source; tests
    pass a fixture directory and/or ``overrides`` with patched sources.
    """
    tree = SourceTree(root, overrides)
    out = _Collector(tree)
    for spec in specs:
        _check_checkpoint_spec(tree, spec, out)
    if check_guards:
        _check_guards(tree, out)
    if check_plain_state:
        _check_plain_state(tree, out)
    if check_isolation:
        _check_shard_isolation(tree, out)
    out.diagnostics.sort(key=lambda d: (d.machine or "",
                                        d.data.get("line", 0),
                                        d.data.get("code", "")))
    return out.diagnostics


def load_baseline(path: Path) -> Dict[str, str]:
    """Committed fingerprint -> note mapping (missing file = empty)."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    findings = raw.get("findings", raw) if isinstance(raw, dict) else raw
    if isinstance(findings, list):
        return {str(item): "" for item in findings}
    if isinstance(findings, dict):
        return {str(k): str(v) for k, v in findings.items()}
    return {}


def write_baseline(path: Path, diagnostics: Iterable[Diagnostic]) -> None:
    findings = {fingerprint(d): d.message for d in diagnostics
                if fingerprint(d)}
    payload = {
        "comment": "codelint baseline: accepted findings by fingerprint "
                   "(docs/CODECHECK.md); regenerate with "
                   "`python -m repro.cli codelint --write-baseline`",
        "findings": dict(sorted(findings.items())),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n", encoding="utf-8")


def partition_findings(diagnostics: Sequence[Diagnostic],
                       baseline: Mapping[str, str]
                       ) -> Tuple[List[Diagnostic], List[Diagnostic],
                                  List[str]]:
    """Split findings into (new, baselined); also return stale baseline
    fingerprints that no longer fire (candidates for cleanup)."""
    new: List[Diagnostic] = []
    accepted: List[Diagnostic] = []
    seen: Set[str] = set()
    for diagnostic in diagnostics:
        print_ = fingerprint(diagnostic)
        seen.add(print_)
        (accepted if print_ in baseline else new).append(diagnostic)
    stale = sorted(set(baseline) - seen)
    return new, accepted, stale
