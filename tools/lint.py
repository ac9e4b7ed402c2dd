#!/usr/bin/env python3
"""Repo-wide static-analysis gate (``make lint``).

Runs ruff and mypy with the configuration in ``pyproject.toml`` when they
are installed (CI installs them).  When they are missing the script
degrades to a built-in fallback instead of skipping the gate entirely:

- ``compile`` of every Python file's syntax tree (syntax; no bytecode is
  written);
- a conservative AST pass approximating the ruff rules the repo relies on:
  F401 (unused module-level import), F841 (unused local binding), E711
  (``== None`` comparison), E722 (bare ``except``), E731 (lambda
  assignment), and B006 (mutable default argument).  ``# noqa`` comments
  are honored per line, with or without rule codes (:func:`noqa_lines`).

Exit status is non-zero when any check reports findings, so the Makefile
target gates the same way in both environments.
"""

from __future__ import annotations

import ast
import re
import shutil
import subprocess
from pathlib import Path
from typing import Dict, List, Mapping, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIRS = ("src", "tests", "tools", "examples", "benchmarks")


def python_files() -> List[Path]:
    files: List[Path] = []
    for directory in SOURCE_DIRS:
        root = REPO_ROOT / directory
        if root.is_dir():
            files.extend(sorted(root.rglob("*.py")))
    files.extend(sorted(REPO_ROOT.glob("*.py")))
    return [path for path in files if "__pycache__" not in path.parts]


def run_tool(command: List[str]) -> int:
    print(f"$ {' '.join(command)}", flush=True)
    return subprocess.call(command, cwd=REPO_ROOT)


_NOQA_CODE = re.compile(r"[A-Z]+[0-9]+")


def noqa_lines(source: str) -> Dict[int, Set[str]]:
    """Line number -> silenced rule codes ('*' = all): ``# noqa`` silences
    every rule on its line, ``# noqa: E731, F401 - prose`` the codes it
    names."""
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


#: Call targets whose result is a fresh mutable container (B006).
_MUTABLE_FACTORIES = {
    "dict", "list", "set", "defaultdict", "deque", "Counter", "OrderedDict",
}


class _FallbackChecker(ast.NodeVisitor):
    """Single-file AST pass for the F401/F841/E711/E722/E731/B006
    approximations."""

    def __init__(self, path: Path, tree: ast.Module, source: str):
        self.path = path
        self.tree = tree
        self.silenced = noqa_lines(source)
        self.findings: List[str] = []
        self.used_names: Set[str] = set()
        self.exported: Set[str] = set()

    def report(self, node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        if is_silenced(self.silenced, line, code):
            return
        relative = self.path.relative_to(REPO_ROOT)
        self.findings.append(f"{relative}:{line}: {code} {message}")

    # -- usage collection --------------------------------------------------

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.used_names.add(node.id)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.generic_visit(node)

    # -- rule checks -------------------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(node, "E722", "do not use bare 'except'")
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if isinstance(node.value, ast.Lambda) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            self.report(node, "E731",
                        "do not assign a lambda expression, use a def")
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_mutable_defaults(node)
        self._check_unused_locals(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_mutable_defaults(node)
        self._check_unused_locals(node)
        self.generic_visit(node)

    def _check_mutable_defaults(self, node: ast.AST) -> None:
        # B006: a mutable default is evaluated once and shared by every
        # call — the classic aliasing trap.
        for default in [*node.args.defaults, *node.args.kw_defaults]:
            if default is None:
                continue
            mutable = isinstance(default, (ast.Dict, ast.List, ast.Set,
                                           ast.DictComp, ast.ListComp,
                                           ast.SetComp))
            if isinstance(default, ast.Call) and \
                    isinstance(default.func, ast.Name) and \
                    default.func.id in _MUTABLE_FACTORIES:
                mutable = True
            if mutable:
                self.report(default, "B006",
                            "do not use mutable data structures for "
                            "argument defaults")

    def _check_unused_locals(self, node: ast.AST) -> None:
        # F841 (conservative): a simple name bound by a plain assignment
        # and never loaded anywhere in the function.  Tuple unpacking,
        # augmented assignment, and underscore names are skipped; any use
        # of locals()/eval/exec bails out entirely.
        loaded: Set[str] = set()
        escape_hatch = False
        nonlocal_names: Set[str] = set()
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and \
                    isinstance(child.ctx, ast.Load):
                loaded.add(child.id)
                if child.id in ("locals", "eval", "exec", "vars"):
                    escape_hatch = True
            elif isinstance(child, (ast.Global, ast.Nonlocal)):
                nonlocal_names.update(child.names)
        if escape_hatch:
            return

        def own_scope(root: ast.AST):
            # Assignments are scanned in this function's scope only:
            # nested defs get their own visit (and closures may bind
            # names the outer scope never loads).
            for child in ast.iter_child_nodes(root):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.Lambda, ast.ClassDef)):
                    continue
                yield child
                yield from own_scope(child)

        for child in own_scope(node):
            if not isinstance(child, ast.Assign):
                continue
            for target in child.targets:
                if not isinstance(target, ast.Name):
                    continue
                name = target.id
                if name.startswith("_") or name in loaded or \
                        name in nonlocal_names:
                    continue
                self.report(target, "F841",
                            f"local variable '{name}' is assigned to "
                            f"but never used")

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, operand in zip(node.ops, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)) and \
                    isinstance(operand, ast.Constant) and \
                    operand.value is None:
                self.report(node, "E711",
                            "comparison to None should be 'is None' / "
                            "'is not None'")
        self.generic_visit(node)

    # -- unused imports ----------------------------------------------------

    def collect_exports(self) -> None:
        for node in self.tree.body:
            if isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets
                           if isinstance(t, ast.Name)]
                if "__all__" in targets and isinstance(
                        node.value, (ast.List, ast.Tuple)):
                    for element in node.value.elts:
                        if isinstance(element, ast.Constant) and \
                                isinstance(element.value, str):
                            self.exported.add(element.value)

    def check_unused_imports(self) -> None:
        if self.path.name == "__init__.py":
            return          # packages re-export; covered by __all__ anyway
        for node in self.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    self._check_import_binding(node, alias, bound)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self._check_import_binding(node, alias, bound)

    def _check_import_binding(self, node: ast.stmt, alias: ast.alias,
                              bound: str) -> None:
        if bound.startswith("_"):
            return
        if bound in self.used_names or bound in self.exported:
            return
        self.report(node, "F401", f"'{alias.name}' imported but unused")

    def run(self) -> List[str]:
        self.collect_exports()
        self.visit(self.tree)
        self.check_unused_imports()
        return self.findings


def fallback_check(files: List[Path]) -> int:
    findings: List[str] = []
    parsed: List[Tuple[Path, ast.Module, str]] = []
    for path in files:
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            findings.append(f"{path}: unreadable: {exc}")
            continue
        try:
            tree = ast.parse(source, filename=str(path))
            compile(tree, str(path), "exec")
            parsed.append((path, tree, source))
        except SyntaxError as exc:
            findings.append(f"{path}: syntax error: {exc}")
    for finding in findings:
        print(finding)
    for path, tree, source in parsed:
        for finding in _FallbackChecker(path, tree, source).run():
            print(finding)
            findings.append(finding)
    print(f"fallback lint: {len(findings)} finding(s) in "
          f"{len(files)} file(s)")
    return 1 if findings else 0


def main() -> int:
    status = 0
    ran_external = False
    if shutil.which("ruff"):
        ran_external = True
        status |= run_tool(["ruff", "check", "."])
    if shutil.which("mypy"):
        ran_external = True
        status |= run_tool(["mypy", "--config-file", "pyproject.toml"])
    if not ran_external:
        print("ruff/mypy not installed; running built-in fallback checks "
              "(CI runs the real tools)")
        status = fallback_check(python_files())
    return status


if __name__ == "__main__":
    raise SystemExit(main())
