"""Tests for the offline AST fallback rules in tools/lint.py.

The container has no ruff/mypy, so the fallback IS the lint gate here;
these tests pin the semantics of the home-grown rules (and their noqa
handling) so the gate can be trusted.
"""

import ast

from tests import REPO_ROOT, load_module

lint_tool = load_module("tools/lint.py")


def run_checker(source: str, filename: str = "sample.py"):
    path = REPO_ROOT / filename      # relative_to(REPO_ROOT) must work
    tree = ast.parse(source)
    checker = lint_tool._FallbackChecker(path, tree, source)
    return checker.run()


def codes_of(findings):
    return [line.split(": ", 1)[1].split(" ", 1)[0] for line in findings]


def test_f841_flags_unused_local():
    findings = run_checker(
        "def f():\n"
        "    unused = compute()\n"
        "    kept = compute()\n"
        "    return kept\n"
        "def compute():\n"
        "    return 1\n")
    assert codes_of(findings) == ["F841"]
    assert "'unused'" in findings[0]


def test_f841_skips_underscore_tuple_and_closure_reads():
    findings = run_checker(
        "def f(items):\n"
        "    _scratch = 1\n"                 # underscore: skipped
        "    a, b = items\n"                 # tuple target: skipped
        "    closed = 2\n"                   # read by the closure below
        "    def inner():\n"
        "        return closed\n"
        "    return inner, a, b\n")
    assert findings == []


def test_f841_nested_function_reported_once():
    findings = run_checker(
        "def outer():\n"
        "    def inner():\n"
        "        dead = 1\n"
        "        return 2\n"
        "    return inner\n")
    assert codes_of(findings) == ["F841"]


def test_f841_bails_on_locals_escape_hatch():
    findings = run_checker(
        "def f():\n"
        "    maybe_used = 1\n"
        "    return locals()\n")
    assert findings == []


def test_f841_honors_noqa():
    findings = run_checker(
        "def f():\n"
        "    unused = 1  # noqa: F841\n"
        "    return 2\n")
    assert findings == []


def test_b006_flags_mutable_defaults():
    findings = run_checker(
        "def f(a, b=[], c={}, d=set(), e=dict(), g=(), h=None):\n"
        "    return (a, b, c, d, e, g, h)\n")
    assert codes_of(findings) == ["B006"] * 4


def test_b006_flags_keyword_only_and_factories():
    findings = run_checker(
        "from collections import defaultdict\n"
        "def f(*, cache=defaultdict(list)):\n"
        "    return cache\n")
    assert codes_of(findings) == ["B006"]


def test_b006_honors_noqa():
    findings = run_checker(
        "def f(cache={}):  # noqa: B006\n"
        "    return cache\n")
    assert findings == []


def test_shipped_tree_passes_fallback_rules():
    # The full fallback pass over the repo's own files must stay clean —
    # the same gate `make lint` applies offline — and so must the shape
    # rules it applies with or without ruff.
    assert lint_tool.fallback_check(lint_tool.python_files()) == 0
    assert lint_tool.shape_check(lint_tool.python_files()) == 0


def test_syntax_pass_writes_no_bytecode(tmp_path):
    clean, broken = tmp_path / "clean.py", tmp_path / "broken.py"
    clean.write_text("VALUE = 1\n")
    broken.write_text("return VALUE\n")     # parses; only compile refuses
    assert lint_tool.fallback_check([clean]) == 0
    assert lint_tool.fallback_check([broken]) == 1
    assert not list(tmp_path.rglob("__pycache__"))
