"""Structural pins: the supervision tier keeps one of each mechanism.

One site that builds a shard, one owner of the stray-dedup table, a
supervisor that reaches into no member's private state, and no third-party
runtime import.  These read the source (in the style of
tests/efsm/test_structure.py) so a second copy cannot come back unnoticed.
"""

import ast
import re

from ..efsm.test_structure import SRC, _sources


def test_a_shard_is_constructed_at_one_site():
    """``ShardedVids.build_shard`` serves construction and restart."""
    sites = []
    for rel in ("vids/sharding.py", "vids/cluster.py"):
        tree = ast.parse((SRC / rel).read_text("utf-8"))
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            sites += [(rel, function.name) for node in ast.walk(function)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)
                      and node.func.id == "Vids"]
    assert sites == [("vids/sharding.py", "build_shard")]


def test_the_stray_dedup_table_is_assigned_at_one_site():
    """The holder creates it; engines are handed a way to ask it, and
    nobody re-points it from outside."""
    sites = []
    for rel, source in _sources():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                sites += [rel for target in targets
                          if isinstance(target, ast.Attribute)
                          and target.attr == "_stray_keys"]
    assert sites == ["vids/patterns/cross_call.py"]


def test_the_supervisor_names_no_private_state_of_a_member():
    source = (SRC / "vids/cluster.py").read_text("utf-8")
    for needle in ("._busy_until", "._shedding", "._shed_started",
                   "._malformed_windows", "._deviation_keys", "._stray_keys",
                   "._unsolicited_flagged", "alert_manager.alerts"):
        assert needle not in source, needle


def test_no_module_imports_networkx():
    importing = [rel for rel, source in _sources()
                 if re.search(r"^\s*(import|from)\s+networkx", source, re.M)]
    assert importing == []
