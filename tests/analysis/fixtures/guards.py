"""Seeded guard-purity violations (codecheck test fixture; AST only)."""

from repro.efsm.guards import helper, truthy, v
from repro.efsm.machine import Efsm


def writes_state(ctx):
    ctx.v["count"] = 1           # GP001: guard mutates the state vector
    return True


def mutates_list(ctx):
    ctx.v["seen"].append(1)      # GP002: mutating method call
    return True


def _poke(ctx):
    ctx.v["count"] = 9           # GP001, reached transitively
    return True


def transitive_writer(ctx):
    return _poke(ctx)            # impurity reached through a callee


def uses_scratch(ctx):
    memo = ctx.scratch
    if memo is None:
        memo = ctx.scratch = {}  # GP001: there is no sanctioned memo slot
    memo["ok"] = True            # GP001: a write like any other
    return memo["ok"]


def leaf_writer(counts):
    counts["last"] = 2           # GP001: a helper's body is still code
    return 1


def pure_leaf(count):
    return count + 1             # reads only: clean


def suppressed(ctx):
    ctx.v["count"] = 3  # noqa: GP001 - seeded suppression-test line
    return True


def build(machine: Efsm) -> Efsm:
    machine.add_transition("s0", "e1", "s0", predicate=writes_state)
    machine.add_transition("s0", "e2", "s0", predicate=mutates_list)
    machine.add_transition("s0", "e4", "s0", transitive_writer)
    machine.add_transition("s0", "e5", "s0", predicate=uses_scratch)
    machine.add_transition("s0", "e6", "s0",
                           predicate=helper(leaf_writer, v("counts")) == 1)
    machine.add_transition("s0", "e9", "s0",
                           predicate=truthy(helper(pure_leaf, v("count"))))
    machine.add_transition("s0", "e7", "s0", predicate=suppressed)
    machine.add_transition("s0", "e8", "s0",
                           predicate=lambda ctx: ctx.v.pop("x"))  # GP002
    return machine
