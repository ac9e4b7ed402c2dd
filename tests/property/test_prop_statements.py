"""Transition statements: the compiled firing against the tree interpreter.

Random statement lists — writes of event fields, variables, constants, the
event time and named helpers; ``when`` blocks under random guards, nested;
timer starts and cancels — and random output argument maps are run on
random ``(x, v)`` (missing fields, wrong types and unhashable values
included) by the function ``compile_firing`` generates and by the
test-side interpreter of ``tests/efsm/oracle.py``.  Both must leave the
same variables and timers and send the same outputs, or raise the same
exception.
"""

from hypothesis import given, settings, strategies as st

from repro.efsm import Efsm, Event, ManualClock
from repro.efsm.guards import (NOW, cancel, compile_firing, helper, start,
                               v, when, write, x)
from repro.efsm.machine import EfsmInstance, Output

from ..efsm.oracle import execute, outputs_of
from .test_prop_guards import ABSENT, guards, member_values, scalar_values


def plus(a, b):
    return a + b            # TypeError on unlike types: a helper's bug


def pair(a, b):
    return (a, b)


def number(value):
    return int(value)       # ValueError / TypeError on a wrong type


leaf_terms = st.sampled_from([
    x("a", 0), x("b"), v("n", 0), v("members", ()), v("g", "none"),
    v("fresh", None), NOW])
terms = st.recursive(leaf_terms, lambda inner: st.one_of(
    st.builds(lambda a, b: helper(plus, a, b), inner, inner),
    st.builds(lambda a, b: helper(pair, a, b), inner, inner),
    st.builds(lambda a: helper(number, a), inner)), max_leaves=4)
values = terms | st.sampled_from([0, 2, "p", ("q", 1), None])

simple = st.one_of(
    st.builds(write, st.sampled_from(["n", "members", "g", "fresh"]), values),
    st.builds(lambda name, delay, who: start(name, delay, who=who),
              st.sampled_from(["T", "U"]),
              st.sampled_from([0.5, 2, x("a", 0), v("n", 0)]), values),
    st.builds(cancel, st.sampled_from(["T", "U"])))
blocks = st.recursive(
    st.lists(simple, max_size=4),
    lambda inner: st.lists(simple | st.builds(
        lambda guard, body: when(guard, *body), guards, inner), max_size=4),
    max_leaves=10)
outputs = st.lists(st.one_of(
    st.just(Output("m->peer", "forward")),
    st.builds(lambda p, q: Output("m->peer", "built", {"p": p, "q": q}),
              values, values)), max_size=2)

_MACHINE = Efsm("m", "s0")
_MACHINE.declare(n=0, members=())
_MACHINE.declare_global(g="none")


def context(a, b, n, members, g):
    """The ``(instance, event)`` of a firing at time 1.5 with the given
    ``x`` and ``v`` (absent = unset), on a fresh clock that timers can be
    started on."""
    clock = ManualClock()
    instance = EfsmInstance(_MACHINE, clock_now=clock.now,
                            timer_scheduler=clock.schedule)
    for vector, name, value in ((instance.variables.local, "n", n),
                                (instance.variables.local, "members", members),
                                (instance.variables.globals, "g", g)):
        if value is ABSENT:
            del vector[name]
        else:
            vector[name] = value
    event = Event("e", {name: value for name, value in (("a", a), ("b", b))
                        if value is not ABSENT}, time=1.5)
    return instance, event


def outcome(run, instance, event):
    try:
        sent, error = run(instance, event), None
    except Exception as exc:        # both sides must raise the same type
        sent, error = [], type(exc)
    return (error, instance.variables.local, instance.variables.globals,
            instance._timer_meta,
            [(e.name, e.channel, e.args, e.time) for e in sent])


@given(blocks, outputs, scalar_values, scalar_values, scalar_values,
       member_values, scalar_values)
@settings(max_examples=400, deadline=None)
def test_compiled_statements_equal_the_interpreter(statements, sends, a, b,
                                                   n, members, g):
    fire = compile_firing(statements, [(o.channel, o.event_name, o.args)
                                       for o in sends])

    def interpreted(instance, event):
        execute(statements, instance, event)
        return outputs_of(sends, instance, event)

    assert outcome(fire, *context(a, b, n, members, g)) == outcome(
        interpreted, *context(a, b, n, members, g)), [
            statement.describe() for statement in statements]


def test_a_statement_reads_the_writes_before_it():
    """``on_answer`` is ``on_provisional`` then more: in-order semantics."""
    statements = [write("n", helper(plus, v("n", 0), 1)),
                  when(v("n", 0) == 2, write("members", ("two",))),
                  write("n", helper(plus, v("n", 0), 1))]
    for run in (compile_firing(statements, []),
                lambda instance, event: execute(statements, instance, event)):
        instance, event = context(ABSENT, ABSENT, 1, (), "none")
        run(instance, event)
        assert instance.variables["n"] == 3
        assert instance.variables["members"] == ("two",)
