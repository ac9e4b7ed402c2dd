"""The guard algebra: its compiler against the tree interpreter, and its
disjointness decision against brute force.

Random expressions over a small vocabulary (two event fields, a counter
and a container variable; integer and string constants) are evaluated on
random ``(x, v)`` — missing fields, wrong types and unhashable values
included — by the function ``Guard.compiled()`` generates and by the
test-side interpreter of ``tests/efsm/oracle.py``; they must agree, and
neither may raise.  ``guards.decide`` is then held to brute force: if any
valuation of a small domain enables two guards of a group, the decision
may not be ``disjoint`` — and a helper-free group whose orderings are
against numbers is never ``undecided``.
"""

import itertools
import operator

import pytest
from hypothesis import given, settings, strategies as st

from repro.efsm import Efsm, Event
from repro.efsm.guards import (DISJOINT, NOW, OVERLAP, UNDECIDED, decide,
                               helper, truthy, v, x)
from repro.efsm.machine import EfsmInstance

from ..efsm.oracle import interpret

ABSENT = object()

FIELD_A, FIELD_B = x("a", 0), x("b")            # one default, one MISSING
COUNTER, MEMBERS = v("n", 0), v("members", ())
SCALARS = (FIELD_A, FIELD_B, COUNTER)

numbers = st.sampled_from([-1, 0, 1, 2, 3])
words = st.sampled_from(["p", "q", ""])
scalar_terms = st.sampled_from(SCALARS)
orderings = st.sampled_from([operator.lt, operator.le, operator.gt,
                             operator.ge])
equalities = st.sampled_from([operator.eq, operator.ne])


def compare(op, left, right):
    return op(left, right)      # the Term operators build the atom


atoms = st.one_of(
    st.builds(compare, orderings, scalar_terms, numbers),
    st.builds(compare, equalities, scalar_terms, st.one_of(numbers, words)),
    st.builds(compare, st.one_of(orderings, equalities), scalar_terms,
              scalar_terms),
    st.builds(lambda term, items: term.in_(items), scalar_terms,
              st.one_of(st.frozensets(st.one_of(numbers, words), max_size=3),
                        st.lists(numbers, max_size=3))),
    st.builds(lambda term: term.in_(MEMBERS), scalar_terms),
    st.builds(truthy, st.sampled_from(SCALARS + (MEMBERS,))),
)

guards = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.builds(lambda a, b: a & b, inner, inner),
        st.builds(lambda a, b: a | b, inner, inner),
        st.builds(lambda a: ~a, inner)),
    max_leaves=6)

#: What a field or variable may hold: absent, the well-typed values the
#: constants can tell apart, and values of the wrong type.
scalar_values = st.sampled_from(
    [ABSENT, -1, 0, 1, 2, 3, 4, 1.5, True, "p", "q", "", None, [], [1],
     ("p",)])
member_values = st.sampled_from(
    [ABSENT, (), ("p",), (1, 2), frozenset({"q", 3}), [0], 7, None])


_MACHINE = Efsm("m", "s0")


def context(a, b, n, members):
    """The ``(instance, event)`` a guard reads, with the given ``x`` and
    ``v`` (absent = unset)."""
    instance = EfsmInstance(_MACHINE)
    instance.variables.local.update(
        (name, value) for name, value in (("n", n), ("members", members))
        if value is not ABSENT)
    event = Event("e", {name: value for name, value in (("a", a), ("b", b))
                        if value is not ABSENT})
    return instance, event


@given(guards, scalar_values, scalar_values, scalar_values, member_values)
@settings(max_examples=400, deadline=None)
def test_compiled_guard_equals_the_tree_interpreter(guard, a, b, n, members):
    firing = context(a, b, n, members)
    assert bool(guard.compiled()(*firing)) == interpret(guard, *firing), \
        guard.describe()


def test_a_raising_atom_disables_the_whole_guard():
    """``TypeError`` is caught once, around the guard — so ``not`` of an
    atom that cannot be evaluated is *not* enabled either."""
    firing = context("2", ABSENT, 0, ())
    for guard in (FIELD_A > 1, ~(FIELD_A > 1), (FIELD_A > 1) | (COUNTER == 0)):
        assert guard.compiled()(*firing) is False
        assert interpret(guard, *firing) is False
    # Short-circuit first: an atom never reached cannot disable the guard.
    reached = (COUNTER == 0) | (FIELD_A > 1)
    assert reached.compiled()(*firing) and interpret(reached, *firing)
    # A bool is a number to every atom: it is ordered, it raises nothing.
    firing = context(True, ABSENT, 0, ())
    assert (FIELD_A >= 0).compiled()(*firing)
    assert interpret(FIELD_A >= 0, *firing)


def test_a_helpers_own_type_error_is_not_swallowed():
    """The net is around the comparisons only: a bug inside a helper must
    surface (containment counts it), not read as "not enabled" — and since
    every term is read before anything is compared, it surfaces whether or
    not a connective would have short-circuited past the leaf."""
    def broken(value):
        return len(None)                     # TypeError, inside the helper

    firing = context(0, ABSENT, 0, ())
    for guard in (helper(broken, FIELD_A) == 1, truthy(helper(broken, NOW)),
                  (COUNTER == 0) | (helper(broken, COUNTER) == 1)):
        with pytest.raises(TypeError, match="NoneType"):
            guard.compiled()(*firing)
        with pytest.raises(TypeError, match="NoneType"):
            interpret(guard, *firing)
    # ... and so out of deliver.
    machine = Efsm("m", "s0")
    machine.add_transition("s0", "e", "s0",
                           predicate=truthy(helper(broken, FIELD_A)))
    with pytest.raises(TypeError, match="NoneType"):
        EfsmInstance(machine).deliver(Event("e"))


#: Brute-force domain: the constants of the vocabulary (-1..3, "p", "q",
#: ""), values between and beyond them and the two bools, per scalar;
#: three containers.
_DOMAIN = (ABSENT, -2, -1, 0, 0.5, 1, 2, 2.5, 3, 4, True, False,
           "p", "q", "", "z")
_CONTAINERS = ((), ("p", 1), (0, "z", 2.5))

#: Random groups nearly always overlap, which brute force confirms at once;
#: the second shape is disjoint by construction, so the whole domain is
#: scanned behind a ``disjoint`` answer.
groups = st.one_of(
    st.lists(guards, min_size=2, max_size=3),
    st.builds(lambda g, h: [g & h, ~g, g & ~h], guards, guards))


def brute_force_overlap(group):
    for a, b, n in itertools.product(_DOMAIN, repeat=3):
        for members in _CONTAINERS:
            firing = context(a, b, n, members)
            if sum(interpret(guard, *firing) for guard in group) > 1:
                return {"a": a, "b": b, "n": n, "members": members}
    return None


@given(groups)
@settings(max_examples=60, deadline=None)
def test_decide_is_sound_against_brute_force(group):
    decision = decide(group)
    assert decision.status != UNDECIDED, decision.reason
    witness = brute_force_overlap(group)
    if witness is not None:
        assert decision.status == OVERLAP, (
            [guard.describe() for guard in group], witness)
    if decision.status == OVERLAP:
        assert len(decision.enabled) > 1 and decision.witness


def test_decide_on_the_shapes_the_shipped_machines_use():
    status, method = x("status", 0), x("cseq_method", "") == "INVITE"
    ok = (status >= 200) & (status < 300) & method
    failed = (status >= 300) & method
    assert decide([ok, failed]).status == DISJOINT
    assert decide([ok, failed, ~ok & ~failed]).status == DISJOINT
    assert decide([ok, None]).status == OVERLAP          # unguarded sibling
    assert decide([None, None]) == (OVERLAP, (0, 1), {}, "")
    seen = x("branch", "").in_(v("seen", ()))
    room = v("count", 0) <= 4
    assert decide([seen | room, ~seen & ~room]).status == DISJOINT
    assert decide([seen | room, ~seen]).status == OVERLAP

    def verdict():
        return 0

    def twin():
        def verdict():
            return 1
        return verdict

    packet = helper(verdict)
    assert decide([packet == 0, packet == 1, packet == 2]).status == DISJOINT
    assert decide([packet != 1, packet == 1]).status == DISJOINT
    assert decide([packet != 1, packet == 2]).status == OVERLAP
    # A helper is one variable only as one function, whatever its name.
    other = helper(twin())
    assert other.name == packet.name == "verdict"
    assert decide([packet == 0, other == 1]).status == OVERLAP
    # An ordering against a string, or a substring test, cannot be decided.
    word = x("s", "")
    assert decide([word < "m", word >= "m"]).status == UNDECIDED
    assert decide([word.in_("abc"), word == "ab"]).status == UNDECIDED
