"""The reference semantics, test side: tree interpreters for guards and
statements, and a dispatch that shadows every delivery.

``src/`` has one dispatch (the compiled tables of ``EfsmInstance.step``,
first enabled guard fires) and one way to run a guard or a transition's
statements (the functions ``Guard.compiled`` and ``compile_firing``
generate).  This module is what they are checked against.
:func:`interpret` walks a guard expression node by node and
:func:`execute` a statement list — they share no code with the compiler or
with the abstract evaluation inside ``guards.decide`` — and
:func:`shadow_dispatch` wraps ``step`` so that, before the real firing
runs, every candidate of the (state, event, channel) group is interpreted:
two enabled candidates raise :class:`NondeterminismError` (Definition 1),
and afterwards the transition the real ``step`` fired must be the one
the interpreter enabled; a firing the interpreter deems quiet (no
deviation, attack or entry into a final state) is then handed back as
quiet.  Both failures are raised again when the block ends, because a
pipeline under test contains exceptions out of ``step`` (layer-1
containment).
"""

import operator
from contextlib import contextmanager

from repro.efsm.errors import NondeterminismError
from repro.efsm.events import Event
from repro.efsm.machine import EfsmInstance

_COMPARE = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def now(instance, event):
    """The event's time; the instance's clock when the event has none."""
    return event.time if event.time is not None else instance.clock_now()


def evaluate(term, instance, event):
    """A term's value: a helper is called with its arguments' values."""
    if term.kind == "const":
        return term.value
    if term.kind == "now":
        return now(instance, event)
    if term.kind == "helper":
        return term.value(*(evaluate(arg, instance, event)
                            for arg in term.args))
    vector = event.args if term.kind == "x" else instance.variables
    return vector.get(term.name, term.value)


def _value(term, instance, event, called):
    if term.kind == "helper":
        return called[term.key]
    return evaluate(term, instance, event)


def _walk(guard, instance, event, called):
    op, args = guard.op, guard.args
    if op == "and":
        return all(_walk(part, instance, event, called) for part in args)
    if op == "or":
        return any(_walk(part, instance, event, called) for part in args)
    if op == "not":
        return not _walk(args[0], instance, event, called)
    values = [_value(term, instance, event, called) for term in args]
    if op == "truthy":
        return bool(values[0])
    if op == "in":
        return values[0] in values[1]
    return bool(_COMPARE[op](*values))


def interpret(guard, instance, event):
    """Does ``guard`` hold for ``event`` delivered to ``instance``?  Every
    helper is called first — its own exceptions are bugs and propagate —
    then a ``TypeError`` out of a comparison means not enabled
    (docs/STATE_MACHINES.md)."""
    called = {term.key: evaluate(term, instance, event)
              for term in guard.terms() if term.kind == "helper"}
    try:
        return _walk(guard, instance, event, called)
    except TypeError:
        return False


def execute(statements, instance, event):
    """Run ``statements`` in order, each one reading the writes before it;
    a block runs when :func:`interpret` says its guard holds."""
    for statement in statements:
        op, args = statement.op, statement.args
        if op == "write":
            instance.variables[args[0]] = evaluate(args[1], instance, event)
        elif op == "when":
            if interpret(args[0], instance, event):
                execute(args[1], instance, event)
        elif op == "start":
            instance.start_timer(
                args[0], evaluate(args[1], instance, event),
                {name: evaluate(term, instance, event)
                 for name, term in args[2]} or None)
        elif op == "cancel":
            instance.cancel_timer(args[0])


def outputs_of(outputs, instance, event):
    """The events ``outputs`` send, read after the statements ran."""
    return [Event(output.event_name,
                  event.args if output.args is None else
                  {name: evaluate(term, instance, event)
                   for name, term in output.args.items()},
                  channel=output.channel, time=now(instance, event))
            for output in outputs]


@contextmanager
def shadow_dispatch(firings=None):
    """Check every firing against the interpreter while the block runs.

    ``firings`` (a list) collects one :func:`firing_record` per firing,
    quiet ones included.
    Yields a one-element list holding the number of firings shadowed.
    """
    original = EfsmInstance.step
    shadowed = [0]
    failures = []

    def step(self, event, quiet):
        enabled = [
            candidate for candidate
            in self.definition.transitions_from(self.state, event.name)
            if candidate.channel == event.channel
            and (candidate.predicate is None
                 or interpret(candidate.predicate, self, event))]
        if len(enabled) > 1:
            failures.append(NondeterminismError(
                f"{self.name}: state {self.state!r} event {event.name!r} "
                f"enables {[t.describe() for t in enabled]}"))
            raise failures[-1]
        result, outputs = original(self, event, None)
        if result.transition is not (enabled[0] if enabled else None):
            fired = result.transition and result.transition.describe()
            failures.append(AssertionError(
                f"{self.name}: step fired {fired!r} from "
                f"{result.from_state!r} on {event.name!r}; the interpreter "
                f"enabled {[t.describe() for t in enabled]}"))
            raise failures[-1]
        shadowed[0] += 1
        if firings is not None:
            firings.append(firing_record(result))
        if quiet is not None and not (
                result.deviation or result.attack
                or (result.to_state != result.from_state and result.to_state
                    in self.definition.final_states)):
            quiet()
            return None, outputs
        return result, outputs

    EfsmInstance.step = step
    try:
        yield shadowed
    finally:
        EfsmInstance.step = original
    if failures:
        raise failures[0]


def firing_record(result):
    transition = result.transition
    return (result.machine, result.event.name, result.from_state,
            result.to_state,
            transition.label if transition is not None else None,
            result.deviation, result.attack,
            tuple(output.name for output in result.outputs))
