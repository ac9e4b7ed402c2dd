"""Extended finite state machine: definition and execution.

Implements Definition 1 of the paper: an EFSM ``M = (Σ, S, v, D, T)`` whose
transitions are tuples ``<s_t, event, P_t, A_t, q_t>``.  A predicate ``P_t``
is an expression of the guard algebra (:mod:`repro.efsm.guards`) over the
event's input vector ``x`` and the current state-variable vector ``v``; an
action ``A_t`` is a sequence of statements of the same algebra that update
``v`` and start or cancel timers.  The output events ``c!event(x)`` a
transition sends onto synchronization channels are declared on it as
:class:`Output` specs whose arguments are terms, so static analysis sees
every write, timer and send.

Machines are *data*: an :class:`Efsm` is built declaratively (states,
variables with domains, transitions) and executed by :class:`EfsmInstance`,
so the vids protocol machines read like the paper's figures.  States or
transitions can be annotated as **attack** — reaching one is an attack-
scenario match — and an event with *no* enabled transition is recorded as a
**deviation** from the specification (the anomaly signal).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .errors import DefinitionError, NondeterminismError
from .events import TIMER_CHANNEL, Event
from .guards import (_ATOMIC, Decision, Guard, Statement, Term,
                     _immutable, _key, as_term, compile_firing, decide)

__all__ = [
    "Variables",
    "Transition",
    "Output",
    "Efsm",
    "EfsmInstance",
    "FiringResult",
]

#: Sentinel distinguishing "absent" from a stored None in Variables.get.
_MISSING = object()


def copy_state(value: Any) -> Any:
    """Deep copy of a state-variable value, over a closed domain.

    State-variable vectors hold protocol facts.  Atoms (strings, numbers,
    ``bytes``, ``None``, frozensets) and tuples of atoms are immutable and
    returned as themselves — the shipped machines keep every value
    immutable, so their checkpoint copies no value at all; plain
    ``dict``/``list``/``set`` are copied deep.  Anything else — a container
    subclass, a generator, a file handle, an arbitrary object — raises
    ``TypeError``: it cannot be shown to survive a checkpoint round-trip,
    and ``Efsm.declare`` and ``add_transition`` refuse such values.
    """
    cls = value.__class__
    if cls in _ATOMIC:
        return value
    if cls is dict:
        # A variable vector is mostly atoms: skip the call for those.
        return {key: item if item.__class__ in _ATOMIC else copy_state(item)
                for key, item in value.items()}
    if cls is tuple:
        # A tuple of atoms is immutable all the way down: share it.
        for item in value:
            if item.__class__ not in _ATOMIC:
                return tuple(copy_state(item) for item in value)
        return value
    if cls is list:
        return [copy_state(item) for item in value]
    if cls is set:
        return {copy_state(item) for item in value}
    raise TypeError(
        f"state value of type {cls.__name__} cannot be checkpointed: the "
        f"state-variable vector holds atoms, tuples, frozensets and plain "
        f"dict/list/set only"
    )


class Variables:
    """The state-variable vector ``v``: per-machine locals + shared globals.

    The paper distinguishes ``v.l_*`` (local to one protocol machine) from
    ``v.g_*`` (shared with co-operating machines).  Locals live in this
    object; globals live in a dict shared across all machines of one call.
    """

    __slots__ = ("local", "globals")

    def __init__(self, declarations: Mapping[str, Any],
                 shared_globals: Optional[Dict[str, Any]] = None):
        self.local: Dict[str, Any] = dict(declarations)
        self.globals: Dict[str, Any] = (
            shared_globals if shared_globals is not None else {}
        )

    def __getitem__(self, name: str) -> Any:
        if name in self.local:
            return self.local[name]
        return self.globals[name]

    def __setitem__(self, name: str, value: Any) -> None:
        if name in self.local:
            self.local[name] = value
        else:
            self.globals[name] = value

    def __contains__(self, name: str) -> bool:
        return name in self.local or name in self.globals

    def get(self, name: str, default: Any = None) -> Any:
        value = self.local.get(name, _MISSING)
        if value is not _MISSING:
            return value
        return self.globals.get(name, default)

    def snapshot(self) -> Dict[str, Any]:
        merged = dict(self.globals)
        merged.update(self.local)
        return merged


@dataclass(slots=True)
class Output:
    """An output event spec ``c!event(x)`` attached to a transition.

    ``args`` maps each argument to a term (or a constant), read after the
    transition's statements ran; ``None`` forwards the triggering event's
    args.
    """

    channel: str
    event_name: str
    args: Optional[Mapping[str, Term]] = None

    def __post_init__(self) -> None:
        if self.args is not None:
            self.args = {name: as_term(value)
                         for name, value in self.args.items()}


@dataclass(slots=True)
class Transition:
    """One element of the transition relation T: <s, event, P, A, q>."""

    source: str
    event_name: str
    target: str
    predicate: Optional[Guard] = None
    action: Tuple[Statement, ...] = ()
    outputs: List[Output] = field(default_factory=list)
    channel: Optional[str] = None   # None = data event; else sync/timer channel
    attack: bool = False            # annotated attack signature (s_attack)
    label: str = ""

    def describe(self) -> str:
        name = self.label or f"{self.source}--{self.event_name}-->{self.target}"
        return f"{'[ATTACK] ' if self.attack else ''}{name}"

    def statements(self) -> Iterator[Statement]:
        """Every statement of the action, block contents included."""
        for statement in self.action:
            yield from statement.walk()

    def terms(self) -> Iterator[Term]:
        """Every term the transition reads — guard, statements, output
        arguments — helper arguments included."""
        for term in itertools.chain(
                self.predicate.terms() if self.predicate is not None else (),
                *(statement.terms() for statement in self.statements()),
                *((output.args or {}).values() for output in self.outputs)):
            yield from term.walk()


@dataclass(slots=True)
class FiringResult:
    """Outcome of delivering one event to a machine instance."""

    machine: str
    event: Event
    transition: Optional[Transition]
    from_state: str
    to_state: str
    outputs: Sequence[Event] = ()
    time: float = 0.0

    @property
    def deviation(self) -> bool:
        """True when no transition was enabled — a specification deviation."""
        return self.transition is None

    @property
    def attack(self) -> bool:
        return self.transition is not None and self.transition.attack

    def describe(self) -> str:
        """One-line human summary used by the forensic timeline."""
        if self.transition is None:
            return (f"{self.machine}: {self.event.name} deviated in "
                    f"{self.from_state}")
        arrow = f"{self.from_state} -> {self.to_state}"
        tag = " [ATTACK]" if self.attack else ""
        return f"{self.machine}: {self.event.name} fired {arrow}{tag}"


class Efsm:
    """An EFSM definition: the quintuple (Σ, S, v, D, T)."""

    def __init__(self, name: str, initial_state: str):
        self.name = name
        self.initial_state = initial_state
        self.states: Dict[str, Dict[str, Any]] = {initial_state: {}}
        self.variables: Dict[str, Any] = {}         # name -> default (v, D)
        self.global_variables: Dict[str, Any] = {}  # declared shared defaults
        self.transitions: List[Transition] = []
        #: Set by :meth:`freeze`, which compiles the dispatch table shared
        #: by every instance: (state, event-name, channel) -> candidates.
        self.frozen = False
        self._compiled: Dict[
            Tuple[str, str, Optional[str]], Tuple[Any, ...]] = {}
        self.attack_states: set = set()
        self.final_states: set = set()
        #: Σ — event alphabet, accumulated from transitions.
        self.alphabet: set = set()
        #: Declared synchronization channels this machine may send or
        #: receive on.  The timer pseudo-channel is always implicitly
        #: available.
        self.channels: set = set()

    # -- construction ------------------------------------------------------

    def _building(self) -> None:
        if self.frozen:
            raise DefinitionError(f"{self.name}: the definition is frozen")

    def add_state(self, name: str, attack: bool = False,
                  final: bool = False) -> "Efsm":
        self._building()
        self.states.setdefault(name, {})
        if attack:
            self.attack_states.add(name)
        if final:
            self.final_states.add(name)
        return self

    def _plain(self, defaults: Dict[str, Any]) -> Dict[str, Any]:
        self._building()
        for name, value in defaults.items():
            if not _immutable(value):
                raise DefinitionError(
                    f"{self.name}: v.{name} defaults to {value!r}: a state "
                    f"value is immutable plain data, shared by every call "
                    f"and every checkpoint")
        return defaults

    def declare(self, **defaults: Any) -> "Efsm":
        """Declare local state variables with default values."""
        self.variables.update(self._plain(defaults))
        return self

    def declare_global(self, **defaults: Any) -> "Efsm":
        """Declare shared (cross-machine) variables with defaults."""
        self.global_variables.update(self._plain(defaults))
        return self

    def declare_channel(self, *names: str) -> "Efsm":
        """Declare the sync channels this machine's transitions may use.

        Speclint's ``undeclared-channel`` rule is an ERROR for a transition
        that receives or sends on a channel never declared: a typo'd
        channel name would otherwise send the δ to the environment, or wait
        for one nothing sends.
        """
        self._building()
        self.channels.update(names)
        return self

    def add_transition(
        self,
        source: str,
        event_name: str,
        target: str,
        predicate: Optional[Guard] = None,
        action: Union[Statement, Iterable[Statement], None] = None,
        outputs: Optional[Iterable[Output]] = None,
        channel: Optional[str] = None,
        attack: bool = False,
        label: str = "",
    ) -> Transition:
        self._building()
        for state in (source, target):
            if state not in self.states:
                raise DefinitionError(
                    f"{self.name}: unknown state {state!r} in transition")
        statements = ((action,) if isinstance(action, Statement)
                      or callable(action) else tuple(action or ()))
        wrong = [part for part in statements
                 if not isinstance(part, Statement)]
        if not (predicate is None or isinstance(predicate, Guard)):
            wrong.insert(0, predicate)
        if wrong:
            raise DefinitionError(
                f"{self.name}: {source}--{event_name}-->{target}: "
                f"{wrong[0]!r} is not data: a predicate is a Guard and an "
                f"action Statements, built with repro.efsm.guards")
        transition = Transition(
            source=source,
            event_name=event_name,
            target=target,
            predicate=predicate,
            action=statements,
            outputs=list(outputs or []),
            channel=channel,
            attack=attack or target in self.attack_states,
            label=label,
        )
        for statement in transition.statements():
            if (statement.op == "write" and statement.args[1].kind == "const"
                    and not _immutable(statement.args[1].value)):
                raise DefinitionError(
                    f"{self.name}: {transition.describe()}: "
                    f"{statement.describe()}: a state value is immutable "
                    f"plain data, shared by every checkpoint")
        self.transitions.append(transition)
        self.alphabet.add(event_name)
        return transition

    @property
    def key(self) -> Tuple[Any, ...]:
        """Structural identity: states, declarations, channels, and every
        transition with its guard, statements and outputs by their keys."""
        return _key((
            self.name, self.initial_state, frozenset(self.states),
            frozenset(self.final_states), frozenset(self.attack_states),
            tuple(sorted(self.variables.items())),
            tuple(sorted(self.global_variables.items())),
            frozenset(self.channels),
            tuple((t.source, t.event_name, t.target, t.channel, t.describe(),
                   t.predicate, t.action, tuple(
                       (o.channel, o.event_name, o.args and tuple(
                           o.args.items())) for o in t.outputs))
                  for t in self.transitions)))

    def transitions_from(self, state: str, event_name: str) -> List[Transition]:
        return [t for t in self.transitions
                if t.source == state and t.event_name == event_name]

    def freeze(self) -> "Efsm":
        """Seal the definition (the first :class:`EfsmInstance` does) and
        compile each (state, event, channel) group into its candidates in
        declaration order as ``(compiled guard or None, transition, firing
        or None, observable)`` entries.  The firing returns the δs the
        transition sends, ``()`` when it sends none.  ``observable`` marks
        a firing an analysis must see: an attack transition, or entry into
        a final state from another state (a deviation, which has no entry,
        always is).  Firing the first enabled candidate is sound because
        :meth:`decide_determinism` proves the predicates disjoint; two
        *unguarded* candidates raise :class:`NondeterminismError` here."""
        if self.frozen:
            return self
        groups = self._groups()
        for (state, event_name, _), group in groups.items():
            unguarded = sum(1 for t in group if t.predicate is None)
            if unguarded > 1:
                raise NondeterminismError(
                    f"{self.name}: state {state!r} event {event_name!r} "
                    f"enables {unguarded} transitions")
        final = self.final_states
        self._compiled = {key: tuple(
            (None if t.predicate is None else t.predicate.compiled(), t,
             compile_firing(t.action, [(o.channel, o.event_name, o.args)
                                       for o in t.outputs])
             if t.action or t.outputs else None,
             t.attack or (t.target in final and t.target != t.source))
            for t in group) for key, group in groups.items()}
        self.frozen = True
        return self

    # -- analysis ------------------------------------------------------------

    def _groups(self) -> Dict[Tuple[str, str, Optional[str]],
                              List[Transition]]:
        """The transitions by (state, event, channel), in declaration
        order."""
        groups: Dict[Tuple[str, str, Optional[str]], List[Transition]] = {}
        for t in self.transitions:
            groups.setdefault((t.source, t.event_name, t.channel),
                              []).append(t)
        return groups

    def decide_determinism(self) -> List[Tuple[List[Transition], Decision]]:
        """Definition 1, decided exactly: every (state, event, channel)
        group with more than one candidate, in declaration order, with
        :func:`~repro.efsm.guards.decide`'s verdict on its predicates."""
        return [(group, decide([t.predicate for t in group]))
                for group in self._groups().values() if len(group) > 1]


class EfsmInstance:
    """A running copy of an :class:`Efsm` (one per monitored call)."""

    #: Two instances per monitored call: ``__slots__`` removes the instance
    #: dict (one fewer GC-tracked object per instance, and full gen-2
    #: collections scan every live call's objects).
    __slots__ = (
        "definition", "state", "variables", "clock_now", "_timer_scheduler",
        "_timers", "_timer_meta", "on_timer_event",
    )

    def __init__(
        self,
        definition: Efsm,
        shared_globals: Optional[Dict[str, Any]] = None,
        clock_now: Callable[[], float] = lambda: 0.0,
        timer_scheduler: Optional[Callable[[float, Callable[[], None]], Any]] = None,
    ):
        definition.freeze()
        self.definition = definition
        self.state = definition.initial_state
        globals_dict = shared_globals if shared_globals is not None else {}
        for key, value in definition.global_variables.items():
            globals_dict.setdefault(key, value)
        self.variables = Variables(dict(definition.variables), globals_dict)
        self.clock_now = clock_now
        self._timer_scheduler = timer_scheduler
        #: Created on first :meth:`start_timer` — most instances (e.g. the
        #: per-call SIP machine on a short call) never arm a timer, and the
        #: two dict allocations per instance showed up in call setup.
        self._timers: Optional[Dict[str, Any]] = None
        #: name -> (absolute deadline, event args): the serializable view
        #: of the opaque scheduler handles, kept so :meth:`snapshot` can
        #: record live timers and :meth:`restore` can re-arm them.
        self._timer_meta: Optional[Dict[str, Tuple[float, Dict[str, Any]]]] = None
        #: Delivery hook for timer events when no system owns the instance.
        self.on_timer_event: Optional[Callable[[Event], None]] = None

    @property
    def name(self) -> str:
        return self.definition.name

    # -- timers --------------------------------------------------------------

    def start_timer(self, name: str, delay: float,
                    args: Optional[Mapping[str, Any]] = None) -> None:
        if self._timer_scheduler is None:
            raise RuntimeError(
                f"{self.name}: no timer scheduler attached; cannot start "
                f"timer {name!r}")
        if self._timers is None:
            self._timers = {}
            self._timer_meta = {}
        else:
            self.cancel_timer(name)
        event_args = dict(args or {})

        def fire() -> None:
            self._timers.pop(name, None)
            self._timer_meta.pop(name, None)
            event = Event(name, event_args, channel=TIMER_CHANNEL,
                          time=self.clock_now())
            if self.on_timer_event is not None:
                self.on_timer_event(event)
            else:
                self.deliver(event)

        self._timers[name] = self._timer_scheduler(delay, fire)
        self._timer_meta[name] = (self.clock_now() + delay, event_args)

    def cancel_timer(self, name: str) -> None:
        if self._timers is None:
            return
        handle = self._timers.pop(name, None)
        self._timer_meta.pop(name, None)
        if handle is not None and hasattr(handle, "cancel"):
            handle.cancel()

    def cancel_all_timers(self) -> None:
        if self._timers:
            for name in list(self._timers):
                self.cancel_timer(name)

    @property
    def active_timers(self) -> List[str]:
        return sorted(self._timers) if self._timers else []

    # -- checkpoint / restore -------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Serializable copy of the running state.

        Captures the control state, the local variable vector, and the
        live timers (absolute deadlines + event args) — everything needed
        to rebuild this instance with :meth:`restore`.  Shared globals are
        deliberately *not* included: they belong to the owning
        :class:`~repro.efsm.system.EfsmSystem`, which snapshots them once
        for all machines of a call.
        """
        timer_meta = self._timer_meta
        return {
            "machine": self.name,
            "state": self.state,
            "locals": copy_state(self.variables.local),
            "timers": {
                name: {"at": deadline, "args": copy_state(args)}
                for name, (deadline, args) in timer_meta.items()
            } if timer_meta else {},
        }

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Rebuild the running state from a :meth:`snapshot`.

        Timers are re-armed against the current scheduler with their
        original absolute deadlines; a deadline already in the past fires
        on the next clock advance (the call was down when it expired).
        """
        machine = snapshot.get("machine")
        if machine is not None and machine != self.name:
            raise DefinitionError(
                f"cannot restore snapshot of {machine!r} into {self.name!r}")
        if snapshot["state"] not in self.definition.states:
            raise DefinitionError(
                f"{self.name} has no state {snapshot['state']!r} to restore")
        self.cancel_all_timers()
        self.state = snapshot["state"]
        self.variables.local.clear()
        self.variables.local.update(copy_state(snapshot["locals"]))
        now = self.clock_now()
        for name, timer in snapshot.get("timers", {}).items():
            deadline = timer["at"]
            self.start_timer(name, max(0.0, deadline - now), timer["args"])
            # Keep the recorded deadline exact (now + (at - now) need not
            # round-trip in floating point): re-snapshots must be
            # byte-identical.
            self._timer_meta[name] = (deadline, dict(timer["args"]))

    # -- execution -----------------------------------------------------------

    def deliver(self, event: Event) -> FiringResult:
        """Deliver one event; return its :class:`FiringResult`, whose
        ``deviation`` flag is set when no transition was enabled."""
        return self.step(event, None)[0]

    def step(self, event: Event, quiet: Optional[Callable[[], Any]]
             ) -> Tuple[Optional[FiringResult], Sequence[Event]]:
        """Fire the enabled transition for ``event`` (if any); return the
        firing's result and the δs it sent.

        Dispatch goes through the definition's per-(state, event, channel)
        table, compiled when it froze: the first enabled candidate in
        declaration order fires — one call runs its statements and builds
        its outputs.  Overlapping predicates are excluded statically
        (speclint's ``nondeterministic-overlap``).  With ``quiet`` given, a
        firing whose entry is not observable calls it and builds no result
        (``None``): nobody reads one.
        """
        definition = self.definition
        for enabled, transition, fire, observable in definition._compiled.get(
                (self.state, event.name, event.channel), ()):
            if enabled is None or enabled(self, event):
                break
        else:
            transition, fire, observable = None, None, True

        from_state = self.state
        outputs = () if fire is None else fire(self, event)
        if transition is not None:
            self.state = transition.target
        if quiet is not None and not observable:
            quiet()
            return None, outputs

        # Packet and timer events are stamped with the clock when built, at
        # the same instant they are delivered — reuse that instead of paying
        # another clock call per firing.
        time = event.time
        if time is None:
            time = self.clock_now()
        return FiringResult(definition.name, event, transition, from_state,
                            self.state, outputs, time), outputs
