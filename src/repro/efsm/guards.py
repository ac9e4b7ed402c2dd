"""Transitions as data: the guard ``P_t`` and the update ``A_t`` of
Definition 1 as expression trees, read by dispatch (compiled), speclint
and ``to_dot``; only dispatch runs them.  docs/STATE_MACHINES.md
("Transitions as data") has the grammar, the semantics and every shipped
transition.

Terms: ``x(field, default)``, ``v(name, default)``, constants, :data:`NOW`
and ``helper(fn, *terms)`` (a named pure function of the terms' values).
Atoms: comparisons, ``term.in_(container)``, ``truthy(term)``;
connectives ``& | ~``.  Statements: ``write(name, term)``, ``when(guard,
*statements)``, ``start(timer, delay, **args)``, ``cancel(timer)``.  A
guard reads every term once before comparing; one whose *comparison*
raises ``TypeError`` is not enabled.  Statements run in order, each
reading the writes before it.  There is no other way to write a guard or
a statement: every leaf is data.
"""

from __future__ import annotations

import dis
import itertools
from types import CodeType
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Mapping,
                    NamedTuple, Optional, Sequence, Set, Tuple)

from .events import Event

__all__ = ["MISSING", "NOW", "Term", "Guard", "Statement", "x", "v",
           "helper", "truthy", "as_term", "write", "when", "start", "cancel",
           "compile_firing", "Decision", "decide", "DISJOINT", "OVERLAP",
           "UNDECIDED"]

#: Default of a term declared without one.
MISSING = object()

_CONNECTIVES = ("and", "or", "not")

#: Types a state value may hold without needing any copy at all.
_ATOMIC = frozenset((str, int, float, bool, bytes, type(None), frozenset))


def _immutable(value: Any) -> bool:
    """Is ``value`` plain data shared as itself at every depth — an atom,
    a frozenset, a tuple of such?"""
    cls = value.__class__
    return cls in _ATOMIC or (cls is tuple and all(map(_immutable, value)))


#: Method names that change the object they are called on.
MUTATING_METHODS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert", "add",
    "update", "setdefault", "pop", "popleft", "popitem", "remove",
    "discard", "clear", "sort", "reverse", "__setitem__", "__delitem__",
})

#: Bytecode that writes through an object or into module state.
_WRITES = frozenset({"STORE_ATTR", "DELETE_ATTR", "STORE_SUBSCR",
                     "DELETE_SUBSCR", "STORE_GLOBAL", "DELETE_GLOBAL",
                     "STORE_SLICE"})


def _impurity(fn: Any) -> Optional[str]:
    """The first write, or load of a mutating method, in ``fn``'s bytecode
    — its nested code and the same-module functions it reads as globals
    included; None when there is none.  A builtin has no bytecode."""
    todo: List[Tuple[Optional[CodeType], Any]] = [
        (getattr(fn, "__code__", None), fn)]
    seen: Set[CodeType] = set()
    while todo:
        code, owner = todo.pop()
        if code is None or code in seen:
            continue
        seen.add(code)
        todo.extend((const, owner) for const in code.co_consts
                    if isinstance(const, CodeType))
        for ins in dis.get_instructions(code):
            if ins.opname in _WRITES or (
                    ins.opname in ("LOAD_ATTR", "LOAD_METHOD")
                    and ins.argval in MUTATING_METHODS):
                return f"{code.co_name}: {ins.opname} {ins.argval}"
            if ins.opname == "LOAD_GLOBAL":
                callee = getattr(owner, "__globals__", {}).get(ins.argval)
                if getattr(callee, "__module__", None) == owner.__module__:
                    todo.append((getattr(callee, "__code__", None), callee))
    return None


def _comparison(op: str) -> Callable[["Term", Any], "Guard"]:
    def build(self: "Term", other: Any) -> "Guard":
        return Guard(op, (self, as_term(other)))
    return build


class Term:
    """A value a guard or statement reads: ``kind`` is ``"x"`` / ``"v"``
    (``name`` the field, ``value`` its default), ``"now"``, ``"helper"``
    (``name`` the function's, ``value`` the function, ``args`` the terms it
    is called with) or ``"const"``.  The comparison operators build atoms,
    so terms are compared through :attr:`key`."""

    __slots__ = ("kind", "name", "value", "args")

    def __init__(self, kind: str, name: str, value: Any,
                 args: Tuple["Term", ...] = ()) -> None:
        self.kind = kind
        self.name = name
        self.value = value
        self.args = args

    @property
    def key(self) -> Tuple[Any, ...]:
        """Structural identity.  A named helper is its function's
        ``module:qualname`` and the values it closes over (a threshold a
        config set), the same in every process.  Then the helper's
        arguments."""
        if self.kind != "helper":
            return (self.kind, self.name, self.value)
        fn = self.value
        cells = tuple(cell.cell_contents
                      for cell in getattr(fn, "__closure__", None) or ())
        if not all(map(_immutable, cells)):
            raise TypeError(f"helper {self.name} closes over {cells!r}: a "
                            f"helper's closure holds plain data only")
        return ("helper", self.name, f"{fn.__module__}:{fn.__qualname__}",
                cells, _key(self.args))

    def walk(self) -> Iterator["Term"]:
        """This term and every term under a helper's arguments."""
        yield self
        for arg in self.args:
            yield from arg.walk()

    def describe(self) -> str:
        if self.kind == "const":
            if isinstance(self.value, frozenset):
                return "{%s}" % ", ".join(sorted(map(repr, self.value)))
            return repr(self.value)
        if self.kind == "helper":
            return "{}({})".format(
                self.name, ", ".join(arg.describe() for arg in self.args))
        if self.kind == "now":
            return "now"
        return f"{self.kind}.{self.name}"

    __repr__ = describe

    def in_(self, container: Any) -> "Guard":
        if not isinstance(container, Term):
            iter(container)         # a definition error, raised here
        return Guard("in", (self, as_term(container)))

    __eq__ = _comparison("==")      # type: ignore[assignment]
    __ne__ = _comparison("!=")      # type: ignore[assignment]
    __lt__, __le__ = _comparison("<"), _comparison("<=")
    __gt__, __ge__ = _comparison(">"), _comparison(">=")


def as_term(value: Any) -> Term:
    """``value`` itself if it is a term, else a constant."""
    if isinstance(value, Term):
        return value
    if isinstance(value, (set, list)):      # keys must stay hashable
        value = frozenset(value) if isinstance(value, set) else tuple(value)
    return Term("const", "", value)


def x(field: str, default: Any = MISSING) -> Term:
    """``x.<field>``: a field of the event's input vector."""
    return Term("x", field, default)


def v(name: str, default: Any = MISSING) -> Term:
    """``v.<name>``: a state variable (local or shared global)."""
    return Term("v", name, default)


#: The time of the event being delivered.
NOW = Term("now", "", None)


def helper(fn: Callable[..., Any], *terms: Any) -> Term:
    """``fn(*values of terms)``: the result of a named pure function — a
    lambda has no name to key it by.  ``fn`` only reads: dispatch may
    evaluate a guard twice, and checkpoints version a call by its firings,
    so a write here would corrupt both unseen."""
    name = getattr(fn, "__name__", "<lambda>")
    impure = _impurity(fn)
    if impure:
        raise TypeError(f"helper {name} writes state ({impure}): a helper "
                        f"only reads")
    if name == "<lambda>":
        raise TypeError(f"helper {fn!r} has no name: a helper is a named "
                        f"function, keyed by its module and qualname")
    return Term("helper", name, fn, tuple(as_term(t) for t in terms))


def truthy(term: Term) -> "Guard":
    return Guard("truthy", (term,))


class Guard:
    """One node of a predicate: ``op`` over ``args`` — terms under an atom
    (``== != < <= > >= in truthy``), guards under ``and`` / ``or``
    / ``not``."""

    __slots__ = ("op", "args", "_fn")

    def __init__(self, op: str, args: Tuple[Any, ...]) -> None:
        self.op = op
        self.args = args
        self._fn: Optional[Callable[[Any, Any], Any]] = None

    def _join(self, op: str, other: "Guard") -> "Guard":
        if not isinstance(other, Guard):
            raise TypeError(f"cannot combine a Guard with {other!r}: "
                            f"parenthesise each comparison")
        return Guard(op, tuple(
            part for side in (self, other)
            for part in (side.args if side.op == op else (side,))))

    def __and__(self, other: "Guard") -> "Guard":
        return self._join("and", other)

    def __or__(self, other: "Guard") -> "Guard":
        return self._join("or", other)

    def __invert__(self) -> "Guard":
        return Guard("not", (self,))

    def __bool__(self) -> bool:
        raise TypeError("a Guard has no truth value: combine guards with "
                        "& | ~ and parenthesise each comparison")

    @property
    def key(self) -> Tuple[Any, ...]:
        return (self.op,) + tuple(arg.key for arg in self.args)

    def atoms(self) -> Iterator["Guard"]:
        if self.op in _CONNECTIVES:
            for part in self.args:
                yield from part.atoms()
        else:
            yield self

    def terms(self) -> Iterator[Term]:
        for atom in self.atoms():
            yield from atom.args

    def describe(self) -> str:
        op, args = self.op, self.args
        if op == "truthy":
            return args[0].describe()
        if op in _CONNECTIVES:
            parts = [f"({part.describe()})" if part.op in ("and", "or")
                     else part.describe() for part in args]
            return f"not {parts[0]}" if op == "not" else f" {op} ".join(parts)
        return f"{args[0].describe()} {op} {args[1].describe()}"

    def __repr__(self) -> str:
        return f"<Guard {self.describe()}>"

    def compiled(self) -> Callable[[Any, Any], Any]:
        """The guard as one generated function of the instance and the
        event, ``(inst, ev)``: built once, never interpreted per packet."""
        if self._fn is None:
            self._fn = _compile(self, abstract=False)
        return self._fn


class Statement:
    """One statement of an update: ``op`` is ``"write"`` (``args``: the
    variable, the term), ``"when"`` (the guard, the statements it holds),
    ``"start"`` (the timer, the delay term, ``(argument, term)`` pairs)
    or ``"cancel"`` (the timer)."""

    __slots__ = ("op", "args")

    def __init__(self, op: str, args: Tuple[Any, ...]) -> None:
        self.op = op
        self.args = args

    @property
    def key(self) -> Tuple[Any, ...]:
        return (self.op,) + _key(self.args)

    def walk(self) -> Iterator["Statement"]:
        """This statement and every statement inside its blocks."""
        yield self
        if self.op == "when":
            for inner in self.args[1]:
                yield from inner.walk()

    def terms(self) -> Iterator[Term]:
        """The terms this statement reads itself (a block's statements
        read their own)."""
        op, args = self.op, self.args
        if op == "write":
            yield args[1]
        elif op == "when":
            yield from args[0].terms()
        elif op == "start":
            yield args[1]
            yield from (term for _, term in args[2])

    def describe(self) -> str:
        op, args = self.op, self.args
        if op == "write":
            return f"v.{args[0]} := {args[1].describe()}"
        if op == "when":
            return "if {}: {}".format(args[0].describe(), "; ".join(
                inner.describe() for inner in args[1]))
        if op == "start":
            return "start {}({})".format(args[0], ", ".join(
                [args[1].describe()]
                + [f"{name}={term.describe()}" for name, term in args[2]]))
        return f"cancel {args[0]}"

    __repr__ = describe


def _key(value: Any) -> Any:
    if isinstance(value, (Term, Guard, Statement)):
        return value.key
    return tuple(map(_key, value)) if isinstance(value, tuple) else value


def write(name: str, value: Any) -> Statement:
    """``v.<name> := value``."""
    return Statement("write", (name, as_term(value)))


def when(guard: Guard, *statements: Statement) -> Statement:
    """Run ``statements`` when ``guard`` holds (evaluated as a guard is)."""
    if not isinstance(guard, Guard):
        raise TypeError(f"when() takes a Guard, not {guard!r}")
    return Statement("when", (guard, statements))


def start(timer: str, delay: Any, **args: Any) -> Statement:
    """(Re)start ``timer``; its expiry event carries ``args``."""
    return Statement("start", (timer, as_term(delay), tuple(
        (name, as_term(value)) for name, value in args.items())))


def cancel(timer: str) -> Statement:
    return Statement("cancel", (timer,))


# ---------------------------------------------------------------------------
# The emitter: one source generator behind guards, decide and firings
# ---------------------------------------------------------------------------

#: How a concrete term is read from the instance ``inst`` and the event
#: ``ev``: ``NOW`` is the event's time, the clock's when it has none.
_READS = {"x": "ev.args.get({!r}, {})", "v": "inst.variables.get({!r}, {})",
          "now": "(ev.time if ev.time is not None else inst.clock_now())"}


class _Source:
    """A function being generated: the names its source binds and its
    lines.  Concrete, it is a function of ``(inst, ev)``; ``abstract``, of
    a valuation keyed by term (and related-atom) keys."""

    def __init__(self, abstract: bool = False) -> None:
        self.env: Dict[str, Any] = {}
        self.abstract = abstract
        self.lines: List[str] = []
        self.used = 0
        #: A firing reads each event field, and the time, once up front:
        #: nothing it does can change them.
        self.fixed: Optional[Dict[Any, Tuple[str, str]]] = None

    def bind(self, value: Any) -> str:
        """Source of a value: its literal, else a name bound to it."""
        if value is None or type(value) in (int, str, bool):
            return repr(value)
        name = f"_k{len(self.env)}"
        self.env[name] = value
        return name

    def local(self) -> str:
        self.used += 1
        return f"_t{self.used - 1}"

    def expr(self, node: Any, reads: Dict[Any, Tuple[str, str]]) -> str:
        """Python source of a guard or term; a term that is read is the
        local ``reads`` binds its one read to (a helper's arguments are
        read before it)."""
        if isinstance(node, Guard):
            if self.abstract and node.op not in _CONNECTIVES \
                    and _relates(node):
                return f"valuation[{self.bind(node.key)}]"
            parts = [self.expr(arg, reads) for arg in node.args]
            if node.op == "truthy":
                return parts[0]
            if node.op == "not":
                return f"(not {parts[0]})"
            return "(" + f" {node.op} ".join(parts) + ")"
        if node.kind == "const":
            return self.bind(node.value)
        if node.kind in ("x", "now") and self.fixed is not None:
            reads = self.fixed
        if node.key not in reads:
            if self.abstract:
                read = f"valuation[{self.bind(node.key)}]"
            elif node.kind == "helper":
                read = "{}({})".format(self.bind(node.value), ", ".join(
                    self.expr(arg, reads) for arg in node.args))
            else:
                read = _READS[node.kind].format(node.name,
                                                self.bind(node.value))
            reads[node.key] = (self.local(), read)
        return reads[node.key][0]

    def emit(self, indent: str, reads: Dict[Any, Tuple[str, str]],
             *lines: str) -> None:
        """The reads, then ``lines``: one statement of the function."""
        self.lines += [f"{indent}{local} = {read}"
                       for local, read in reads.values()]
        self.lines += [indent + line for line in lines]

    def statement(self, statement: Statement, indent: str) -> None:
        op, args = statement.op, statement.args
        reads: Dict[Any, Tuple[str, str]] = {}
        if op == "write":
            value = self.expr(args[1], reads)
            self.emit(indent, reads, f"inst.variables[{args[0]!r}] = {value}")
        elif op == "when":      # the guard's net, around the comparisons
            test, holds = self.expr(args[0], reads), self.local()
            self.emit(indent, reads, "try:", f"    {holds} = {test}",
                      "except TypeError:", f"    {holds} = False",
                      f"if {holds}:", "    pass")
            for inner in args[1]:
                self.statement(inner, indent + "    ")
        elif op == "start":
            delay = self.expr(args[1], reads)
            event_args = self.mapping(args[2], reads) if args[2] else "None"
            self.emit(indent, reads, f"inst.start_timer({args[0]!r}, {delay}, "
                                     f"{event_args})")
        else:
            self.emit(indent, reads, f"inst.cancel_timer({args[0]!r})")

    def mapping(self, items: Iterable[Tuple[str, Term]],
                reads: Dict[Any, Tuple[str, str]]) -> str:
        return "{%s}" % ", ".join(f"{name!r}: {self.expr(term, reads)}"
                                  for name, term in items)

    def define(self, name: str, doc: str) -> Callable[..., Any]:
        lines = [f"{local} = {read}" for local, read
                 in (self.fixed or {}).values()] + self.lines
        params = "valuation" if self.abstract else "inst, ev"
        exec(f"def {name}({params}):\n" + "".join(f"    {line}\n"
                                                   for line in lines),
             self.env)                          # built from the tree only
        self.env[name].__doc__ = doc
        return self.env[name]


def _compile(guard: Guard, abstract: bool) -> Callable[..., Any]:
    """``guard`` as a function of ``(inst, ev)`` — or, ``abstract``, of a
    valuation: a mapping from each term's key to a value and from the
    key of each atom that relates two terms to a boolean."""
    source = _Source(abstract)
    reads: Dict[Any, Tuple[str, str]] = {}
    test = source.expr(guard, reads)
    # Reads (helper calls among them) sit outside the TypeError net.
    source.emit("", reads, "try:", f"    return {test}", "except TypeError:",
                "    return False")
    return source.define("guard", guard.describe())


def compile_firing(
        statements: Sequence[Statement],
        outputs: Sequence[Tuple[str, str, Optional[Mapping[str, Term]]]]
) -> Callable[[Any, Any], List[Event]]:
    """One generated function of ``(inst, ev)`` that runs a transition's
    statements in order, then returns its output events —
    ``(channel, event name, argument terms or None)`` each, ``None``
    forwarding the triggering event's arguments; ``()`` when it sends
    none, so a firing that sends no δ allocates no list."""
    source = _Source()
    source.fixed = {}
    for statement in statements:
        source.statement(statement, "")
    reads: Dict[Any, Tuple[str, str]] = {}
    events = ", ".join(
        "_Event({!r}, {}, channel={!r}, time={})".format(
            name, "ev.args" if args is None
            else source.mapping(args.items(), reads), channel,
            source.expr(NOW, reads))
        for channel, name, args in outputs)
    source.env["_Event"] = Event
    source.emit("", reads, f"return [{events}]" if outputs else "return ()")
    return source.define("fire", "; ".join(map(Statement.describe,
                                               statements)))


def _relates(atom: Guard) -> bool:
    """Does the atom relate two terms (``x.branch == v.invite_branch``,
    ``x.src_ip in v.participants``, ``"a" in v.participants``)?"""
    free = [term for term in atom.args if term.kind != "const"]
    return len(free) == 2 or (atom.op == "in" and len(free) == 1
                              and free[0] is atom.args[1])


# ---------------------------------------------------------------------------
# Definition-1 disjointness, decided exactly
# ---------------------------------------------------------------------------

DISJOINT, OVERLAP, UNDECIDED = "disjoint", "overlap", "undecided"


class Decision(NamedTuple):
    """:func:`decide`'s verdict on one group of candidate guards.  An
    OVERLAP names the positions of the guards its witness enables, and the
    witness: ``describe()`` of each term, and of each atom relating two
    terms, -> the value that enables them together.  UNDECIDED says why."""

    status: str
    enabled: Tuple[int, ...] = ()
    witness: Mapping[str, Any] = {}
    reason: str = ""


class _Other:
    """A value no constant equals or orders with, truthy or falsy."""

    def __init__(self, truth: bool) -> None:
        self.truth = truth

    def __bool__(self) -> bool:
        return self.truth

    def __repr__(self) -> str:
        return "<any other value>" if self.truth else "<any other falsy value>"


_OTHERS = [_Other(True), _Other(False)]


def _critical_points(constants: Sequence[Any]) -> List[Any]:
    """One value per class the atoms can tell apart: every constant, a
    point between numeric neighbours, one beyond each end, the two bools,
    and a truthy and a falsy value equal to no constant."""
    numbers = sorted({c for c in constants if isinstance(c, (int, float))})
    points: List[Any] = []
    for constant in constants:
        if constant not in numbers and constant not in points:
            points.append(constant)
    if numbers:
        points.append(numbers[0] - 1)
        for low, high in zip(numbers, numbers[1:]):
            points += [low, (low + high) / 2]
        points += [numbers[-1], numbers[-1] + 1]
    return points + [True, False] + _OTHERS


def _distinct(key: Any, points: List[Any], atoms: Iterable[Guard]) -> List[Any]:
    """One of ``points`` per class that every atom on the term ``key``
    holds, fails or raises on alike, the first met: a guard reads a term
    only through its atoms, so the others add no valuation."""
    checks = [_compile(guard, abstract=True)
              for atom in atoms for guard in (atom, ~atom)]
    classes: Dict[Tuple[bool, ...], Any] = {}
    for point in points:
        valuation = {key: point}
        classes.setdefault(tuple(check(valuation) for check in checks), point)
    return list(classes.values())


def decide(guards: Sequence[Optional[Guard]]) -> Decision:
    """Are the candidates of one group mutually disjoint (Definition 1)?

    ``None`` is an unguarded candidate (always enabled).  Every term is a
    free variable; an atom can only tell its values apart by the constants
    it compares them with, so enumerating each term's critical points
    (:func:`_critical_points`) visits every distinguishable valuation.  An
    atom relating two terms (``x.branch == v.invite_branch``, ``x.src_ip in
    v.participants``) is enumerated as a free boolean, in both polarities.
    That is exact for guards whose terms meet constants or each other but
    not both, and otherwise errs only towards reporting an overlap (a real
    midpoint between integer neighbours, a relation treated as independent
    of its terms' values).  An ordering against a non-numeric constant, or
    membership in a string (a substring test), is ``undecided``.
    """
    constants: Dict[Any, List[Any]] = {}
    atoms: Dict[Any, Dict[Any, Guard]] = {}
    labels: Dict[Any, str] = {}
    for atom in (atom for guard in guards if guard is not None
                 for atom in guard.atoms()):
        free = [term for term in atom.args if term.kind != "const"]
        fixed = [term.value for term in atom.args if term.kind == "const"]
        if not free:
            continue
        if _relates(atom):
            labels[atom.key] = atom.describe()      # a free boolean
            continue
        met = constants.setdefault(free[0].key, [])
        atoms.setdefault(free[0].key, {})[atom.key] = atom
        labels[free[0].key] = free[0].describe()
        if atom.op == "truthy":
            met.append(0)
        elif atom.op == "in" and not isinstance(fixed[0], (str, bytes)):
            met.extend(fixed[0])
        elif atom.op in ("==", "!=") or (
                atom.op != "in" and isinstance(fixed[0], (int, float))):
            met.append(fixed[0])
        else:
            return Decision(UNDECIDED, reason=(
                f"{atom.describe()} is an ordering against a non-numeric "
                f"constant, or a substring test"))
    spaces = [_distinct(key, _critical_points(constants[key]),
                        atoms[key].values()) if key in constants
              else [True, False] for key in labels]
    checks = [None if guard is None else _compile(guard, abstract=True)
              for guard in guards]
    for case in itertools.product(*spaces):
        valuation = dict(zip(labels, case))
        enabled = tuple(index for index, check in enumerate(checks)
                        if check is None or check(valuation))
        if len(enabled) > 1:
            return Decision(OVERLAP, enabled, {
                labels[key]: value for key, value in valuation.items()})
    return Decision(DISJOINT)
