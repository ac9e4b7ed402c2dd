"""Guards as data: the predicate algebra behind ``P_t`` of Definition 1.

A predicate is an expression tree, so every consumer reads one object:
dispatch compiles it, speclint decides disjointness on it, ``to_dot`` and
the miner print it.  docs/STATE_MACHINES.md ("Guards as data") has the
grammar and the shape of every shipped guard; in short:

- **terms** — ``x("status", 0)`` / ``v("participants", ())`` (an event
  field / a state variable, with the value a missing one reads as), a
  constant, and ``helper(fn)``: the one escape, the result of a *named
  pure function* of the firing context;
- **atoms** — a comparison of two terms (``== != < <= > >=``, the Python
  operators), ``term.between(lo, hi)`` (a number in the closed interval; a
  bool is not a number), ``term.in_(container)``, ``truthy(term)``;
- **connectives** — ``a & b``, ``a | b``, ``~a``.

Semantics: every term is read once, before anything is compared — a
missing field reads as the term's default (:data:`MISSING` when none was
declared: equal to nothing, ordered with nothing), and a helper's own
exceptions propagate like any bug; ``and`` / ``or`` short-circuit left to
right; a guard in which a *comparison* raises ``TypeError`` (an ordering
between unlike types, an unhashable value tested against a set) is *not
enabled*, so a wrongly typed field deviates instead of raising out of
``deliver``.
"""

from __future__ import annotations

import itertools
from typing import (Any, Callable, Dict, Iterator, List, Mapping, NamedTuple,
                    Optional, Sequence, Tuple)

__all__ = ["MISSING", "Term", "Guard", "x", "v", "helper", "truthy",
           "Decision", "decide", "DISJOINT", "OVERLAP", "UNDECIDED"]

#: Default of a term declared without one.
MISSING = object()

_CONNECTIVES = ("and", "or", "not")


def _comparison(op: str) -> Callable[["Term", Any], "Guard"]:
    def build(self: "Term", other: Any) -> "Guard":
        return Guard(op, (self, _term(other)))
    return build


class Term:
    """A value a guard reads: ``kind`` is ``"x"`` / ``"v"`` (``name`` the
    field, ``value`` its default), ``"helper"`` (``name`` empty for a bare
    callable, ``value`` the function) or ``"const"``.  The comparison
    operators build atoms, so terms are compared through :attr:`key`."""

    __slots__ = ("kind", "name", "value")

    def __init__(self, kind: str, name: str, value: Any) -> None:
        self.kind = kind
        self.name = name
        self.value = value

    @property
    def key(self) -> Tuple[Any, ...]:
        """Structural identity.  A helper is its ``def`` (name and code
        object), the same for every build of one machine."""
        if self.kind == "helper":
            return ("helper", self.name,
                    getattr(self.value, "__code__", self.value))
        return (self.kind, self.name, self.value)

    def describe(self) -> str:
        if self.kind == "const":
            if isinstance(self.value, frozenset):
                return "{%s}" % ", ".join(sorted(map(repr, self.value)))
            return repr(self.value)
        if self.kind == "helper":
            if self.name:
                return f"{self.name}(ctx)"
            return f"<callable {getattr(self.value, '__qualname__', '?')}>"
        return f"{self.kind}.{self.name}"

    __repr__ = describe

    def between(self, lo: float, hi: float) -> "Guard":
        """``lo <= self <= hi`` for a number; no bool is in any interval."""
        if not all(isinstance(bound, (int, float)) for bound in (lo, hi)):
            raise TypeError(f"interval bounds must be numbers: {lo!r}, {hi!r}")
        return Guard("between", (self, _term(lo), _term(hi)))

    def in_(self, container: Any) -> "Guard":
        if not isinstance(container, Term):
            iter(container)         # a definition error, raised here
        return Guard("in", (self, _term(container)))

    __eq__ = _comparison("==")      # type: ignore[assignment]
    __ne__ = _comparison("!=")      # type: ignore[assignment]
    __lt__, __le__ = _comparison("<"), _comparison("<=")
    __gt__, __ge__ = _comparison(">"), _comparison(">=")


def _term(value: Any) -> Term:
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


def helper(fn: Callable[[Any], Any], name: Optional[str] = None) -> Term:
    """The result of a named pure function of the firing context (a
    lambda has no name to go by, so it is anonymous)."""
    if name is None:
        name = getattr(fn, "__name__", "")
    return Term("helper", "" if name == "<lambda>" else name, fn)


def truthy(term: Term) -> "Guard":
    return Guard("truthy", (term,))


class Guard:
    """One node of a predicate: ``op`` over ``args`` — terms under an atom
    (``== != < <= > >= between in truthy``), guards under ``and`` / ``or``
    / ``not``."""

    __slots__ = ("op", "args", "_fn")

    def __init__(self, op: str, args: Tuple[Any, ...]) -> None:
        self.op = op
        self.args = args
        self._fn: Optional[Callable[[Any], Any]] = None

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
        if op == "between":
            return "{1} <= {0} <= {2}".format(*(a.describe() for a in args))
        return f"{args[0].describe()} {op} {args[1].describe()}"

    def __repr__(self) -> str:
        return f"<Guard {self.describe()}>"

    def compiled(self) -> Callable[[Any], Any]:
        """The guard as one generated function of the firing context:
        built once, never interpreted per packet."""
        if self._fn is None:
            self._fn = _compile(self, abstract=False)
        return self._fn


def _compile(guard: Guard, abstract: bool) -> Callable[[Any], Any]:
    """``guard`` as a function of the firing context — or, ``abstract``,
    of a valuation: a mapping from each term's key to a value and from the
    key of each atom that relates two terms to a boolean."""
    env: Dict[str, Any] = {}
    reads: Dict[Any, Tuple[str, str]] = {}  # term key -> (local, its read)
    test = _emit(guard, env, reads, abstract)
    # Reads (helper calls among them) sit outside the TypeError net.
    exec("def guard(ctx):\n"
         + "".join(f"    {local} = {read}\n" for local, read in reads.values())
         + f"    try:\n        return {test}\n"
           f"    except TypeError:\n        return False\n",
         env)                                   # built from this tree only
    env["guard"].__doc__ = guard.describe()
    return env["guard"]


def _relates(atom: Guard) -> bool:
    """Does the atom relate two terms (``x.branch == v.invite_branch``,
    ``x.src_ip in v.participants``, ``"a" in v.participants``)?"""
    free = [term for term in atom.args if term.kind != "const"]
    return len(free) == 2 or (atom.op == "in" and len(free) == 1
                              and free[0] is atom.args[1])


def _bind(value: Any, env: Dict[str, Any]) -> str:
    """Source of a value: its literal, else a name bound to it in ``env``."""
    if value is None or type(value) in (int, str, bool):
        return repr(value)
    env[f"_k{len(env)}"] = value
    return f"_k{len(env) - 1}"


def _emit(node: Any, env: Dict[str, Any], reads: Dict[Any, Tuple[str, str]],
          abstract: bool) -> str:
    """Python source of a guard or term; a term that is read is the local
    ``reads`` binds its one read to."""
    if isinstance(node, Guard):
        if abstract and node.op not in _CONNECTIVES and _relates(node):
            return f"ctx[{_bind(node.key, env)}]"
        parts = [_emit(arg, env, reads, abstract) for arg in node.args]
        if node.op == "truthy":
            return parts[0]
        if node.op == "not":
            return f"(not {parts[0]})"
        if node.op == "between":
            return ("({1} <= {0} <= {2} and {0}.__class__ is not bool)"
                    .format(*parts))
        return "(" + f" {node.op} ".join(parts) + ")"
    if node.kind == "const":
        return _bind(node.value, env)
    if node.key not in reads:
        if abstract:
            read = f"ctx[{_bind(node.key, env)}]"
        elif node.kind == "helper":
            read = f"{_bind(node.value, env)}(ctx)"
        else:
            read = (f"ctx.{node.kind}.get({node.name!r}, "
                    f"{_bind(node.value, env)})")
        reads[node.key] = (f"_t{len(reads)}", read)
    return reads[node.key][0]


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
    point between numeric neighbours, one beyond each end, the two bools
    (numbers to every atom but ``between``), and a truthy and a falsy value
    equal to no constant."""
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
    of its terms' values).  A bare callable, an ordering against a
    non-numeric constant, or membership in a string (a substring test), is
    ``undecided``.
    """
    constants: Dict[Any, List[Any]] = {}
    labels: Dict[Any, str] = {}
    for atom in (atom for guard in guards if guard is not None
                 for atom in guard.atoms()):
        free = [term for term in atom.args if term.kind != "const"]
        fixed = [term.value for term in atom.args if term.kind == "const"]
        if any(term.kind == "helper" and not term.name for term in free):
            return Decision(UNDECIDED, reason=(
                f"{atom.describe()} is opaque code, not an expression"))
        if not free:
            continue
        if _relates(atom):
            labels[atom.key] = atom.describe()      # a free boolean
            continue
        met = constants.setdefault(free[0].key, [])
        labels[free[0].key] = free[0].describe()
        if atom.op == "truthy":
            met.append(0)
        elif atom.op == "between":
            met.extend(fixed)
        elif atom.op == "in" and not isinstance(fixed[0], (str, bytes)):
            met.extend(fixed[0])
        elif atom.op in ("==", "!=") or (
                atom.op != "in" and isinstance(fixed[0], (int, float))):
            met.append(fixed[0])
        else:
            return Decision(UNDECIDED, reason=(
                f"{atom.describe()} is an ordering against a non-numeric "
                f"constant, or a substring test"))
    spaces = [_critical_points(constants[key]) if key in constants
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
