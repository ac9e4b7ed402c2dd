"""Structural analysis of EFSM definitions.

The paper (Section 4.2): "We are interested in the configurations that are
reachable from the initial or intermediate configuration to the attack
configuration through zero or more intermediate states.  The paths along
the transitions from s_i to s_attack constitute attack patterns."

This module computes those objects on the transition *structure* (ignoring
predicate valuations, which over-approximates reachability — sound for
enumeration of candidate attack patterns):

- :func:`shortest_paths` — the one forward walk: a shortest transition
  path from the initial state to every reachable state;
- :func:`reachable_states` — its key set;
- :func:`attack_paths` — its restriction to attack states (the canonical
  attack patterns);
- :func:`event_coverage` — which alphabet events can ever fire from each
  state (useful for reviewing specification completeness);
- :func:`summarize_machine` — a human-readable structural summary.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional, Set

if TYPE_CHECKING:  # pragma: no cover - machine.py imports this module
    from .machine import Efsm, Transition

__all__ = ["shortest_paths", "reachable_states", "coreachable_states",
           "attack_paths", "event_coverage", "summarize_machine"]


def shortest_paths(machine: Efsm,
                   start: Optional[str] = None
                   ) -> Dict[str, List[Transition]]:
    """A shortest transition path from ``start`` (default: the initial
    state) to every state structurally reachable from it.

    Breadth-first over transitions in declaration order, keeping the
    first path found to each state.
    """
    start = start or machine.initial_state
    outgoing: Dict[str, List[Transition]] = {}
    for transition in machine.transitions:
        outgoing.setdefault(transition.source, []).append(transition)
    paths: Dict[str, List[Transition]] = {start: []}
    frontier = deque([start])
    while frontier:
        state = frontier.popleft()
        for transition in outgoing.get(state, ()):
            if transition.target not in paths:
                paths[transition.target] = paths[state] + [transition]
                frontier.append(transition.target)
    return paths


def reachable_states(machine: Efsm,
                     start: Optional[str] = None) -> Set[str]:
    """States structurally reachable from ``start`` (default: initial)."""
    return set(shortest_paths(machine, start))


def coreachable_states(machine: Efsm,
                       targets: Optional[Set[str]] = None) -> Set[str]:
    """States from which some target (default: final) state is reachable.

    The complement over reachable states is the set of *dead* states: a call
    wedged there can never complete, so its record would only ever leave the
    fact base via the idle-TTL garbage collector.  Spec-lint flags those.
    """
    targets = set(machine.final_states if targets is None else targets)
    incoming: Dict[str, List[Transition]] = {}
    for transition in machine.transitions:
        incoming.setdefault(transition.target, []).append(transition)
    seen = set(targets)
    frontier = deque(targets)
    while frontier:
        state = frontier.popleft()
        for transition in incoming.get(state, ()):
            if transition.source not in seen:
                seen.add(transition.source)
                frontier.append(transition.source)
    return seen


def attack_paths(machine: Efsm,
                 start: Optional[str] = None
                 ) -> Dict[str, List[Transition]]:
    """Shortest transition path from ``start`` to each attack state.

    Returns a mapping attack-state -> list of transitions (the paper's
    "attack pattern"); unreachable attack states are omitted.
    """
    paths = shortest_paths(machine, start)
    return {state: path for state, path in paths.items()
            if state in machine.attack_states}


def event_coverage(machine: Efsm) -> Dict[str, Set[str]]:
    """For each state, the set of event names with an outgoing transition.

    States missing events from the alphabet are where unexpected traffic
    shows up as deviations — reviewing this table is how one audits the
    specification's completeness.
    """
    coverage: Dict[str, Set[str]] = {state: set() for state in machine.states}
    for transition in machine.transitions:
        coverage[transition.source].add(transition.event_name)
    return coverage


def summarize_machine(machine: Efsm) -> str:
    """A text summary: states, reachability, attack patterns."""
    reachable = reachable_states(machine)
    lines = [
        f"machine {machine.name!r}: {len(machine.states)} states, "
        f"{len(machine.transitions)} transitions, "
        f"alphabet {sorted(machine.alphabet)}",
        f"initial: {machine.initial_state}; "
        f"final: {sorted(machine.final_states)}; "
        f"attack: {sorted(machine.attack_states)}",
        f"reachable: {len(reachable)}/{len(machine.states)}",
        "attack patterns (shortest structural paths):",
    ]
    for state, path in sorted(attack_paths(machine).items()):
        steps = " -> ".join(
            f"{t.source} --{t.event_name}-->" for t in path
        ) + f" {state}" if path else state
        lines.append(f"  [{len(path)} steps] {steps}")
    return "\n".join(lines)
