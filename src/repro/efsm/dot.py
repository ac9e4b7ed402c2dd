"""Graphviz export of EFSM definitions (documentation/debugging aid)."""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

from .diagnostics import Diagnostic, Severity
from .machine import Efsm

__all__ = ["to_dot"]

_SEVERITY_FILL = {
    Severity.ERROR: "#f8d0d0",
    Severity.WARNING: "#fdeec7",
    Severity.INFO: "#e8eef8",
}
_SEVERITY_EDGE = {
    Severity.ERROR: "#c0392b",
    Severity.WARNING: "#b8860b",
    Severity.INFO: "#3b6ea5",
}


def _index_diagnostics(machine: Efsm,
                       diagnostics: Optional[Iterable[Diagnostic]]
                       ) -> Tuple[Dict[str, Diagnostic],
                                  Dict[str, Diagnostic]]:
    """Worst finding per state and per transition-describe() string.

    ``event-coverage-gap`` findings are skipped: nearly every state has one
    by design, so painting them would drown the signal.
    """
    by_state: Dict[str, Diagnostic] = {}
    by_transition: Dict[str, Diagnostic] = {}
    for diagnostic in diagnostics or ():
        if diagnostic.machine not in (None, machine.name):
            continue
        if diagnostic.rule == "event-coverage-gap":
            continue
        describes: Set[str] = set(diagnostic.data.get("transitions", ()))
        if diagnostic.transition:
            describes.add(diagnostic.transition)
        for describe in describes:
            worst = by_transition.get(describe)
            if worst is None or diagnostic.severity > worst.severity:
                by_transition[describe] = diagnostic
        if diagnostic.state and not describes:
            worst = by_state.get(diagnostic.state)
            if worst is None or diagnostic.severity > worst.severity:
                by_state[diagnostic.state] = diagnostic
    return by_state, by_transition


def to_dot(machine: Efsm,
           diagnostics: Optional[Iterable[Diagnostic]] = None) -> str:
    """Render a machine as Graphviz dot text.

    Attack states are drawn as red double octagons, final states as double
    circles, matching the visual conventions of the paper's figures.

    When ``diagnostics`` (spec-lint findings from ``repro.efsm.verify``) are
    given, flagged states are filled by severity (red/amber/blue) with the
    rule id appended to the node label, and flagged transitions — dead
    states' incoming arcs, shadowed nondeterministic alternatives, wedged
    sync receives — are drawn bold in the severity color.
    """
    by_state, by_transition = _index_diagnostics(machine, diagnostics)
    lines = [f'digraph "{machine.name}" {{', "  rankdir=LR;"]
    lines.append('  __start [shape=point, label=""];')
    for state in machine.states:
        attrs = ["shape=ellipse"]
        if state in machine.attack_states:
            attrs = ["shape=doubleoctagon", "color=red", "fontcolor=red"]
        elif state in machine.final_states:
            attrs = ["shape=doublecircle"]
        flagged = by_state.get(state)
        if flagged is not None:
            attrs.append("style=filled")
            attrs.append(f'fillcolor="{_SEVERITY_FILL[flagged.severity]}"')
            attrs.append(f'label="{state}\\n[{flagged.rule}]"')
        lines.append(f'  "{state}" [{", ".join(attrs)}];')
    lines.append(f'  __start -> "{machine.initial_state}";')
    for transition in machine.transitions:
        label_parts = [transition.event_name]
        if transition.channel:
            label_parts[0] = f"{transition.channel}?{transition.event_name}"
        if transition.predicate is not None:
            label_parts.append(f"[{transition.predicate.describe()}]")
        label_parts.extend(f"/ {statement.describe()}"
                           for statement in transition.action)
        if transition.outputs:
            label_parts.extend(
                f"{output.channel}!{output.event_name}"
                for output in transition.outputs
            )
        edge_attrs = []
        if transition.attack:
            edge_attrs.append("color=red")
        flagged = by_transition.get(transition.describe())
        if flagged is not None:
            label_parts.append(f"[{flagged.rule}]")
            edge_attrs = [f'color="{_SEVERITY_EDGE[flagged.severity]}"',
                          "penwidth=2.2"]
        label = "\\n".join(label_parts).replace('"', '\\"')
        edge_attrs.insert(0, f'label="{label}"')
        lines.append(
            f'  "{transition.source}" -> "{transition.target}"'
            f' [{", ".join(edge_attrs)}];'
        )
    lines.append("}")
    return "\n".join(lines)
