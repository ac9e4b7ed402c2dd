"""specdiff: the specification's coverage and deviations, read off a trace.

Every traced firing is a ``fire`` event that names its machine, its event
and channel, and the state it left and entered
(docs/OBSERVABILITY.md).  A transition of a shipped machine is identified
by its *firing key* ``(source, event, channel, target)`` — no two
transitions of one machine share it (``tests/efsm/test_specdiff.py``) — so
the fire events of a recorded run say exactly which transitions fired,
with no guard run again and nothing learned.  Diffing them against the
hand-written Figure-5/6 machines finds what static lint (``speclint``)
cannot see, because it only shows up against real traffic:

- **missing-transition** (ERROR): recorded firings the specification has
  no transition for — a ``deviation`` (no transition was enabled), a key
  the spec lacks (the trace ran under another spec), or a state it does
  not define;
- **unexercised-transition** (INFO): spec transitions no recorded firing
  took (expected for attack signatures over a benign corpus);
- **unvisited-state** (INFO): spec states no recorded firing left or
  entered.

Findings reuse the speclint :class:`Diagnostic`/:func:`format_report`
machinery, so the ``specdiff`` CLI renders and exits like ``speclint``.
See docs/SPECCHECK.md ("specdiff").
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Tuple

from ..obs.trace import TraceEvent
from .diagnostics import Diagnostic, Severity
from .machine import Efsm, Transition

__all__ = ["firing_key", "specdiff"]

FiringKey = Tuple[str, str, Optional[str], str]


def firing_key(transition: Transition) -> FiringKey:
    """``(source, event, channel, target)``: what a fire event records."""
    return (transition.source, transition.event_name, transition.channel,
            transition.target)


def specdiff(events: Iterable[TraceEvent], spec: Efsm) -> List[Diagnostic]:
    """Diff the ``fire`` events of one machine against its specification."""
    fired: Counter = Counter()          # firing key -> count
    deviations: Counter = Counter()     # (state, event, channel) -> count
    for event in events:
        data = event.data
        if event.kind != "fire" or data.get("machine") != spec.name:
            continue
        key = (data.get("from_state", ""), data.get("event", ""),
               data.get("channel"), data.get("to_state", ""))
        if data.get("deviation"):
            deviations[key[:3]] += 1
        else:
            fired[key] += 1

    keys = {firing_key(transition) for transition in spec.transitions}
    visited = {state for key in fired for state in (key[0], key[3])}
    visited.update(group[0] for group in deviations)
    # Firings the spec has no transition for, per (state, event, channel).
    unmatched: Dict[Tuple[str, str, Optional[str]], int] = Counter(deviations)
    for key, count in fired.items():
        if key not in keys:
            unmatched[key[:3]] += count

    diagnostics: List[Diagnostic] = []
    for (state, event_name, channel), count in sorted(
            unmatched.items(), key=lambda item: (item[0][0], item[0][1],
                                                 item[0][2] or "")):
        samples = {"samples": count,
                   "deviations": deviations[(state, event_name, channel)]}
        if state not in spec.states:
            diagnostics.append(Diagnostic(
                "missing-transition", Severity.ERROR,
                f"traces record firings in state {state!r} which "
                f"{spec.name!r} does not define",
                machine=spec.name, state=state, event=event_name,
                channel=channel, data=samples,
                hint="the spec and the traced deployment disagree about "
                     "the state space; diff against matching specs"))
            continue
        diagnostics.append(Diagnostic(
            "missing-transition", Severity.ERROR,
            f"{count} recorded firing(s) of {event_name!r} "
            f"in state {state!r}"
            + (f" on channel {channel!r}" if channel else "")
            + f" have no matching transition in {spec.name!r}",
            machine=spec.name, state=state, event=event_name,
            channel=channel, data=samples,
            hint="observed behaviour the specification calls a deviation: "
                 "add the transition or investigate the traffic"))

    for transition in spec.transitions:
        if firing_key(transition) in fired:
            continue
        is_attack = (transition.attack
                     or transition.target in spec.attack_states)
        diagnostics.append(Diagnostic(
            "unexercised-transition", Severity.INFO,
            f"spec transition {transition.describe()} was never exercised "
            f"by the training corpus"
            + (" (attack signature: expected on benign traffic)"
               if is_attack else ""),
            machine=spec.name, state=transition.source,
            event=transition.event_name, channel=transition.channel,
            transition=transition.describe(),
            hint="" if is_attack else
                 "widen the corpus or confirm the path is reachable "
                 "in deployment"))

    for state in sorted(set(spec.states) - visited):
        is_attack = state in spec.attack_states
        diagnostics.append(Diagnostic(
            "unvisited-state", Severity.INFO,
            f"spec state {state!r} was never reached by the training corpus"
            + (" (attack state: expected on benign traffic)"
               if is_attack else ""),
            machine=spec.name, state=state))

    diagnostics.sort(key=lambda d: (-int(d.severity), d.rule,
                                    d.state or "", d.event or ""))
    return diagnostics
