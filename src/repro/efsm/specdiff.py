"""specdiff: structural diff of mined machines against the specifications.

A mined machine (:mod:`repro.efsm.mine`) is evidence of what monitored
calls *actually did*; the hand-written Figure-5/6 machines are what the
specification *says* they may do.  Diffing the two finds spec gaps that
static lint (``speclint``) cannot see, because they only show up against
real traffic:

- **missing-transition** (ERROR): traces exercised an (state, event,
  channel) the spec has no transition for — observed behaviour the
  specification would call a deviation;
- **guard-disagreement** (WARNING): the spec has a matching transition but
  its guard rejects some (or all) recorded samples, or the guard accepts
  them into a different target state than the one actually recorded;
- **unexercised-transition** (INFO): spec transitions no training trace
  ever took (expected for attack signatures over a benign corpus);
- **unvisited-state** (INFO): spec states the corpus never reached.

The diff never aligns mined states with spec states structurally — every
training observation carries the spec machine's *recorded* state at firing
time, so spec guards are probed exactly where the event actually arrived:
every recorded observation of a group is run through each candidate's
``Guard.compiled()`` on what the firing saw: its event (argument vector
and time) and the variable vector — the declared defaults overwritten by
the accumulated valuation (``VidsConfig.trace_variables``).  Nothing
fires, and a guard that raises on the bounded, possibly partial recorded
data counts as not enabled rather than crashing the diff.  A disagreement
quotes the guards it probed.  Without recorded arguments the diff degrades
to name-level structural checks and skips guard probing.

Findings reuse the speclint :class:`Diagnostic`/:func:`format_report`
machinery, so the ``specdiff`` CLI renders and exits like ``speclint``.
See docs/MINING.md for the rule catalog.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from .diagnostics import Diagnostic, Severity
from .events import Event
from .machine import Efsm, Transition, Variables
from .mine import MinedMachine, Observation

__all__ = ["specdiff"]


class _Probe:
    """The instance a guard reads on a recorded firing: its variable vector
    — the declared defaults, overwritten by the recorded valuation.  No
    instance ran the firing."""

    __slots__ = ("variables",)

    def __init__(self, spec: Efsm, valuation: Mapping[str, Any]) -> None:
        self.variables = Variables(spec.variables,
                                   dict(spec.global_variables))
        for name, value in valuation.items():
            self.variables[name] = value


def _holds(transition: Transition, probe: _Probe, event: Event) -> bool:
    """Does the guard hold on a recorded observation?  One that raises on
    the (possibly partial) record does not."""
    try:
        return (transition.predicate is None
                or bool(transition.predicate.compiled()(probe, event)))
    except Exception:
        return False


def _sample_args(observations: List[Observation]) -> List[Dict[str, Any]]:
    return [observation.args for observation in observations[:3]]


def specdiff(mined: MinedMachine, spec: Efsm) -> List[Diagnostic]:
    """Diff one mined machine against its specification machine."""
    # Group every training observation by where it actually fired in the
    # spec machine: (recorded spec state, event, channel).
    groups: Dict[Tuple[str, str, Optional[str]], List[Observation]] = {}
    for key, observations in mined.observations.items():
        _, event_name, channel, _ = key
        for observation in observations:
            group_key = (observation.spec_from, event_name, channel)
            groups.setdefault(group_key, []).append(observation)

    diagnostics: List[Diagnostic] = []
    matched: set = set()
    visited: set = set()

    for (state, event_name, channel), observations in sorted(
            groups.items(), key=lambda item: (item[0][0], item[0][1],
                                              item[0][2] or "")):
        visited.add(state)
        for observation in observations:
            if observation.spec_to:
                visited.add(observation.spec_to)
        if state not in spec.states:
            diagnostics.append(Diagnostic(
                "missing-transition", Severity.ERROR,
                f"traces record firings in state {state!r} which "
                f"{spec.name!r} does not define",
                machine=spec.name, state=state, event=event_name,
                channel=channel,
                data={"samples": len(observations)},
                hint="the spec and the traced deployment disagree about "
                     "the state space; re-mine against matching specs"))
            continue
        candidates = [t for t in spec.transitions_from(state, event_name)
                      if t.channel == channel]
        if not candidates:
            diagnostics.append(Diagnostic(
                "missing-transition", Severity.ERROR,
                f"{len(observations)} recorded firing(s) of {event_name!r} "
                f"in state {state!r}"
                + (f" on channel {channel!r}" if channel else "")
                + f" have no matching transition in {spec.name!r}",
                machine=spec.name, state=state, event=event_name,
                channel=channel,
                data={"samples": len(observations),
                      "example_args": _sample_args(observations)},
                hint="observed behaviour the specification would flag as a "
                     "deviation: add the transition or investigate the "
                     "traffic"))
            continue
        samples = [o for o in observations if o.args or o.valuation]
        if not samples:
            # trace_variables was off: structural name-level match only.
            matched.update(id(t) for t in candidates)
            continue
        per_sample = []
        for o in samples:
            probe = _Probe(spec, o.valuation)
            event = Event(event_name, o.args, channel=channel, time=o.time)
            per_sample.append([t for t in candidates
                               if _holds(t, probe, event)])
        accepted = 0
        mismatched: List[Observation] = []
        for observation, enabled in zip(samples, per_sample):
            if not enabled:
                continue
            accepted += 1
            matched.add(id(enabled[0]))
            if (observation.spec_to
                    and enabled[0].target != observation.spec_to):
                mismatched.append(observation)
        if accepted < len(samples):
            diagnostics.append(Diagnostic(
                "guard-disagreement", Severity.WARNING,
                f"guards of {spec.name!r} for {event_name!r} in state "
                f"{state!r} " + (f"reject all {len(samples)}" if not accepted
                                 else f"accept only {accepted} of "
                                      f"{len(samples)}")
                + " recorded sample(s)",
                machine=spec.name, state=state, event=event_name,
                channel=channel, transition=candidates[0].describe(),
                data={"accepted": accepted, "samples": len(samples),
                      "example_args": _sample_args(samples),
                      "guards": [t.predicate.describe() for t in candidates
                                 if t.predicate is not None]},
                hint="the spec guard and the recorded traffic disagree: "
                     "check its argument fields against the traced "
                     "args/vars (a firing it rejects would deviate)"))
        if mismatched:
            diagnostics.append(Diagnostic(
                "guard-disagreement", Severity.WARNING,
                f"probing {event_name!r} in state {state!r} selects a "
                f"different target than the {len(mismatched)} recorded "
                f"firing(s) (recorded -> {mismatched[0].spec_to!r})",
                machine=spec.name, state=state, event=event_name,
                channel=channel,
                data={"mismatched": len(mismatched),
                      "example_args": _sample_args(mismatched)},
                hint="guard overlap or bounded-valuation divergence; "
                     "verify the guard's variable dependencies"))

    for transition in spec.transitions:
        if id(transition) in matched:
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
