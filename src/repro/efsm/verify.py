"""Static verification (spec-lint) of EFSM definitions and their composition.

The paper's detection guarantee rests on the SIP and RTP EFSMs being correct
*specifications*: Section 4.2 derives attack patterns from reachability over
the transition structure, and the CSP-style ``c!δ`` / ``c?δ`` channel events
only compose safely if every send has a matching receive.  This module
analyzes machine definitions **without executing them** and reports findings
as :class:`~repro.efsm.diagnostics.Diagnostic` records.

Per-machine rules (:func:`verify_machine`):

- ``unreachable-state`` / ``unreachable-attack-state`` — no structural path
  from the initial state (an unreachable attack state is a pattern that can
  never match);
- ``trap-state`` — a reachable non-final state with no outgoing transitions;
- ``dead-state`` — a reachable non-final state from which no final state is
  reachable (the call record could only ever leave memory via the TTL GC);
- ``nondeterministic-overlap`` — same (state, event, channel) transitions
  whose guards are not mutually exclusive, decided exactly on the guard
  expressions (:func:`~repro.efsm.guards.decide`): an overlap is an
  ERROR with a witness valuation, a group that cannot be decided (an
  ordering against a non-numeric constant, a substring test) is a WARNING;
- ``event-coverage-gap`` — alphabet events a state has no transition for
  (informational: deviations *are* the anomaly signal, but the table is how
  one audits specification completeness);
- ``undeclared-variable`` / ``read-before-write`` / ``unused-variable`` —
  state-variable hygiene, read off the guards, statements and output
  arguments;
- ``timer-unhandled`` / ``timer-never-fires`` / ``timer-never-started`` —
  timers started but never consumed or cancelled, and vice versa;
- ``undeclared-channel`` — sends/receives on channels the machine never
  declared (see :meth:`Efsm.declare_channel`).

Cross-machine rules (:func:`verify_system`):

- ``unknown-channel-endpoint`` — a channel naming a machine that is not part
  of the system;
- ``unmatched-send`` — a ``c!δ`` output no receiver ever consumes;
- ``unmatched-receive`` — a ``c?δ`` transition nothing ever sends;
- ``sync-deadlock`` / ``sync-unbounded`` — a product-automaton pass over
  the macro-steps ``EfsmSystem.inject`` runs, which flags a reachable
  configuration where a sent synchronization event has no consumer (a
  runtime deviation on a *legitimate* trace) and a cascade of them that
  never quiesces (``inject`` raises ``DefinitionError`` at its
  ``CASCADE_CAP``).

Nothing is executed: guards, statements and output arguments are data,
and machine state is never advanced.  Every send is a declarative
:class:`~repro.efsm.machine.Output`, so the topology and product passes see
all of them by construction.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from .analysis import (
    coreachable_states,
    event_coverage,
    reachable_states,
    shortest_paths,
)
from .channels import parse_channel
from .diagnostics import Diagnostic, Severity
from .events import TIMER_CHANNEL
from .guards import DISJOINT, MISSING, UNDECIDED
from .machine import Efsm, Transition
from .system import CASCADE_CAP

__all__ = ["verify_machine", "verify_system", "RULES"]

#: Rule id -> one-line summary (the authoritative catalog is
#: ``docs/SPECCHECK.md``).
RULES: Dict[str, str] = {
    "unreachable-state": "state has no structural path from the initial state",
    "unreachable-attack-state": "attack state can never be reached, so its "
                                "pattern can never match",
    "trap-state": "non-final state with no outgoing transitions",
    "dead-state": "non-final state from which no final state is reachable",
    "nondeterministic-overlap": "same (state, event) transitions with "
                                "non-exclusive guards",
    "event-coverage-gap": "state handles only part of the event alphabet",
    "undeclared-variable": "action writes a state variable that was never "
                           "declared",
    "read-before-write": "transition reads a variable that is never declared "
                         "nor written",
    "unused-variable": "declared variable no transition reads or writes",
    "timer-unhandled": "timer is started but its expiry event has no "
                       "transition and it is never cancelled",
    "timer-never-fires": "timer is started and cancelled but no transition "
                         "consumes its expiry",
    "timer-never-started": "timer-channel transition for a timer no action "
                           "ever starts",
    "undeclared-channel": "transition references a sync channel the machine "
                          "never declared",
    "unknown-channel-endpoint": "channel endpoint is not a machine of the "
                                "system",
    "unmatched-send": "sent sync event has no consuming transition in the "
                      "receiver",
    "unmatched-receive": "sync receive that no machine in the system sends",
    "sync-deadlock": "reachable configuration wedges a queued sync event the "
                     "receiver can never consume",
    "sync-unbounded": "a sync cascade never quiesces, so the macro-step "
                      "is refused at the runtime's consume cap",
    "analysis-incomplete": "part of the specification could not be analyzed "
                           "statically",
}

# ---------------------------------------------------------------------------
# Per-machine rules
# ---------------------------------------------------------------------------

def _check_reachability(machine: Efsm,
                        reachable: Set[str]) -> List[Diagnostic]:
    diagnostics = []
    for state in sorted(set(machine.states) - reachable):
        if state in machine.attack_states:
            diagnostics.append(Diagnostic(
                "unreachable-attack-state", Severity.ERROR,
                f"attack state {state!r} has no structural path from "
                f"{machine.initial_state!r}; its attack pattern can never "
                f"match",
                machine=machine.name, state=state,
                hint="add the transitions that constitute the attack "
                     "pattern, or delete the state"))
        else:
            diagnostics.append(Diagnostic(
                "unreachable-state", Severity.ERROR,
                f"state {state!r} is unreachable from "
                f"{machine.initial_state!r}",
                machine=machine.name, state=state,
                hint="connect it to the transition structure or remove it"))
    return diagnostics


def _check_sinks(machine: Efsm, reachable: Set[str]) -> List[Diagnostic]:
    diagnostics = []
    handled = event_coverage(machine)
    traps = set()
    for state in sorted(reachable):
        if state in machine.final_states or state in machine.attack_states:
            continue
        if not handled[state]:
            traps.add(state)
            diagnostics.append(Diagnostic(
                "trap-state", Severity.ERROR,
                f"state {state!r} is reachable, not final, and has no "
                f"outgoing transitions: every later event of the call "
                f"becomes a deviation and the record never completes",
                machine=machine.name, state=state,
                hint="mark it final or give it outgoing transitions"))
    if machine.final_states:
        coreachable = coreachable_states(machine)
        for state in sorted(reachable - coreachable - traps):
            if state in machine.final_states or state in machine.attack_states:
                continue
            diagnostics.append(Diagnostic(
                "dead-state", Severity.WARNING,
                f"no final state is reachable from {state!r}; a call wedged "
                f"there only leaves memory via the idle TTL",
                machine=machine.name, state=state,
                hint="add a path to a final state or mark an absorbing "
                     "state final"))
    return diagnostics


def _check_determinism(machine: Efsm) -> List[Diagnostic]:
    diagnostics = []
    for group, decision in machine.decide_determinism():
        if decision.status == DISJOINT:
            continue
        where = f"from {group[0].source!r} on {group[0].event_name!r}"
        if decision.status == UNDECIDED:
            involved, severity = group, Severity.WARNING
            message = (f"the {len(group)} transitions {where} cannot be "
                       f"proven mutually exclusive: {decision.reason}")
            hint = ("order against numeric constants only, or move the "
                    "test into a named helper compared with constants")
        else:
            involved = [group[index] for index in decision.enabled]
            severity = Severity.ERROR
            witness = ", ".join(f"{name}={value!r}" for name, value
                                in decision.witness.items()) or "every event"
            message = (f"{witness} enables {len(involved)} transitions "
                       f"{where}: " + "; ".join(
                           f"{t.describe()} [{t.predicate.describe()}]"
                           if t.predicate is not None
                           else f"{t.describe()} [unguarded]"
                           for t in involved))
            hint = "make the predicates mutually disjoint (P_i ∧ P_j = ∅)"
        diagnostics.append(Diagnostic(
            "nondeterministic-overlap", severity, message,
            machine=machine.name, state=group[0].source,
            event=group[0].event_name, transition=involved[0].describe(),
            data={"transitions": [t.describe() for t in involved],
                  "witness": dict(decision.witness)}, hint=hint))
    return diagnostics


def _check_event_coverage(machine: Efsm,
                          reachable: Set[str]) -> List[Diagnostic]:
    diagnostics = []
    handled = event_coverage(machine)
    for state in sorted(reachable):
        if state in machine.attack_states:
            continue
        missing = sorted(machine.alphabet - handled[state])
        if missing:
            diagnostics.append(Diagnostic(
                "event-coverage-gap", Severity.INFO,
                f"state {state!r} has no transition for "
                f"{len(missing)}/{len(machine.alphabet)} alphabet events: "
                f"{missing}",
                machine=machine.name, state=state,
                data={"missing": missing},
                hint="intentional gaps are how deviations are detected; "
                     "review that each is intentional"))
    return diagnostics


def _check_variables(machine: Efsm) -> List[Diagnostic]:
    """Variable hygiene, read off the data: every term a transition reads
    (a ``v`` term without a default always reads MISSING when nothing
    declares or writes it) and every variable its statements write."""
    diagnostics = []
    declared = set(machine.variables) | set(machine.global_variables)
    writes: Dict[str, List[str]] = {}
    reads_bare: Dict[str, List[str]] = {}
    reads_default: Dict[str, List[str]] = {}
    for transition in machine.transitions:
        label = transition.describe()
        for statement in transition.statements():
            if statement.op == "write":
                writes.setdefault(statement.args[0], []).append(label)
        for term in transition.terms():
            if term.kind == "v":
                (reads_bare if term.value is MISSING else reads_default
                 ).setdefault(term.name, []).append(label)
    for name in sorted(set(writes) - declared):
        diagnostics.append(Diagnostic(
            "undeclared-variable", Severity.ERROR,
            f"transition(s) {sorted(set(writes[name]))} write state variable "
            f"{name!r} which is never declared",
            machine=machine.name, transition=writes[name][0],
            data={"variable": name},
            hint="declare it (with its default/domain) via declare() or "
                 "declare_global()"))
    for name in sorted((set(reads_bare) - declared) - set(writes)):
        diagnostics.append(Diagnostic(
            "read-before-write", Severity.ERROR,
            f"transition(s) {sorted(set(reads_bare[name]))} read "
            f"v.{name} but the variable is never declared nor written; "
            f"the term declares no default, so it always reads MISSING",
            machine=machine.name, transition=reads_bare[name][0],
            data={"variable": name},
            hint="declare the variable or fix the name"))
    for name in sorted((set(reads_default) - declared)
                       - set(writes) - set(reads_bare)):
        diagnostics.append(Diagnostic(
            "read-before-write", Severity.WARNING,
            f"transition(s) {sorted(set(reads_default[name]))} read "
            f"v.{name} but the variable is never declared nor written; "
            f"the term's default always applies (likely a typo)",
            machine=machine.name, transition=reads_default[name][0],
            data={"variable": name},
            hint="declare the variable or fix the name"))
    referenced = set(writes) | set(reads_bare) | set(reads_default)
    for name in sorted(set(machine.variables) - referenced):
        diagnostics.append(Diagnostic(
            "unused-variable", Severity.INFO,
            f"declared local variable {name!r} is never read or written by "
            f"any transition",
            machine=machine.name, data={"variable": name},
            hint="drop the declaration if the variable is vestigial"))
    return diagnostics


def _check_timers(machine: Efsm) -> List[Diagnostic]:
    diagnostics = []
    starts: Dict[str, str] = {}
    cancels: Set[str] = set()
    for transition in machine.transitions:
        for statement in transition.statements():
            if statement.op == "start":
                starts.setdefault(statement.args[0], transition.describe())
            elif statement.op == "cancel":
                cancels.add(statement.args[0])
    consumed = {t.event_name for t in machine.transitions
                if t.channel == TIMER_CHANNEL}
    for name in sorted(set(starts) - consumed):
        if name in cancels:
            diagnostics.append(Diagnostic(
                "timer-never-fires", Severity.WARNING,
                f"timer {name!r} is started and cancelled but no "
                f"timer-channel transition consumes its expiry",
                machine=machine.name, transition=starts[name],
                event=name, channel=TIMER_CHANNEL,
                hint="add a transition on the timer channel, or remove the "
                     "timer"))
        else:
            diagnostics.append(Diagnostic(
                "timer-unhandled", Severity.ERROR,
                f"timer {name!r} is started (by {starts[name]!r}) but never "
                f"cancelled and no transition consumes its expiry: every "
                f"expiry becomes a spurious deviation",
                machine=machine.name, transition=starts[name],
                event=name, channel=TIMER_CHANNEL,
                hint="add a transition with channel=TIMER_CHANNEL for it, "
                     "or cancel it on every path"))
    started = set(starts)
    for name in sorted(consumed - started):
        diagnostics.append(Diagnostic(
            "timer-never-started", Severity.WARNING,
            f"transition(s) consume timer event {name!r} but no action ever "
            f"starts that timer",
            machine=machine.name, event=name, channel=TIMER_CHANNEL,
            hint="start the timer in some action, or drop the transitions"))
    return diagnostics


def _check_channels(machine: Efsm) -> List[Diagnostic]:
    diagnostics = []
    declared = set(machine.channels) | {TIMER_CHANNEL}
    flagged: Set[Tuple[str, str]] = set()

    def flag(channel: str, transition: Transition, direction: str) -> None:
        key = (channel, transition.describe())
        if key in flagged:
            return
        flagged.add(key)
        diagnostics.append(Diagnostic(
            "undeclared-channel", Severity.ERROR,
            f"transition {transition.describe()!r} {direction} on channel "
            f"{channel!r} which the machine never declared",
            machine=machine.name, state=transition.source,
            transition=transition.describe(), channel=channel,
            hint="declare_channel() it so topology checks can see the "
                 "machine's sync interface"))

    for transition in machine.transitions:
        if (transition.channel is not None
                and transition.channel not in declared):
            flag(transition.channel, transition, "receives")
        for output in transition.outputs:
            if output.channel not in declared:
                flag(output.channel, transition, "sends")
    return diagnostics


def verify_machine(machine: Efsm) -> List[Diagnostic]:
    """Run every per-machine spec-lint rule; returns structured findings.

    Nothing about the machine is mutated and neither guards nor actions
    execute.
    """
    reachable = reachable_states(machine)
    diagnostics: List[Diagnostic] = []
    diagnostics.extend(_check_reachability(machine, reachable))
    diagnostics.extend(_check_sinks(machine, reachable))
    diagnostics.extend(_check_determinism(machine))
    diagnostics.extend(_check_event_coverage(machine, reachable))
    diagnostics.extend(_check_variables(machine))
    diagnostics.extend(_check_timers(machine))
    diagnostics.extend(_check_channels(machine))
    return diagnostics


# ---------------------------------------------------------------------------
# Cross-machine rules
# ---------------------------------------------------------------------------

def _system_topology(machines: Sequence[Efsm]) -> List[Diagnostic]:
    diagnostics = []
    names = {machine.name for machine in machines}
    sends: Dict[Tuple[str, str], List[Tuple[Efsm, Transition]]] = {}
    for machine in machines:
        for transition in machine.transitions:
            for output in transition.outputs:
                channel, event = output.channel, output.event_name
                if channel == TIMER_CHANNEL:
                    continue
                receiver = parse_channel(channel)[1]
                if receiver not in names:
                    diagnostics.append(Diagnostic(
                        "unknown-channel-endpoint", Severity.ERROR,
                        f"{machine.name!r} sends {event!r} on {channel!r} "
                        f"but {receiver!r} is not a machine of this system",
                        machine=machine.name, channel=channel, event=event,
                        transition=transition.describe(),
                        hint="fix the channel id or add the missing machine"))
                    continue
                sends.setdefault((channel, event), []).append(
                    (machine, transition))
    receives: Dict[Tuple[str, str], List[Tuple[Efsm, Transition]]] = {}
    for machine in machines:
        for transition in machine.transitions:
            channel = transition.channel
            if channel is None or channel == TIMER_CHANNEL:
                continue
            receives.setdefault((channel, transition.event_name), []).append(
                (machine, transition))
    for (channel, event), senders in sorted(sends.items()):
        if (channel, event) not in receives:
            machine, transition = senders[0]
            _sender, receiver = parse_channel(channel)
            diagnostics.append(Diagnostic(
                "unmatched-send", Severity.ERROR,
                f"{machine.name!r} sends {event!r} on {channel!r} but "
                f"{receiver!r} has no transition consuming it in any state: "
                f"the receiver deviates on every one",
                machine=machine.name, channel=channel, event=event,
                transition=transition.describe(),
                data={"witness": _send_witness(machine, transition,
                                               channel, event)},
                hint=f"add a c?{event} transition to {receiver!r} or drop "
                     f"the output"))
    for (channel, event), receivers in sorted(receives.items()):
        sender, _receiver = parse_channel(channel)
        if sender is not None and sender not in names:
            continue              # channel from outside this system
        if (channel, event) not in sends:
            machine, transition = receivers[0]
            diagnostics.append(Diagnostic(
                "unmatched-receive", Severity.WARNING,
                f"{machine.name!r} waits for {event!r} on {channel!r} but "
                f"nothing in the system ever sends it",
                machine=machine.name, channel=channel, event=event,
                transition=transition.describe(),
                hint="dead receive arm: remove it or add the matching send"))
    return diagnostics


def _send_witness(machine: Efsm, transition: Transition, channel: str,
                  event: str) -> List[str]:
    """Witness trace for an unmatched send: the shortest path of the
    sending machine to the offending transition, then the send itself."""
    path = shortest_paths(machine).get(transition.source)
    if path is None:
        prefix = [f"<{transition.source!r} unreachable by free moves alone>"]
    else:
        prefix = [f"{machine.name}: {step.describe()}" for step in path]
    return prefix + [f"{machine.name}: {transition.describe()}",
                     f"{channel} ! {event} (never consumed)"]


#: Configurations the product pass records before it stops with
#: ``analysis-incomplete``.
_MAX_CONFIGS = 20000


class _ProductExplorer:
    """Breadth-first reachability over the configurations of the
    interacting machines, one macro-step of ``EfsmSystem.inject`` at a time.

    A data or timer transition is a *free* move whose guard is
    over-approximated as satisfiable.  The δs it sends go on one pending
    list; each consume takes the front one and appends its own sends at the
    back, until the list is empty — the runtime's order, so the
    configurations recorded are those ``inject`` can return in.  A δ whose
    receiver is not a machine of the system goes to the environment, and
    every candidate of a ``(state, channel, event)`` group is a branch.  A
    δ the receiver's state has no transition for is the runtime's deviation
    on a δ, reported as ``sync-deadlock``; as in ``inject``, the step goes
    on with the rest of the list.
    """

    def __init__(self, machines: Sequence[Efsm]):
        self.machines = list(machines)
        self.names = [machine.name for machine in self.machines]
        self.index = {name: i for i, name in enumerate(self.names)}
        self.diagnostics: List[Diagnostic] = []
        self._reported: Set[Tuple] = set()
        #: Every configuration :meth:`explore` reached -> the shortest event
        #: path to it (the first found, in BFS order).
        self.paths: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        # (machine index, state) -> free-move transitions.
        self.free_moves: Dict[Tuple[int, str], List[Transition]] = {}
        # (machine index, state, channel, event) -> receiving transitions.
        self.receivers: Dict[Tuple[int, str, str, str], List[Transition]] = {}
        # id(transition) -> (receiver, channel, event) of each δ a firing
        # sends to a machine of the system, in send order.
        self.sends: Dict[int, Tuple] = {}
        for i, machine in enumerate(self.machines):
            for transition in machine.transitions:
                self.sends[id(transition)] = tuple(
                    (self.index[receiver], output.channel, output.event_name)
                    for output in transition.outputs
                    for receiver in (parse_channel(output.channel)[1],)
                    if receiver in self.index)
                if transition.channel is None or \
                        transition.channel == TIMER_CHANNEL:
                    self.free_moves.setdefault(
                        (i, transition.source), []).append(transition)
                else:
                    key = (i, transition.source, transition.channel,
                           transition.event_name)
                    self.receivers.setdefault(key, []).append(transition)

    def _report_stuck(self, receiver_index: int, state: str, channel: str,
                      event: str, trigger: str,
                      path: Tuple[str, ...]) -> None:
        key = (receiver_index, state, channel, event)
        if key in self._reported:
            return
        self._reported.add(key)
        name = self.names[receiver_index]
        witness = list(path) + [
            f"{channel} ? {event} (no consumer: {name} is in {state!r})"]
        self.diagnostics.append(Diagnostic(
            "sync-deadlock", Severity.ERROR,
            f"reachable configuration wedges the FIFO: {name!r} is in "
            f"{state!r} when {event!r} arrives on {channel!r} (triggered by "
            f"{trigger!r}) and no transition consumes it",
            machine=name, state=state, channel=channel, event=event,
            data={"trigger": trigger, "witness": witness},
            hint=f"handle {event!r} in state {state!r} (even a self-loop "
                 f"documents the race) or stop sending it on this path"))

    def _report_unbounded(self, pending: Tuple, trigger: str,
                          path: Tuple[str, ...]) -> None:
        channels = sorted({channel for _, channel, _ in pending})
        key = ("unbounded", tuple(channels))
        if key in self._reported:
            return
        self._reported.add(key)
        self.diagnostics.append(Diagnostic(
            "sync-unbounded", Severity.ERROR,
            f"the macro-step triggered by {trigger!r} did not quiesce "
            f"within {CASCADE_CAP} consumes (δs still pending on "
            f"{channels}): inject would raise DefinitionError",
            channel=channels[0],
            data={"trigger": trigger, "witness": list(path)},
            hint="break the send/receive cycle so every cascade terminates"))

    def step(self, states: Tuple[str, ...], i: int, transition: Transition,
             path: Tuple[str, ...] = ()
             ) -> Dict[Tuple[str, ...], Tuple[str, ...]]:
        """The configurations the macro-step of machine ``i`` firing the
        free move ``transition`` in ``states`` can end in, each with the
        event path to it (``path`` is the one to ``states``)."""
        trigger = transition.describe()
        moved = states[:i] + (transition.target,) + states[i + 1:]
        # One consume per level; branches that meet are one item.
        level = {(moved, self.sends[id(transition)]):
                 path + (f"{self.names[i]}: {trigger}",)}
        settled: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        depth = 0
        while level:
            following: Dict[Tuple, Tuple[str, ...]] = {}
            for (states, pending), path in level.items():
                if not pending:
                    settled.setdefault(states, path)
                    continue
                if depth == CASCADE_CAP:
                    self._report_unbounded(pending, trigger, path)
                    continue
                (receiver, channel, event), rest = pending[0], pending[1:]
                state = states[receiver]
                consumers = self.receivers.get(
                    (receiver, state, channel, event))
                if consumers is None:
                    self._report_stuck(receiver, state, channel, event,
                                       trigger, path)
                    following.setdefault((states, rest), path)
                    continue
                consume = f"{self.names[receiver]}: {channel} ? {event}"
                for consumer in consumers:
                    following.setdefault(
                        (states[:receiver] + (consumer.target,)
                         + states[receiver + 1:],
                         rest + self.sends[id(consumer)]), path + (consume,))
            level, depth = following, depth + 1
        return settled

    def explore(self) -> None:
        initial = tuple(machine.initial_state for machine in self.machines)
        paths = self.paths = {initial: ()}
        frontier = deque([initial])
        while frontier:
            if len(paths) > _MAX_CONFIGS:
                self.diagnostics.append(Diagnostic(
                    "analysis-incomplete", Severity.INFO,
                    f"product exploration truncated after {_MAX_CONFIGS} "
                    f"configurations; sync-deadlock coverage is partial",
                    hint="findings cover the explored configurations only"))
                return
            states = frontier.popleft()
            for i, state in enumerate(states):
                for transition in self.free_moves.get((i, state), ()):
                    for result, path in self.step(
                            states, i, transition, paths[states]).items():
                        if result not in paths:
                            paths[result] = path
                            frontier.append(result)


def verify_system(machines: Iterable[Efsm]) -> List[Diagnostic]:
    """Verify an interacting system of machines: every
    :func:`verify_machine` rule on each machine, then the cross-machine
    channel-topology rules and the product pass over the macro-steps, so
    one call yields the complete report for the system."""
    machine_list = list(machines)
    diagnostics = [diagnostic for machine in machine_list
                   for diagnostic in verify_machine(machine)]
    diagnostics.extend(_system_topology(machine_list))
    explorer = _ProductExplorer(machine_list)
    explorer.explore()
    diagnostics.extend(explorer.diagnostics)
    return diagnostics
