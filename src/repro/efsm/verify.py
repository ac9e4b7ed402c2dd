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
  expressions (:func:`~repro.efsm.guards.decide`, the decision
  :meth:`Efsm.check_determinism` raises on too): an overlap is an ERROR
  with a witness valuation, a group that cannot be decided (an ordering
  against a non-numeric constant, a substring test) is a WARNING;
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
- ``sync-deadlock`` / ``sync-unbounded`` — a bounded product-automaton pass
  over the interacting system that flags reachable configurations where a
  queued synchronization event can never be consumed (a wedged FIFO is a
  runtime deviation on a *legitimate* trace) or where a FIFO can grow past
  the exploration bound.

Nothing is executed: guards, statements and output arguments are data,
and machine state is never advanced.  Every send is a declarative
:class:`~repro.efsm.machine.Output`, so the topology and product passes see
all of them by construction.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

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
    "sync-unbounded": "a sync FIFO can exceed the exploration bound",
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
                f"the δ would sit in the FIFO forever",
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


class _ProductExplorer:
    """Bounded reachability over the product of the interacting machines.

    Models the runtime's semantics: data (and timer) events are *free* moves
    whose guards are over-approximated as satisfiable; synchronization
    events queue on their FIFO channel and are drained to empty — with
    priority over data events — after every move.  A queued head event the
    receiver cannot consume is exactly the runtime's "deviation on a sync
    event" failure mode, reported as ``sync-deadlock``.
    """

    def __init__(self, machines: Sequence[Efsm], queue_bound: int,
                 max_configs: int):
        self.machines = list(machines)
        self.names = [machine.name for machine in self.machines]
        self.index = {name: i for i, name in enumerate(self.names)}
        self.queue_bound = queue_bound
        self.max_configs = max_configs
        #: Consume steps allowed in one drain cascade.  A cascade that emits
        #: one sync per consume keeps the queue depth constant forever (a
        #: ping-pong livelock the queue bound never catches), so cap the
        #: steps as well.
        self.drain_cap = 64
        self.diagnostics: List[Diagnostic] = []
        self._reported: Set[Tuple] = set()
        self.truncated = False
        # (machine index, state) -> free-move transitions.
        self.free_moves: Dict[Tuple[int, str], List[Transition]] = {}
        # (machine index, state, channel, event) -> receiving transitions.
        self.receivers: Dict[Tuple[int, str, str, str], List[Transition]] = {}
        for i, machine in enumerate(self.machines):
            for transition in machine.transitions:
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

    def _drain(self, states: Tuple[str, ...],
               queues: Mapping[str, Tuple[str, ...]],
               trigger: str, path: Tuple[str, ...] = (),
               depth: int = 0) -> Dict[Tuple[str, ...], Tuple[str, ...]]:
        """Quiescent state vectors reachable by consuming queued syncs.

        Returns vector -> the event path that reached it (the first path
        found per vector; with the BFS in :meth:`explore` feeding the
        prefixes, that is a shortest witness up to drain ordering).
        """
        live = {channel: queue for channel, queue in queues.items() if queue}
        if not live:
            return {states: path}
        if depth > self.drain_cap:
            self._report_livelock(sorted(live), trigger, path)
            return {}
        results: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        for channel in sorted(live):
            queue = live[channel]
            event = queue[0]
            receiver_name = parse_channel(channel)[1]
            receiver_index = self.index.get(receiver_name)
            if receiver_index is None:
                continue          # reported by the topology pass
            matches = self.receivers.get(
                (receiver_index, states[receiver_index], channel, event), [])
            if not matches:
                self._report_stuck(receiver_index, states[receiver_index],
                                   channel, event, trigger, path)
                continue
            for transition in matches:
                new_states = list(states)
                new_states[receiver_index] = transition.target
                new_queues = dict(live)
                new_queues[channel] = queue[1:]
                step = (f"{self.names[receiver_index]}: "
                        f"{channel} ? {event}")
                overflow = False
                for output in transition.outputs:
                    extended = (new_queues.get(output.channel, ())
                                + (output.event_name,))
                    if len(extended) > self.queue_bound:
                        self._report_overflow(output.channel, trigger,
                                              path + (step,))
                        overflow = True
                        break
                    new_queues[output.channel] = extended
                if overflow:
                    continue
                for vector, sub_path in self._drain(
                        tuple(new_states), new_queues, trigger,
                        path + (step,), depth + 1).items():
                    results.setdefault(vector, sub_path)
        return results

    def _report_livelock(self, channels: Sequence[str], trigger: str,
                         path: Tuple[str, ...]) -> None:
        key = ("livelock", tuple(channels))
        if key in self._reported:
            return
        self._reported.add(key)
        self.diagnostics.append(Diagnostic(
            "sync-unbounded", Severity.WARNING,
            f"sync cascade on channel(s) {list(channels)} did not quiesce "
            f"within {self.drain_cap} consume steps (triggered by "
            f"{trigger!r}): machines may exchange sync events forever",
            channel=channels[0],
            data={"trigger": trigger, "witness": list(path)},
            hint="break the send/receive cycle so every cascade terminates"))

    def _report_overflow(self, channel: str, trigger: str,
                         path: Tuple[str, ...]) -> None:
        key = ("overflow", channel)
        if key in self._reported:
            return
        self._reported.add(key)
        self.diagnostics.append(Diagnostic(
            "sync-unbounded", Severity.WARNING,
            f"FIFO {channel!r} exceeded the exploration bound "
            f"({self.queue_bound}) while draining (triggered by "
            f"{trigger!r}): a send cycle may grow the queue without bound",
            channel=channel,
            data={"trigger": trigger, "witness": list(path)},
            hint="break the sync cycle or raise the bound if intentional"))

    def explore(self) -> None:
        initial = tuple(machine.initial_state for machine in self.machines)
        visited: Set[Tuple[str, ...]] = {initial}
        # Shortest known event path to each visited configuration: the BFS
        # discovery order makes the first recorded path minimal in free
        # moves, which keeps sync-deadlock witnesses short and stable.
        paths: Dict[Tuple[str, ...], Tuple[str, ...]] = {initial: ()}
        frontier = deque([initial])
        while frontier:
            if len(visited) > self.max_configs:
                self.truncated = True
                break
            states = frontier.popleft()
            base = paths[states]
            for i in range(len(self.machines)):
                for transition in self.free_moves.get((i, states[i]), ()):
                    moved = list(states)
                    moved[i] = transition.target
                    queues: Dict[str, Tuple[str, ...]] = {}
                    for output in transition.outputs:
                        queues[output.channel] = (
                            queues.get(output.channel, ())
                            + (output.event_name,))
                    step = f"{self.names[i]}: {transition.describe()}"
                    for result, sub_path in self._drain(
                            tuple(moved), queues, transition.describe(),
                            base + (step,)).items():
                        if result not in visited:
                            visited.add(result)
                            paths[result] = sub_path
                            frontier.append(result)
        if self.truncated:
            self.diagnostics.append(Diagnostic(
                "analysis-incomplete", Severity.INFO,
                f"product exploration truncated after {self.max_configs} "
                f"configurations; sync-deadlock coverage is partial",
                hint="raise max_configs for exhaustive coverage"))


def verify_system(machines: Iterable[Efsm],
                  queue_bound: int = 4,
                  max_configs: int = 20000,
                  per_machine: bool = True) -> List[Diagnostic]:
    """Verify an interacting system of machines (plus each machine alone).

    Runs the cross-machine channel-topology rules and the bounded
    product-automaton pass over sync channels; with ``per_machine`` (the
    default) every :func:`verify_machine` rule runs first, so one call
    yields the complete report for the system.
    """
    machine_list = list(machines)
    diagnostics: List[Diagnostic] = []
    if per_machine:
        for machine in machine_list:
            diagnostics.extend(verify_machine(machine))
    diagnostics.extend(_system_topology(machine_list))
    explorer = _ProductExplorer(machine_list, queue_bound=queue_bound,
                                max_configs=max_configs)
    explorer.explore()
    diagnostics.extend(explorer.diagnostics)
    return diagnostics
