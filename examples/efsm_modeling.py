#!/usr/bin/env python3
"""Modeling your own protocol with the EFSM toolkit.

The paper's Definition 1 formal model is a reusable library: this example
models a toy three-way-handshake protocol with a flooding attack state —
its guards and actions written in the algebra of ``repro.efsm.guards`` —
spec-lints it (among other rules, that it is a deterministic EFSM:
mutually disjoint predicates, decided exactly), runs a trace through it, and exports Graphviz for the
paper-style state diagram.
It also prints the dot for the actual vids SIP/RTP machines.

Run:  python examples/efsm_modeling.py
"""

from repro.efsm import (Efsm, EfsmSystem, Event, ManualClock, Output,
                        errors_only, format_report, to_dot, verify_machine)
from repro.efsm.guards import cancel, helper, start, v, write, x
from repro.vids import build_rtp_machine, build_sip_machine


def plus_one(count: int) -> int:
    return count + 1


def build_handshake_machine() -> Efsm:
    machine = Efsm("handshake", "CLOSED")
    machine.add_state("SYN_RCVD")
    machine.add_state("OPEN", final=True)
    machine.add_state("ATTACK_SynFlood", attack=True)
    machine.declare(pending=0, peer="")
    machine.declare_channel("handshake->peer")

    # Transitions are data: terms x.<field> / v.<name> (with the value a
    # missing one reads as) and named pure helpers over terms, compared with
    # the Python operators and combined with & | ~ in guards, written and
    # used to start or cancel timers in actions.
    pending = v("pending", 0)
    accept_syn = (write("pending", helper(plus_one, pending)),
                  write("peer", helper(str, x("src", ""))),
                  start("handshake_timeout", 2.0))
    machine.add_transition(
        "CLOSED", "SYN", "SYN_RCVD",
        predicate=pending < 3,
        action=accept_syn,
        outputs=[Output("handshake->peer", "SYN_ACK")])
    machine.add_transition(
        "CLOSED", "SYN", "ATTACK_SynFlood",
        predicate=pending >= 3, attack=True)
    machine.add_transition(
        "SYN_RCVD", "ACK", "OPEN",
        predicate=x("src", None) == v("peer"),
        action=cancel("handshake_timeout"))
    machine.add_transition(
        "SYN_RCVD", "SYN", "SYN_RCVD", action=accept_syn,
        label="concurrent-syn")
    machine.add_transition(
        "SYN_RCVD", "handshake_timeout", "CLOSED", channel="timer")
    return machine


def main() -> None:
    machine = build_handshake_machine()

    # Spec-lint: reachability, declared channels and determinism
    # (Definition 1: P_i ∧ P_j = ∅, decided on the guard expressions for
    # every valuation, not sampled).  An ERROR is a broken specification.
    errors = errors_only(verify_machine(machine))
    if errors:
        raise SystemExit(format_report(errors))
    print("spec-lint passed, determinism check passed: same-(state, "
          "event) guards are proven disjoint")

    # Run a trace with a manual clock.
    clock = ManualClock()
    system = EfsmSystem(clock_now=clock.now, timer_scheduler=clock.schedule)
    instance = system.add_machine(machine)
    for event in (Event("SYN", {"src": "10.0.0.7"}),
                  Event("ACK", {"src": "10.0.0.7"})):
        for result in system.inject("handshake", event):
            flag = " [ATTACK]" if result.attack else ""
            flag += " [deviation]" if result.deviation else ""
            print(f"  {result.from_state} --{result.event.name}--> "
                  f"{result.to_state}{flag}")
    print(f"final state: {instance.state}, vars: "
          f"{instance.variables.snapshot()}")

    print("\nGraphviz dot of the toy machine:\n")
    print(to_dot(machine))

    sip = build_sip_machine()
    rtp = build_rtp_machine()
    print(f"\nvids SIP machine: {len(sip.states)} states, "
          f"{len(sip.transitions)} transitions "
          f"(attack states: {sorted(sip.attack_states)})")
    print(f"vids RTP machine: {len(rtp.states)} states, "
          f"{len(rtp.transitions)} transitions "
          f"(attack states: {sorted(rtp.attack_states)})")
    print("\n(write to_dot(sip) output to a .dot file and render with "
          "graphviz to get the paper-style figures)")


if __name__ == "__main__":
    main()
