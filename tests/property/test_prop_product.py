"""Speclint's product pass against the runtime it models.

Random small systems of unguarded machines, each sending only to the
machines after it (so every cascade ends) or to the environment: from
every configuration the product pass reaches, each free move's
macro-step must end where ``EfsmSystem.inject`` ends after a ``restore``
to that configuration, and the pass must report ``sync-deadlock`` for
exactly the δs that ``inject`` deviated on.
"""

from hypothesis import given, settings, strategies as st

from repro.efsm import TIMER_CHANNEL, Efsm, EfsmSystem, Event, Output
from repro.efsm.verify import _ProductExplorer

DATA = ("d0", "d1", "t0")       # t0 arrives on the timer channel
DELTAS = ("e0", "e1")


@st.composite
def systems(draw):
    count = draw(st.integers(2, 3))
    machines = []
    for i in range(count):
        machine = Efsm(f"m{i}", "s0")
        states = [f"s{k}" for k in range(draw(st.integers(1, 3)))]
        for state in states:
            machine.add_state(state)
        receivers = [f"m{j}" for j in range(i + 1, count)] + ["env"]
        machine.declare_channel(
            *(f"m{j}->m{i}" for j in range(i)),
            *(f"m{i}->{receiver}" for receiver in receivers))
        triggers = [(name, TIMER_CHANNEL if name == "t0" else None)
                    for name in DATA] + [
            (delta, f"m{j}->m{i}") for j in range(i) for delta in DELTAS]
        groups = set()
        for _ in range(draw(st.integers(1, 6))):
            source = draw(st.sampled_from(states))
            event, channel = draw(st.sampled_from(triggers))
            if (source, event, channel) in groups:
                continue            # one candidate per group: unguarded
            groups.add((source, event, channel))
            sends = draw(st.lists(st.tuples(st.sampled_from(receivers),
                                            st.sampled_from(DELTAS)),
                                  max_size=2))
            machine.add_transition(
                source, event, draw(st.sampled_from(states)),
                channel=channel,
                outputs=[Output(f"m{i}->{receiver}", delta)
                         for receiver, delta in sends])
        machines.append(machine)
    return machines


def restored(runtime, blank, configuration):
    runtime.restore({**blank, "machines": {
        name: {**machine, "state": state} for (name, machine), state
        in zip(blank["machines"].items(), configuration)}})


@given(systems())
@settings(max_examples=150, deadline=None)
def test_every_product_step_is_the_runtime_macro_step(machines):
    explorer = _ProductExplorer(machines)
    explorer.explore()
    runtime = EfsmSystem()
    for machine in machines:
        runtime.add_machine(machine)
    blank = runtime.snapshot()
    for configuration in explorer.paths:
        for i, machine in enumerate(machines):
            for move in explorer.free_moves.get((i, configuration[i]), ()):
                probe = _ProductExplorer(machines)
                ends = probe.step(configuration, i, move)
                restored(runtime, blank, configuration)
                fired = runtime.inject(machine.name, Event(
                    move.event_name, channel=move.channel))
                assert list(ends) == [tuple(runtime.states().values())]
                deviations = {
                    (result.machine, result.from_state, result.event.channel,
                     result.event.name)
                    for result in fired if result.deviation}
                assert deviations == {
                    (finding.machine, finding.state, finding.channel,
                     finding.event) for finding in probe.diagnostics
                    if finding.rule == "sync-deadlock"}
