"""Seeded plain-data-state violations (codecheck test fixture; AST only)."""


class Exotic:
    pass


def build(machine):
    machine.declare(
        ok=0,
        items=(),
        factory=lambda: 1,              # PD001: callable state
        gen=(n for n in range(3)),      # PD001: generator state
        table={},                       # PD001: mutable container (display)
        seen=set(),                     # PD001: mutable container (call)
        pair=(0, []),                   # PD001: ... inside a tuple
        frozen=frozenset(),             # immutable: fine
    )
    machine.declare_global(handle=open("/dev/null"))  # PD001: file handle

    def action(ctx):
        ctx.v["obj"] = Exotic()         # PD001: custom class instance
        ctx.v["num"] = 41 + 1           # plain data: fine
        ctx.v["log"] = [n for n in ctx.v["items"]]   # PD001: comprehension
        ctx.v["items"] = ctx.v["items"] + (1,)       # rebuilt tuple: fine

    machine.add_transition("s0", "e", "s0", action=action)
    return machine
