"""Seeded plain-data-state violations (codecheck test fixture; AST only)."""


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
    return machine
