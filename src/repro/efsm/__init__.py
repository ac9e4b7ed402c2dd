"""Extended finite state machines (the paper's Section 4 formal model)."""

from .analysis import (
    attack_paths,
    coreachable_states,
    event_coverage,
    reachable_states,
    summarize_machine,
)
from .channels import channel_name, parse_channel
from .diagnostics import (
    Diagnostic,
    Severity,
    count_by_severity,
    diagnostics_to_dicts,
    errors_only,
    format_report,
)
from .dot import to_dot
from .errors import (
    DefinitionError,
    EfsmError,
    NondeterminismError,
    SpecVerificationError,
)
from .events import TIMER_CHANNEL, Event
from .machine import (
    Efsm,
    EfsmInstance,
    FiringResult,
    Output,
    Transition,
    Variables,
)
from .specdiff import specdiff
from .system import EfsmSystem, ManualClock
from .verify import RULES, verify_machine, verify_system

__all__ = [
    "DefinitionError",
    "Diagnostic",
    "Efsm",
    "EfsmError",
    "EfsmInstance",
    "EfsmSystem",
    "Event",
    "FiringResult",
    "ManualClock",
    "NondeterminismError",
    "Output",
    "RULES",
    "Severity",
    "SpecVerificationError",
    "TIMER_CHANNEL",
    "Transition",
    "Variables",
    "attack_paths",
    "channel_name",
    "coreachable_states",
    "count_by_severity",
    "diagnostics_to_dicts",
    "errors_only",
    "event_coverage",
    "format_report",
    "parse_channel",
    "reachable_states",
    "specdiff",
    "summarize_machine",
    "to_dot",
    "verify_machine",
    "verify_system",
]
