"""Structured diagnostics for static EFSM specification verification.

The spec-lint subsystem (:mod:`repro.efsm.verify`) reports findings as
:class:`Diagnostic` records rather than raising: a linter's job is to show
*every* problem, attribute each to a rule, and let the caller decide what is
fatal.  Three consumers share this vocabulary:

- the ``speclint`` CLI subcommand (text and JSON rendering, exit codes);
- the vids engine's registration-time gate (fail-fast on ERROR findings);
- the pytest suite asserting the shipped SIP/RTP specs are clean.

Rule identifiers are stable strings (``unreachable-state``,
``sync-deadlock``, ...) documented in ``docs/SPECCHECK.md``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "Severity",
    "Diagnostic",
    "errors_only",
    "count_by_severity",
    "format_report",
    "diagnostics_to_dicts",
]


class Severity(enum.IntEnum):
    """Finding severity; ordering is meaningful (ERROR > WARNING > INFO)."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:  # "ERROR" instead of "Severity.ERROR"
        return self.name


@dataclass(frozen=True)
class Diagnostic:
    """One spec-lint finding: rule id, severity, location, and a fix hint."""

    rule: str
    severity: Severity
    message: str
    machine: Optional[str] = None
    state: Optional[str] = None
    transition: Optional[str] = None
    channel: Optional[str] = None
    event: Optional[str] = None
    hint: str = ""
    #: Free-form extra context (path witnesses, sampled valuations, ...).
    data: Dict[str, Any] = field(default_factory=dict, compare=False)

    def location(self) -> str:
        """Compact ``machine[/state][/transition]`` locator string."""
        parts = [self.machine or "<system>"]
        if self.state:
            parts.append(f"state={self.state}")
        if self.transition:
            parts.append(f"transition={self.transition}")
        if self.channel:
            parts.append(f"channel={self.channel}")
        if self.event:
            parts.append(f"event={self.event}")
        return " ".join(parts)

    def describe(self) -> str:
        text = f"{self.severity}: [{self.rule}] {self.location()}: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": str(self.severity),
            "message": self.message,
            "machine": self.machine,
            "state": self.state,
            "transition": self.transition,
            "channel": self.channel,
            "event": self.event,
            "hint": self.hint,
            "data": dict(self.data),
        }


def errors_only(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    return [d for d in diagnostics if d.severity >= Severity.ERROR]


def count_by_severity(diagnostics: Iterable[Diagnostic]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for diagnostic in diagnostics:
        key = str(diagnostic.severity)
        counts[key] = counts.get(key, 0) + 1
    return counts


def diagnostics_to_dicts(diagnostics: Iterable[Diagnostic]) -> List[Dict[str, Any]]:
    return [d.to_dict() for d in diagnostics]


def format_report(diagnostics: Iterable[Diagnostic],
                  min_severity: Severity = Severity.INFO) -> str:
    """Human-readable report grouped by machine, worst findings first."""
    shown = sorted(
        (d for d in diagnostics if d.severity >= min_severity),
        key=lambda d: (d.machine or "", -int(d.severity), d.rule,
                       d.state or "", d.message),
    )
    if not shown:
        return "speclint: no findings"
    lines: List[str] = []
    current: Optional[str] = None   # group names are never empty
    for diagnostic in shown:
        group = diagnostic.machine or "<system>"
        if group != current:
            lines.append(f"-- {group} --")
            current = group
        lines.append(f"  {diagnostic.describe()}")
    counts = count_by_severity(shown)
    summary = ", ".join(f"{counts[name]} {name.lower()}"
                        for name in ("ERROR", "WARNING", "INFO")
                        if name in counts)
    lines.append(f"speclint: {summary}")
    return "\n".join(lines)
