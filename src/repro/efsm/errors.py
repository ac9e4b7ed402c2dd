"""EFSM model exceptions."""

from __future__ import annotations

__all__ = ["EfsmError", "DefinitionError", "NondeterminismError",
           "SpecVerificationError"]


class EfsmError(Exception):
    """Base class for EFSM model errors."""


class DefinitionError(EfsmError):
    """A machine definition is malformed (unknown state, duplicate, ...)."""


class NondeterminismError(EfsmError):
    """Two transitions from the same configuration are simultaneously enabled.

    Definition 1 requires predicates on same (state, event) transitions to be
    mutually disjoint for the EFSM to be deterministic; this error is raised
    when a determinism check, or freezing the definition, finds an overlap.
    """


class SpecVerificationError(EfsmError):
    """Static spec verification found ERROR-severity findings.

    Raised by the vids registration-time gate (:func:`repro.vids.spec.
    call_spec`, before any pipeline of that config runs) so a broken
    specification fails fast instead of silently weakening detection.
    ``diagnostics`` carries the offending findings.
    """

    def __init__(self, message: str, diagnostics=()):
        super().__init__(message)
        self.diagnostics = list(diagnostics)
