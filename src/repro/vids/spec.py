"""The call system as one value: every machine vids runs, per config.

:func:`call_spec` builds the machines, refuses to start on an ERROR
spec-lint finding — a broken specification fails fast, it does not
silently weaken detection — and freezes them, memoised per config: every
fact base, tracker, shard and restarted member of a process runs the same
definitions, and no packet pays a compile.  ``digest`` names the spec
across processes; a checkpoint carries it (docs/SPECCHECK.md).
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Any, List, Tuple

from ..efsm.diagnostics import Diagnostic, errors_only
from ..efsm.errors import SpecVerificationError
from ..efsm.guards import MISSING
from ..efsm.machine import Efsm
from ..efsm.verify import verify_machine, verify_system
from .config import DEFAULT_CONFIG, VidsConfig

__all__ = ["CallSpec", "call_spec"]


def _canonical(value: Any) -> str:
    """``value`` as text, the same in every process."""
    if isinstance(value, (frozenset, set)):
        return "{%s}" % ",".join(sorted(map(_canonical, value)))
    if isinstance(value, tuple):
        return "(%s)" % ",".join(map(_canonical, value))
    return "MISSING" if value is MISSING else repr(value)


@dataclass(frozen=True)
class CallSpec:
    """The per-call SIP and RTP machines, the Figure-4 machine per flood
    target and per claimed source, the Figure-6 machine, and the SHA-256
    ``digest`` of their structure."""

    sip: Efsm
    rtp: Efsm
    flood: Efsm
    source_flood: Efsm
    media_spam: Efsm
    digest: str

    @classmethod
    def build(cls, config: VidsConfig = DEFAULT_CONFIG) -> "CallSpec":
        """The machines ``config`` parameterises, unverified and unfrozen."""
        # Local imports: the pattern package imports this module.
        from .patterns.invite_flood import build_invite_flood_machine
        from .patterns.media_spam import build_media_spam_machine
        from .rtp_machine import build_rtp_machine
        from .sip_machine import build_sip_machine

        machines = (
            build_sip_machine(config), build_rtp_machine(config),
            build_invite_flood_machine(config.invite_flood_threshold,
                                       config.invite_flood_window),
            build_invite_flood_machine(config.invite_source_threshold,
                                       config.invite_flood_window),
            build_media_spam_machine(config.media_spam_seq_gap,
                                     config.media_spam_ts_gap,
                                     config.unsolicited_media_threshold))
        text = _canonical(tuple(machine.key for machine in machines))
        return cls(*machines, digest=hashlib.sha256(text.encode()).hexdigest())

    @property
    def machines(self) -> Tuple[Efsm, ...]:
        """One machine of each shape: the per-source flood machine is the
        per-target one with another N."""
        return (self.sip, self.rtp, self.flood, self.media_spam)

    def diagnostics(self) -> List[Diagnostic]:
        """Full spec-lint report: the SIP and RTP machines as an
        interacting *system* (channel topology + product-automaton pass),
        the pattern machines standalone, so only the per-machine rules
        apply to them."""
        diagnostics = verify_system([self.sip, self.rtp])
        for machine in self.machines[2:]:
            diagnostics.extend(verify_machine(machine))
        return diagnostics

    def verified(self) -> "CallSpec":
        """This spec, every definition frozen; raises
        :class:`SpecVerificationError` on an ERROR finding instead."""
        errors = errors_only(self.diagnostics())
        if errors:
            details = "; ".join(d.describe() for d in errors[:5])
            raise SpecVerificationError(
                f"spec verification failed for the vids call system: "
                f"{len(errors)} ERROR finding(s): {details}",
                diagnostics=errors)
        for machine in (*self.machines, self.source_flood):
            machine.freeze()
        return self


@functools.lru_cache(maxsize=16)
def call_spec(config: VidsConfig = DEFAULT_CONFIG) -> CallSpec:
    """The verified, frozen spec of ``config``: one per config and
    process."""
    return CallSpec.build(config).verified()
