"""Spec-lint integration: static verification of the vids machines.

Thin vids-side wrapper over :mod:`repro.efsm.verify`.  Three consumers:

- :class:`~repro.vids.factbase.CallStateFactBase` calls
  :func:`verify_call_system` on the machine definitions it just built
  (when ``VidsConfig.verify_specs`` is on) and refuses to start on
  ERROR-severity findings — a broken specification should fail fast at
  registration time, not silently weaken detection;
- the ``speclint`` CLI subcommand and the test suite call
  :func:`verify_vids_specs` for the full report over the shipped SIP/RTP
  call system plus the standalone attack-pattern machines.
"""

from __future__ import annotations

from typing import List, Sequence, Set

from ..efsm.diagnostics import Diagnostic, errors_only
from ..efsm.errors import SpecVerificationError
from ..efsm.machine import Efsm
from ..efsm.verify import verify_machine, verify_system
from .config import DEFAULT_CONFIG, VidsConfig

__all__ = ["shipped_machines", "verify_call_system", "verify_vids_specs"]

#: Fingerprints of machine sets that already verified clean this process.
#: Verification costs milliseconds and every CallStateFactBase
#: (i.e. every Vids) re-builds structurally identical definitions, so the
#: registration gate would otherwise dominate test-suite time.
_VERIFIED_CLEAN: Set[tuple] = set()


def _fingerprint(machines: Sequence[Efsm]) -> tuple:
    """Structure of a machine set.

    Two sets with the same fingerprint verify identically: states,
    transitions, guards, statements, outputs, channels and declarations
    are all data, captured through their structural keys.
    """
    return tuple(
        (machine.name, machine.initial_state,
         frozenset(machine.channels), frozenset(machine.final_states),
         frozenset(machine.attack_states), frozenset(machine.variables),
         frozenset(machine.global_variables),
         tuple((t.source, t.event_name, t.target, t.channel, t.describe(),
                None if t.predicate is None else t.predicate.key,
                tuple(statement.key for statement in t.action),
                tuple((o.channel, o.event_name, None if o.args is None else
                       tuple((name, term.key)
                             for name, term in o.args.items()))
                      for o in t.outputs))
               for t in machine.transitions))
        for machine in machines)


def verify_call_system(machines: Sequence[Efsm]) -> List[Diagnostic]:
    """Verify an interacting machine set; raise on ERROR findings.

    Returns the full diagnostic list (all severities) when clean, or the
    empty list on a cache hit (a structurally identical set already
    verified clean in this process).
    """
    fingerprint = _fingerprint(machines)
    if fingerprint in _VERIFIED_CLEAN:
        return []
    diagnostics = verify_system(machines)
    errors = errors_only(diagnostics)
    if errors:
        details = "; ".join(d.describe() for d in errors[:5])
        raise SpecVerificationError(
            f"spec verification failed for the vids call system: "
            f"{len(errors)} ERROR finding(s): {details}",
            diagnostics=errors)
    _VERIFIED_CLEAN.add(fingerprint)
    return diagnostics


def shipped_machines(config: VidsConfig = DEFAULT_CONFIG) -> List[Efsm]:
    """Every machine vids ships, as ``config`` parameterises them.

    The per-call SIP and RTP machines first, then the standalone
    INVITE-flood (Figure 4) and media-spam (Figure 6) pattern machines.
    """
    # Imports are local so a broken builder surfaces as a diagnostic-laden
    # report path, not an import cycle at package-import time.
    from .patterns.invite_flood import build_invite_flood_machine
    from .patterns.media_spam import build_media_spam_machine
    from .rtp_machine import build_rtp_machine
    from .sip_machine import build_sip_machine

    return [
        build_sip_machine(config),
        build_rtp_machine(config),
        build_invite_flood_machine(config.invite_flood_threshold,
                                   config.invite_flood_window),
        build_media_spam_machine(config.media_spam_seq_gap,
                                 config.media_spam_ts_gap),
    ]


def verify_vids_specs(config: VidsConfig = DEFAULT_CONFIG
                      ) -> List[Diagnostic]:
    """Full spec-lint report over every machine vids ships.

    The SIP and RTP machines are verified as an interacting *system*
    (channel topology + product-automaton pass); the INVITE-flood and
    media-spam pattern machines are standalone, so only the per-machine
    rules apply to them.  Never raises: callers inspect severities.
    """
    sip, rtp, *patterns = shipped_machines(config)
    diagnostics = verify_system([sip, rtp])
    for machine in patterns:
        diagnostics.extend(verify_machine(machine))
    return diagnostics
