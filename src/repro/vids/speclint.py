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

Probing samples: guard disjointness (Definition 1's ``P_i ∧ P_j = ∅``) is
checked against :data:`PROBE_SAMPLES` — representative SIP response and
RTP packet argument vectors — in addition to the always-probed empty
vector.
"""

from __future__ import annotations

from typing import Any, Callable, List, Mapping, Optional, Sequence, Set, Tuple

from ..efsm.diagnostics import Diagnostic, errors_only
from ..efsm.errors import SpecVerificationError
from ..efsm.machine import Efsm
from ..efsm.verify import verify_machine, verify_system
from .config import DEFAULT_CONFIG, VidsConfig

__all__ = ["PROBE_SAMPLES", "shipped_machines", "verify_call_system",
           "verify_vids_specs"]

#: Fingerprints of machine sets that already verified clean this process.
#: Verification costs tens of milliseconds and every CallStateFactBase
#: (i.e. every Vids) re-builds structurally identical definitions, so the
#: registration gate would otherwise dominate test-suite time.
_VERIFIED_CLEAN: Set[tuple] = set()


def _code_identity(fn: Optional[Callable]) -> tuple:
    code = getattr(fn, "__code__", None)
    if code is None:
        return (fn is not None,)
    return (code.co_filename, code.co_firstlineno)


def _fingerprint(machines: Sequence[Efsm]) -> tuple:
    """Structure + callable identity of a machine set.

    Two sets with the same fingerprint verify identically: states,
    transitions, channels, and declarations are captured directly, and
    predicates/actions by their defining code location (a monkeypatched or
    edited builder therefore never hits the cache).
    """
    parts = []
    for machine in machines:
        parts.append((
            machine.name, machine.initial_state,
            tuple(sorted(machine.channels)),
            tuple(sorted(machine.final_states)),
            tuple(sorted(machine.attack_states)),
            tuple(sorted(machine.variables)),
            tuple(sorted(machine.global_variables)),
            tuple((t.describe(), _code_identity(t.predicate),
                   _code_identity(t.action),
                   tuple((o.channel, o.event_name,
                          _code_identity(o.args_from)) for o in t.outputs))
                  for t in machine.transitions),
        ))
    return tuple(parts)

#: Event-argument vectors used to probe predicate disjointness.  They cover
#: the response-status classes the SIP guards branch on and a plain media
#: packet for the RTP guards.
PROBE_SAMPLES: Tuple[Mapping[str, Any], ...] = (
    {"status": 180, "cseq_method": "INVITE"},
    {"status": 200, "cseq_method": "INVITE", "to_tag": "t1"},
    {"status": 200, "cseq_method": "BYE"},
    {"status": 487, "cseq_method": "INVITE"},
    {"status": 500, "cseq_method": "INVITE"},
    {"src_ip": "203.0.113.9", "branch": "z9hG4bK-1"},
    {"ssrc": 1, "seq": 10, "ts": 160, "pt": 0,
     "direction": "to_callee"},
)


def verify_call_system(machines: Sequence[Efsm],
                       context: str = "vids call system"
                       ) -> List[Diagnostic]:
    """Verify an interacting machine set; raise on ERROR findings.

    Returns the full diagnostic list (all severities) when clean, or the
    empty list on a cache hit (a structurally identical set already
    verified clean in this process).
    """
    fingerprint = _fingerprint(machines)
    if fingerprint in _VERIFIED_CLEAN:
        return []
    diagnostics = verify_system(machines, samples=PROBE_SAMPLES)
    errors = errors_only(diagnostics)
    if errors:
        details = "; ".join(d.describe() for d in errors[:5])
        raise SpecVerificationError(
            f"spec verification failed for {context}: "
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
    diagnostics: List[Diagnostic] = []
    diagnostics.extend(verify_system([sip, rtp], samples=PROBE_SAMPLES))
    for machine in patterns:
        diagnostics.extend(verify_machine(machine, samples=PROBE_SAMPLES))
    return diagnostics
