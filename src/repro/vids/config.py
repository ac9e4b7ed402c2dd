"""vids configuration: detection thresholds, timers, and the cost model.

Every tunable the paper names is here:

- ``invite_flood_threshold`` (N) and ``invite_flood_window`` (T1) for the
  Figure-4 INVITE-flooding pattern ("Timer T1 sets the time window, under
  which N received INVITE requests are considered as normal");
- ``bye_inflight_timer`` (T) for the Figure-5 BYE DoS pattern ("setting
  timer T to one round trip time should be long enough to receive all
  in-flight RTP packets");
- ``media_spam_seq_gap`` (Δn) and ``media_spam_ts_gap`` (Δt) for the
  Figure-6 media-spamming rules;
- the per-packet processing costs that model the Sun Ultra 10 vids host of
  Section 7 (calibrated so the measured overheads land near the paper's
  100 ms setup delay, ~3.6 % CPU, and ~1.5 ms RTP delay).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["VidsConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class VidsConfig:
    """Tunable parameters of the intrusion detection system."""

    # -- INVITE flooding (Section 6, Figure 4) ------------------------------
    #: N: INVITEs to one callee considered normal within one window.
    invite_flood_threshold: int = 5
    #: T1: the observation window in seconds.
    invite_flood_window: float = 1.0

    # -- DRDoS reflection (Section 3.1) ----------------------------------------
    #: INVITEs from one claimed *source* (across any number of callees)
    #: considered normal within the flood window.  A reflection attack fans
    #: out through the proxy, so the per-callee counters stay low while the
    #: per-source counter trips.
    invite_source_threshold: int = 12

    # -- BYE DoS (Section 6, Figure 5) ---------------------------------------
    #: T: grace period after BYE during which in-flight RTP is legitimate.
    #: The paper recommends one RTT; the testbed RTT is ~100 ms plus jitter.
    bye_inflight_timer: float = 0.25

    # -- Media spamming (Section 6, Figure 6) ---------------------------------
    #: Δn: tolerated jump in RTP sequence numbers between packets.
    media_spam_seq_gap: int = 50
    #: Δt: tolerated jump in RTP timestamp units (8 kHz clock).  Must exceed
    #: legitimate silence-suppression gaps (a few seconds of VAD silence);
    #: 160 000 units = 20 s at 8 kHz.
    media_spam_ts_gap: int = 160_000

    # -- RTP flooding / codec change (Section 3.2) -----------------------------
    #: Window for rate measurement, seconds.
    rtp_flood_window: float = 1.0
    #: Flood declared above (factor x negotiated packet rate) in a window.
    rtp_flood_factor: float = 2.5
    #: Unknown/renegade payload types are flagged when True.
    detect_codec_change: bool = True

    # -- Unsolicited media (extension; orphan streams hit the Fig-6 machine) --
    #: RTP packets to an address with no negotiated session before alerting.
    unsolicited_media_threshold: int = 10

    # -- Registration hijacking (extension) -------------------------------------
    #: Legitimate phones register from *inside* the enterprise, so their
    #: REGISTERs never cross the perimeter device; any REGISTER vids sees
    #: is an outsider trying to (re)bind a local address-of-record.
    detect_foreign_register: bool = True

    # -- Cross-protocol interaction (Section 5) --------------------------------
    #: Master switch for SIP->RTP synchronization messages; turning this off
    #: is the ablation showing BYE DoS / toll fraud become undetectable.
    cross_protocol: bool = True

    # -- Processing-cost model (Section 7) ---------------------------------
    #: CPU seconds to parse + analyse one SIP message (text parsing on the
    #: 333 MHz Sun Ultra dominates; two such messages cross vids before the
    #: 180 arrives, giving the ~100 ms setup-delay overhead).
    sip_processing_cost: float = 0.050
    #: CPU seconds to log + analyse one RTP packet ("packets are logged at
    #: the granularity of a millisecond").
    rtp_processing_cost: float = 0.0012
    #: CPU seconds for non-VoIP packets (classification only).
    other_processing_cost: float = 0.00005

    # -- Robustness / survivability (beyond the paper; docs/ROBUSTNESS.md) ----
    #: Contain unexpected per-packet exceptions: quarantine the offending
    #: call instead of letting the error propagate into the forwarding
    #: path.  Turning this off re-raises (useful when debugging machines).
    crash_containment: bool = True
    #: Malformed packets from one source within ``malformed_rate_window``
    #: before a protocol-fuzzing alert is raised for that source.
    malformed_rate_threshold: int = 20
    #: Observation window (seconds) for the per-source malformed rate.
    malformed_rate_window: float = 1.0
    #: CPU backlog (seconds of queued service time) above which vids sheds
    #: RTP/RTCP deep inspection and runs signaling-only.
    shed_high_watermark: float = 1.0
    #: Backlog below which full inspection resumes.
    shed_low_watermark: float = 0.25
    #: CPU seconds charged for an RTP/RTCP packet while shedding
    #: (classification only; the packet is still forwarded fail-open).
    shed_processing_cost: float = 0.0001

    #: Seconds a quarantined call stays blinded before it is *paroled* —
    #: quarantine lifts and inspection resumes for that call.  ``None``
    #: (the default) keeps the original behaviour: quarantine is permanent
    #: for the call's lifetime and only the record TTL reaps it.  A finite
    #: TTL keeps one transient fault from blinding the IDS to a call
    #: forever (docs/ROBUSTNESS.md "Quarantine parole").
    quarantine_ttl: Optional[float] = None

    # -- Housekeeping --------------------------------------------------------
    #: Idle seconds after which a call record is garbage-collected.
    call_record_ttl: float = 3600.0
    #: Seconds to keep a record after the machines reach final states.
    #: Longer than 64*T1 (32 s) so straggling retransmissions of a closed
    #: call still match their record instead of looking like stray traffic.
    closed_record_linger: float = 35.0

    def with_overrides(self, **overrides) -> "VidsConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **overrides)


DEFAULT_CONFIG = VidsConfig()
