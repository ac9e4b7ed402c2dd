"""Event Distributor (paper Section 5).

"The Event Distributor component further classifies the received packets
into the session and protocol dependent groups with the help of Call State
Fact Base, and then distributes to the corresponding protocol state
machine."

SIP messages are grouped by Call-ID; RTP packets are grouped by matching
their destination against the media endpoints negotiated in SDP (kept in
the fact base's media index).  INVITEs additionally feed the per-target
Figure-4 flooding machines, and orphan RTP streams feed the standalone
Figure-6 machines.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

from ..efsm.events import Event
from ..sip.constants import INVITE, OPTIONS, REGISTER
from ..sip.errors import SipParseError
from ..sip.headers import CSeq, name_addr_fields, via_fields
from ..sip.message import SipRequest, SipResponse
from ..sip.sdp import media_brief
from .classifier import ClassifiedPacket, PacketKind
from .config import VidsConfig
from .engine import AnalysisEngine
from .factbase import CallStateFactBase
from .patterns.cross_call import CrossCallTrackers
from .sync import RTP_MACHINE, SIP_MACHINE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs import TraceBus

__all__ = ["EventDistributor", "sip_event_from_message", "rtp_event_from_packet"]


def sip_event_from_message(message: Union[SipRequest, SipResponse],
                           src: Tuple[str, int], dst: Tuple[str, int],
                           now: float,
                           metrics: Optional["VidsMetrics"] = None) -> Event:
    """Build the EFSM input vector x from a SIP message on the wire.

    One walk over the parsed header list finds every header the vector
    reads (Call-ID and Content-Type too: nothing re-scans it), as the
    cached field tuples the typed ``X.parse`` values are built from, so
    no header object is built.  An SDP body adds the first audio stream's
    ``media_brief``; one that cannot be read is counted in
    ``metrics.sdp_parse_failures``.
    """
    from_value = to_value = cseq_value = contact_value = None
    call_id = content_type = None
    via_hosts: List[str] = []
    branch = None
    for name, value in message.headers:
        if name == "Via":
            # (host, port, transport, params, branch)
            via = via_fields(value)
            if not via_hosts:
                branch = via[4]
            via_hosts.append(via[0])
        elif name == "From":
            if from_value is None:
                from_value = value
        elif name == "To":
            if to_value is None:
                to_value = value
        elif name == "Call-ID":
            if call_id is None:
                call_id = value
        elif name == "CSeq":
            if cseq_value is None:
                cseq_value = value
        elif name == "Contact":
            if contact_value is None:
                contact_value = value
        elif name == "Content-Type":
            if content_type is None:
                content_type = value
    # A name-addr is (uri, display_name, params, tag), its uri
    # (user, host, port, params, address_of_record).
    from_addr = name_addr_fields(from_value) if from_value else None
    to_addr = name_addr_fields(to_value) if to_value else None
    contact = name_addr_fields(contact_value) if contact_value else None
    cseq = CSeq.parse(cseq_value) if cseq_value else None
    args: Dict[str, Any] = {
        "src_ip": src[0],
        "src_port": src[1],
        "dst_ip": dst[0],
        "call_id": call_id or "",
        "from_tag": from_addr[3] if from_addr else None,
        "to_tag": to_addr[3] if to_addr else None,
        "to_aor": to_addr[0][4] if to_addr else "",
        "branch": branch or "",
        "cseq_num": cseq.number if cseq else 0,
        "cseq_method": cseq.method if cseq else "",
        "contact_host": contact[0][1] if contact else None,
        "via_hosts": tuple(via_hosts),
    }
    body = message.body
    if body and (not content_type or "sdp" in content_type.lower()):
        try:
            brief = media_brief(body)
        except SipParseError:
            # Counted, not dropped: the message still drives the SIP
            # machine, but a fuzzing campaign against SDP shows.
            brief = None
            if metrics is not None:
                metrics.sdp_parse_failures += 1
        if brief is not None:
            (args["sdp_addr"], args["sdp_port"], args["sdp_pts"],
             args["sdp_ptime"]) = brief
    if isinstance(message, SipRequest):
        name = message.method
        user, args["uri_host"] = message.target
        args["uri_user"] = user or ""
    else:
        name = "RESPONSE"
        args["status"] = message.status
    return Event(name, args, channel=None, time=now)


def rtp_event_from_packet(classified: ClassifiedPacket, direction: str,
                          now: float) -> Event:
    """Build the RTP machine's input vector x from a classified packet."""
    packet = classified.rtp
    assert packet is not None
    datagram = classified.datagram
    return Event("RTP_PACKET", {
        "src_ip": datagram.src.ip,
        "src_port": datagram.src.port,
        "dst_ip": datagram.dst.ip,
        "ssrc": packet.ssrc,
        "seq": packet.sequence_number,
        "ts": packet.timestamp,
        "pt": packet.payload_type,
        "direction": direction,
    }, channel=None, time=now)


class EventDistributor:
    """Routes classified packets into the right per-call machines."""

    def __init__(
        self,
        config: VidsConfig,
        factbase: CallStateFactBase,
        engine: AnalysisEngine,
        trackers: CrossCallTrackers,
        clock_now,
        trace: Optional["TraceBus"] = None,
    ):
        self.config = config
        self.factbase = factbase
        self.engine = engine
        #: The deployment's cross-call state (shared by every shard).
        self.trackers = trackers
        self.clock_now = clock_now
        #: Routing trace (None keeps the path bare).
        self.trace = trace

    def _route(self, classified: ClassifiedPacket, now: float,
               outcome: str, call_id: Optional[str] = None,
               **extra: Any) -> None:
        """Emit one routing-decision event (only called when tracing)."""
        self.trace.emit("route", now, call_id=call_id,
                        packet_id=classified.datagram.packet_id,
                        protocol=classified.kind.value, outcome=outcome,
                        **extra)

    @staticmethod
    def inject(record, machine: str, event: Event):
        """Deliver ``event`` to one machine of the call's system (a
        profiled ``Vids`` rebinds this, timed as the 'fire' stage)."""
        return record.system.inject(machine, event)

    def distribute(self, classified: ClassifiedPacket,
                   now: Optional[float] = None):
        """Route one packet; returns the touched CallRecord, if any.

        ``now`` lets the facade pass the clock reading it already took for
        this packet instead of paying another clock call per packet.
        """
        if now is None:
            now = self.clock_now()
        if classified.kind is PacketKind.SIP:
            return self._distribute_sip(classified, now)
        if classified.kind is PacketKind.RTP:
            return self._distribute_rtp(classified, now)
        # RTCP / OTHER / MALFORMED_SIP are counted by the facade.
        return None

    # -- SIP ----------------------------------------------------------------

    def _distribute_sip(self, classified: ClassifiedPacket,
                        now: float) -> None:
        message = classified.sip
        assert message is not None
        datagram = classified.datagram
        trace = self.trace
        factbase = self.factbase
        if factbase.quarantined:
            call_id = message.call_id or ""
            if call_id and factbase.is_quarantined(call_id):
                factbase.metrics.quarantined_drops += 1
                if trace is not None:
                    self._route(classified, now, "quarantined-drop",
                                call_id)
                return None
        # An Endpoint is the (ip, port) tuple the builder takes.
        event = sip_event_from_message(message, datagram.src, datagram.dst,
                                       now, metrics=factbase.metrics)
        call_id = event.args["call_id"]
        name = event.name           # the method, or RESPONSE

        if name == REGISTER:
            # Legitimate registrations are intra-enterprise and never reach
            # the perimeter; seeing one here is a hijack attempt.
            if self.config.detect_foreign_register:
                self.engine.note_foreign_register(
                    event.get("to_aor") or "?", event.get("contact_host"),
                    datagram.src.ip, datagram.dst.ip)
            if trace is not None:
                self._route(classified, now, "register-perimeter", call_id)
            return None
        if name == OPTIONS:
            if trace is not None:
                self._route(classified, now, "options-ignored", call_id)
            return None  # not call-scoped; outside the per-call machines

        is_new_invite = name == INVITE and not event.args["to_tag"]

        if is_new_invite:
            trackers = self.trackers
            trackers.flood_tracker.observe_invite(
                self._flood_target(event), event)
            trackers.source_flood_tracker.observe_invite(
                str(event.get("src_ip", "")), event)

        record = factbase.get(call_id)
        if record is None:
            if is_new_invite and call_id:
                record = factbase.get_or_create(call_id)
            elif name != "RESPONSE":
                # A stray ACK is harmless (late 2xx-ACK retransmission); a
                # stray BYE/CANCEL/re-INVITE targets call state we never saw
                # and is worth an administrator's attention.
                if name != "ACK":
                    self.engine.note_stray_request(
                        name, call_id or None,
                        datagram.src.ip, datagram.dst.ip)
                if trace is not None:
                    self._route(classified, now, "stray-request", call_id,
                                method=name)
                return None
            else:
                if trace is not None:
                    self._route(classified, now, "stray-response", call_id)
                return None  # stray response: nothing to correlate
        if trace is not None:
            self._route(classified, now, "inject", call_id,
                        machine=SIP_MACHINE, event=name)
        self.inject(record, SIP_MACHINE, event)
        factbase.refresh_media_index(record)
        factbase.touch(record, now)
        return record

    def _flood_target(self, event: Event) -> str:
        """Flood-pattern key: callee AOR, or the raw destination address."""
        to_aor = str(event.get("to_aor", "") or "")
        if to_aor:
            return to_aor
        uri_user = str(event.get("uri_user", "") or "")
        uri_host = str(event.get("uri_host", "") or "")
        if uri_user or uri_host:
            return f"{uri_user}@{uri_host}"
        return str(event.get("dst_ip", ""))

    # -- RTP ----------------------------------------------------------------

    def _distribute_rtp(self, classified: ClassifiedPacket,
                        now: float) -> None:
        trace = self.trace
        factbase = self.factbase
        # An Endpoint hashes and compares as the (ip, port) tuple the media
        # tables are keyed by, so look-ups take it as it is.
        destination = classified.datagram.dst
        if factbase.quarantined_media:
            quarantined_call = factbase.quarantined_media_call(destination)
            if quarantined_call is not None:
                # Lingering media of a quarantined call: drop from inspection
                # (still forwarded on the wire) rather than feeding the orphan
                # tracker with a stream we know the history of.
                factbase.metrics.quarantined_drops += 1
                if trace is not None:
                    self._route(classified, now, "quarantined-media",
                                quarantined_call)
                return None
        match = factbase.lookup_media(destination)
        if match is None:
            event = rtp_event_from_packet(classified, "orphan", now)
            # The tracker stores its key (and checkpoints it): a plain tuple.
            self.trackers.orphan_tracker.observe(tuple(destination), event)
            if trace is not None:
                self._route(classified, now, "orphan-media",
                            dst=f"{destination[0]}:{destination[1]}")
            return None
        record, direction = match
        event = rtp_event_from_packet(classified, direction, now)
        if trace is not None:
            self._route(classified, now, "inject", record.call_id,
                        machine=RTP_MACHINE, direction=direction)
        self.inject(record, RTP_MACHINE, event)
        factbase.touch(record, now)
        return record
