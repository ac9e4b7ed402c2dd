"""The SIP event vector's reference, test side.

:func:`sip_event_from_message` is the builder ``repro.vids.distributor``
shipped before the signalling path was cut to one header walk: it reads
every field through its own pass over the parsed header list, asks the
message for ``Content-Type`` again, and gets the SDP attributes through a
helper of its own.  It reaches the header values through the typed
objects (``Via.parse``, ``NameAddr.parse``, ``CSeq.parse``), where the
shipped builder reads the cached field tuples behind them, and it derives
the branch, the tags and the address-of-record from those objects'
``params``, ``user`` and ``host`` itself rather than taking the fields the
splitters precompute.  So the two share the splitting and validation of
the header text (and ``media_brief``) and nothing else; the event-vector
parity property (``tests/property/test_prop_sip_event.py``) holds them to
the same ``Event.name`` and ``args`` and the same malformed and
SDP-failure counts.
"""

from repro.efsm.events import Event
from repro.sip.errors import SipParseError
from repro.sip.headers import CSeq, NameAddr, Via
from repro.sip.message import SipRequest
from repro.sip.sdp import media_brief


def _add_sdp_fields(args, message, metrics):
    """Add the media attributes the machines care about from an SDP body."""
    body = message.body
    if not body:
        return
    content_type = message.get("Content-Type")
    if content_type and "sdp" not in content_type.lower():
        return
    try:
        brief = media_brief(body)
    except SipParseError:
        if metrics is not None:
            metrics.sdp_parse_failures += 1
        return
    if brief is not None:
        (args["sdp_addr"], args["sdp_port"], args["sdp_pts"],
         args["sdp_ptime"]) = brief


def _address_of_record(uri):
    return f"{uri.user}@{uri.host}" if uri.user else uri.host


def sip_event_from_message(message, src, dst, now, metrics=None):
    """Build the EFSM input vector x from a SIP message on the wire."""
    from_value = to_value = cseq_value = contact_value = found_call_id = None
    via_hosts = []
    branch = None
    for name, value in message.headers:
        if name == "Via":
            via = Via.parse(value)
            if not via_hosts:
                branch = via.params.get("branch")
            via_hosts.append(via.host)
        elif name == "From":
            if from_value is None:
                from_value = value
        elif name == "To":
            if to_value is None:
                to_value = value
        elif name == "CSeq":
            if cseq_value is None:
                cseq_value = value
        elif name == "Contact":
            if contact_value is None:
                contact_value = value
        elif name == "Call-ID":
            if found_call_id is None:
                found_call_id = value
    from_addr = NameAddr.parse(from_value) if from_value else None
    to_addr = NameAddr.parse(to_value) if to_value else None
    contact = NameAddr.parse(contact_value) if contact_value else None
    cseq = CSeq.parse(cseq_value) if cseq_value else None
    args = {
        "src_ip": src[0],
        "src_port": src[1],
        "dst_ip": dst[0],
        "call_id": found_call_id or "",
        "from_tag": from_addr.params.get("tag") if from_addr else None,
        "to_tag": to_addr.params.get("tag") if to_addr else None,
        "to_aor": _address_of_record(to_addr.uri) if to_addr else "",
        "branch": branch or "",
        "cseq_num": cseq.number if cseq else 0,
        "cseq_method": cseq.method if cseq else "",
        "contact_host": contact.uri.host if contact else None,
        "via_hosts": tuple(via_hosts),
    }
    _add_sdp_fields(args, message, metrics)
    if isinstance(message, SipRequest):
        name = message.method
        args["uri_host"] = message.uri.host
        args["uri_user"] = message.uri.user or ""
    else:
        name = "RESPONSE"
        args["status"] = message.status
    return Event(name, args, channel=None, time=now)
