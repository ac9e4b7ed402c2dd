"""Event-vector parity: the shipped SIP event builder against the oracle.

``repro.vids.sip_event_from_message`` walks the parsed header list once;
``tests/vids/event_oracle.py`` keeps the builder it replaced.  For SIP
messages in every shape the wire allows — compact and odd-case header
names, several Vias on separate lines or comma-joined, folded and bare-LF
heads, any of From / To / Contact / CSeq / Call-ID missing, malformed
values, the parameter shapes a field walk could read differently from the
typed values (a repeated or valueless ``tag`` / ``branch``, blanks around
``;`` and ``=``, an upper-case ``SIP:`` scheme, URI parameters inside
``<...>``, header parameters on a name-addr without ``<>``, a ``<`` with
no closing ``>``), SDP bodies that are absent, malformed, or behind a
non-SDP ``Content-Type`` — both give the same ``Event``, or both refuse the
message; and a pipeline fed the same bytes counts the same malformed SIP
and the same SDP failures.
"""

import re
import string

from hypothesis import given, settings, strategies as st

from repro.sip.errors import SipError
from repro.sip.message import parse_message
from repro.vids import sip_event_from_message
from repro.vids.metrics import VidsMetrics

from ..vids.event_oracle import sip_event_from_message as oracle
from ..vids.test_ids import dgram, make_vids

SRC, DST = ("10.1.0.1", 5060), ("10.2.0.1", 5060)

_token = st.text(alphabet=string.ascii_lowercase + string.digits,
                 min_size=1, max_size=8)
_hosts = st.sampled_from(["a.example.com", "10.1.0.11", "proxy", "b"])
_ports = st.sampled_from(["", ":5060", ":5070", ":0"])

_NAMES = {
    "Via": ("Via", "v", "VIA", "via"),
    "From": ("From", "f", "FROM"),
    "To": ("To", "t", "to"),
    "Call-ID": ("Call-ID", "i", "call-id"),
    "CSeq": ("CSeq", "cseq", "CSEQ"),
    "Contact": ("Contact", "m", "contact"),
    "Content-Type": ("Content-Type", "c", "content-type"),
    "Content-Length": ("Content-Length", "l"),
    "Max-Forwards": ("Max-Forwards",),
    "Subject": ("Subject", "s"),
}


def _header_params(key, value=_token):
    """``;key=value`` header parameters, and the shapes a field walk could
    read differently from the typed values: a repeated key (the last one
    wins), a valueless one, blanks around ``;`` and ``=``."""
    return st.one_of(
        st.just(""),
        value.map(f";{key}={{}}".format),
        value.map(f";rport;{key}={{}};received=h".format),
        st.builds(f";{key}={{}};{key}={{}}".format, value, value),
        st.just(f";{key}"),
        value.map(f" ; {key} = {{}}".format))


_vias = st.builds("SIP/2.0/{} {}{}{}".format,
                  st.sampled_from(["UDP", "TCP", "udp"]), _hosts, _ports,
                  _header_params("branch", _token.map("z9hG4bK{}".format)))
_uris = st.builds("{}{}{}{}{}".format,
                  st.sampled_from(["sip:", "sip:", "SIP:", "Sip:"]),
                  st.one_of(st.just(""), _token.map("{}@".format)), _hosts,
                  _ports, st.sampled_from(["", "", ";lr", ";transport=udp"]))
_name_addrs = st.one_of(
    st.builds("{}<{}>{}".format,
              st.sampled_from(["", '"Bob" ', "Alice ", '"A, B" ']), _uris,
              _header_params("tag")),
    # addr-spec form: the parameters are the header's, not the URI's.
    st.builds("{}{}".format, _uris, _header_params("tag")),
    # A "<" with no closing ">".
    st.builds("<{}{}".format, _uris, _header_params("tag")))
_cseqs = st.builds("{} {}".format, st.integers(0, 2 ** 32 - 1),
                   st.sampled_from(["INVITE", "BYE", "ack", "CANCEL"]))
#: Values the builder refuses; a drawn quarter of the messages carries one.
_BROKEN = {
    "Via": ("SIP/2.0/UDP", "SIP/3.0/UDP h", "SIP/2.0/UDP h:99999",
            "SIP/2.0/UDP :5060", "SIP/2.0/UDP/X h;branch=z",
            "SIP/2.0/UDP h:5o60"),
    "From": ("<mailto:x@y>", "<sip:@h>", "junk"),
    "To": ("<sip:u@h:port>", "<sip:u@>"),
    "Contact": ("<sip:@h>",),
    "CSeq": ("x INVITE", "1", "1 INVITE extra", "4294967296 BYE", "-1 BYE"),
}
_call_ids = st.builds("{}@{}".format, _token, _hosts)


def _sdp(addr, port, pts, ptime, video_first):
    media = [f"m=audio {port} RTP/AVP {' '.join(pts)}".rstrip(),
             *(f"a=rtpmap:{pt} X/8000" for pt in pts)]
    if ptime is not None:
        media.append(f"a=ptime:{ptime}")
    if video_first:
        media = ["m=video 9000 RTP/AVP 96", "a=rtpmap:96 H264/90000", *media]
    return "\r\n".join(["v=0", f"o=- 1 2 IN IP4 {addr}", "s=call",
                        f"c=IN IP4 {addr}", "t=0 0", *media]) + "\r\n"


_sdps = st.builds(_sdp, _hosts,
                  st.sampled_from(["20000", "20000", "0", "99999"]),
                  st.lists(st.sampled_from(["0", "8", "18", "18", "200"]),
                           max_size=3),
                  st.sampled_from([None, "20", "20", "abc"]), st.booleans())
_bodies = st.one_of(
    st.just((None, "")),
    st.tuples(st.sampled_from([None, "application/sdp", "Application/SDP",
                               "text/plain"]),
              st.one_of(_sdps, st.sampled_from([
                  "v=1\r\n", "garbage\r\n", "v=0\r\nm=audio\r\n",
                  "v=0\r\nc=IN IP4\r\nm=audio 1 RTP/AVP 0\r\n",
                  "v=0\r\no=- x 1 IN IP4 h\r\n", "s=no audio\r\n"]))))


@st.composite
def sip_messages(draw):
    """Wire bytes of one SIP request or response, in a drawn shape."""
    if draw(st.booleans()):
        start = "{} {} SIP/2.0".format(
            draw(st.sampled_from(["INVITE", "ACK", "BYE", "CANCEL",
                                  "OPTIONS", "REGISTER"])), draw(_uris))
    else:
        start = "SIP/2.0 {} {}".format(
            draw(st.sampled_from(["100", "180", "200", "487", "603"])),
            draw(st.sampled_from(["OK", "Ringing", "Busy Here"])))
    headers = []
    vias = draw(st.lists(_vias, max_size=3))
    if len(vias) > 1 and draw(st.booleans()):
        headers.append(("Via", ", ".join(vias)))
    else:
        headers += [("Via", via) for via in vias]
    for name, values in (("From", _name_addrs), ("To", _name_addrs),
                         ("Call-ID", _call_ids), ("CSeq", _cseqs),
                         ("Contact", _name_addrs)):
        headers += [(name, value) for value in draw(
            st.lists(values, max_size=2))]
    if draw(st.integers(0, 3)) == 0:
        name = draw(st.sampled_from(sorted(_BROKEN)))
        headers.append((name, draw(st.sampled_from(_BROKEN[name]))))
    content_type, body = draw(_bodies)
    if content_type is not None:
        headers.append(("Content-Type", content_type))
    headers += draw(st.lists(st.sampled_from([
        ("Max-Forwards", "70"), ("Subject", "hi, there")]), max_size=2))
    headers = draw(st.permutations(headers))
    eol = draw(st.sampled_from(["\r\n", "\n"]))
    lines = [start]
    for name, value in headers:
        line = f"{draw(st.sampled_from(_NAMES[name]))}: {value}"
        if " " in value and draw(st.integers(0, 4)) == 0:
            # A folded header: the value continues on an indented line.
            first, _, rest = value.partition(" ")
            line = f"{line.partition(':')[0]}: {first}{eol}"
            line += f"{draw(st.sampled_from([' ', chr(9)]))}{rest}"
        lines.append(line)
    lines.append(f"Content-Length: {len(body.encode())}")
    return (eol.join(lines) + eol + eol + body).encode()


def _built(builder, wire):
    """(name, args, channel, time), malformed count, SDP-failure count."""
    metrics = VidsMetrics()
    try:
        event = builder(parse_message(wire), SRC, DST, 1.5, metrics=metrics)
    except SipError:
        return None, 1, metrics.sdp_parse_failures
    return ((event.name, event.args, event.channel, event.time), 0,
            metrics.sdp_parse_failures)


@given(wire=sip_messages())
@settings(max_examples=400, deadline=None)
def test_the_event_vector_equals_the_oracle(wire):
    shipped = _built(sip_event_from_message, wire)
    assert shipped == _built(oracle, wire)
    # The pipeline reads the same bytes into the same counts.
    vids, clock = make_vids()
    vids.process(dgram(wire, SRC[0], DST[0]), clock.now())
    assert (vids.metrics.malformed_sip,
            vids.metrics.sdp_parse_failures) == shipped[1:]


def test_the_strategy_reaches_every_shape():
    """The parity property is only as good as its inputs: pin that they
    include events with and without SDP, refused messages and SDP
    failures, compact names, comma-joined Vias, folds and bare LFs."""
    seen = set()

    @given(wire=sip_messages())
    @settings(max_examples=400, deadline=None)
    def collect(wire):
        event, malformed, sdp_failures = _built(sip_event_from_message, wire)
        text = wire.decode()
        head = text.split("\n\n")[0].split("\r\n\r\n")[0]
        seen.update(kind for kind, hit in (
            ("refused", malformed), ("sdp-failure", sdp_failures),
            ("sdp", event and "sdp_port" in event[1]),
            ("no-sdp", event and "sdp_port" not in event[1]),
            ("response", event and event[0] == "RESPONSE"),
            ("request", event and event[0] != "RESPONSE"),
            ("compact", "\nv: " in head or "\ni: " in head),
            ("comma-via", event and len(event[1]["via_hosts"]) > 1
             and "," in head),
            ("folded", "\n " in head or "\n\t" in head),
            ("bare-lf", "\r" not in head),
            ("repeated-param", re.search(r";(tag|branch)=\w*;\1=", head)),
            ("valueless-param", re.search(r";(tag|branch)(\r?\n|,|$)", head)),
            ("blank-param", " ; " in head),
            ("upper-scheme", "SIP:" in head),
            ("uri-param", ";lr>" in head or ";transport=udp>" in head),
            ("bare-addr-params", re.search(
                r"\n(From|f|FROM|To|t|to|Contact|m|contact): [^<\r\n]*;",
                head)),
            ("unclosed", re.search(r"<[^>\r\n]*(\r?\n|$)", head)))
            if hit)

    collect()
    assert seen == {"refused", "sdp-failure", "sdp", "no-sdp", "response",
                    "request", "compact", "comma-via", "folded", "bare-lf",
                    "repeated-param", "valueless-param", "blank-param",
                    "upper-scheme", "uri-param", "bare-addr-params",
                    "unclosed"}
