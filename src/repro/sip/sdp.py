"""Session Description Protocol (RFC 2327 subset).

SDP bodies carry the media attributes the paper's threat model cares about:
"IP address, port number, media type and its encoding scheme" — the values a
third party needs to fabricate RTP packets (media spamming), and the values
the vids SIP machine writes into the global shared variables for the RTP
machine (Section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Dict, List, Optional, Tuple

from .errors import SipParseError, wire_int

__all__ = ["MediaDescription", "SessionDescription", "SDP_CONTENT_TYPE",
           "media_brief"]

SDP_CONTENT_TYPE = "application/sdp"


_port = partial(wire_int, "SDP port", 0, 65535)
_payload_type = partial(wire_int, "SDP payload type", 0, 127)
_ptime = partial(wire_int, "SDP ptime", 0, 65535)
_origin_id = partial(wire_int, "SDP o= id", 0, 2**64 - 1)


@lru_cache(maxsize=1024)
def media_brief(
    text: str,
) -> Optional[Tuple[str, int, Tuple[int, ...], Optional[int]]]:
    """First-audio media attributes without building a SessionDescription.

    Returns ``(connection_address, port, payload_types, ptime_ms)`` for
    the first ``m=audio`` section, or ``None`` when the body declares no
    audio stream: what the vids SIP machine writes into the shared
    variables.  It walks the same lines with the same validation as
    :meth:`SessionDescription.parse` (a malformed body raises
    :class:`SipParseError` exactly when the full parse would; parity is
    pinned by tests/sip/test_sdp.py) but builds no dataclasses.  Cached:
    endpoints re-offer the same body (retransmissions, the 183/200 of one
    offer, session refreshes); a failure raises and is not cached, so each
    malformed occurrence is counted upstream.
    """
    connection_address = "0.0.0.0"
    audio_port: Optional[int] = None
    audio_pts: Tuple[int, ...] = ()
    audio_ptime: Optional[int] = None
    in_media = False
    in_audio = False
    for raw in text.split("\n"):
        line = raw.strip()
        if not line:
            continue
        if line[1:2] != "=":
            raise SipParseError(f"malformed SDP line: {line!r}")
        kind = line[0]
        if kind == "a":
            if not in_media:
                continue
            if line.startswith("a=rtpmap:"):
                _payload_type(line[9:].partition(" ")[0])
            elif line.startswith("a=ptime:"):
                ptime = _ptime(line[8:])
                if in_audio:
                    audio_ptime = ptime
        elif kind == "m":
            parts = line[2:].split()
            if len(parts) < 3:
                raise SipParseError(f"malformed m= line: {line!r}")
            port = _port(parts[1])
            payload_types = tuple([_payload_type(pt) for pt in parts[3:]])
            in_media = True
            in_audio = parts[0] == "audio" and audio_port is None
            if in_audio:
                audio_port = port
                audio_pts = payload_types
        elif kind == "c":
            parts = line[2:].split()
            if len(parts) != 3:
                raise SipParseError(f"malformed c= line: {line!r}")
            connection_address = parts[2]
        elif kind == "v":
            if line != "v=0":
                raise SipParseError(f"unsupported SDP version: {line[2:]}")
        elif kind == "o":
            parts = line[2:].split()
            if len(parts) != 6:
                raise SipParseError(f"malformed o= line: {line!r}")
            _origin_id(parts[1])
            _origin_id(parts[2])
        # s=, t=, b=, k= and unknown lines are tolerated and ignored.
    if audio_port is None:
        return None
    return connection_address, audio_port, audio_pts, audio_ptime


@dataclass
class MediaDescription:
    """One ``m=`` section: media type, transport port, and codec list."""

    media: str                       # "audio"
    port: int
    proto: str = "RTP/AVP"
    payload_types: List[int] = field(default_factory=list)
    #: payload type -> "ENCODING/clock" from a=rtpmap lines
    rtpmap: Dict[int, str] = field(default_factory=dict)
    ptime_ms: Optional[int] = None

    def encoding_name(self, payload_type: int) -> Optional[str]:
        """Encoding name ("G729") for a payload type, if declared."""
        mapping = self.rtpmap.get(payload_type)
        return mapping.split("/")[0] if mapping else None

    def format_lines(self) -> List[str]:
        fmt = " ".join(str(pt) for pt in self.payload_types)
        lines = [f"m={self.media} {self.port} {self.proto} {fmt}".rstrip()]
        for payload_type, mapping in self.rtpmap.items():
            lines.append(f"a=rtpmap:{payload_type} {mapping}")
        if self.ptime_ms is not None:
            lines.append(f"a=ptime:{self.ptime_ms}")
        return lines


@dataclass
class SessionDescription:
    """A parsed SDP body."""

    origin_user: str = "-"
    session_id: int = 0
    session_version: int = 0
    origin_address: str = "0.0.0.0"
    session_name: str = "call"
    connection_address: str = "0.0.0.0"
    media: List[MediaDescription] = field(default_factory=list)

    @property
    def audio(self) -> Optional[MediaDescription]:
        """The first audio media section, if any."""
        for description in self.media:
            if description.media == "audio":
                return description
        return None

    @classmethod
    def parse(cls, text: str) -> "SessionDescription":
        session = cls()
        session.media = []
        current: Optional[MediaDescription] = None
        # No CRLF normalization pass: splitting on bare LF leaves a
        # trailing CR on each line, and the per-line strip removes it.
        for raw in text.split("\n"):
            line = raw.strip()
            if not line:
                continue
            if len(line) < 2 or line[1] != "=":
                raise SipParseError(f"malformed SDP line: {line!r}")
            kind, value = line[0], line[2:]
            if kind == "v":
                if value != "0":
                    raise SipParseError(f"unsupported SDP version: {value}")
            elif kind == "o":
                parts = value.split()
                if len(parts) != 6:
                    raise SipParseError(f"malformed o= line: {line!r}")
                session.origin_user = parts[0]
                session.session_id = _origin_id(parts[1])
                session.session_version = _origin_id(parts[2])
                session.origin_address = parts[5]
            elif kind == "s":
                session.session_name = value
            elif kind == "c":
                parts = value.split()
                if len(parts) != 3:
                    raise SipParseError(f"malformed c= line: {line!r}")
                address = parts[2]
                if current is not None:
                    # media-level connection overrides for that stream only;
                    # we keep session-level for simplicity of the model.
                    session.connection_address = address
                else:
                    session.connection_address = address
            elif kind == "m":
                parts = value.split()
                if len(parts) < 3:
                    raise SipParseError(f"malformed m= line: {line!r}")
                current = MediaDescription(
                    media=parts[0],
                    port=_port(parts[1]),
                    proto=parts[2],
                    payload_types=[_payload_type(pt) for pt in parts[3:]],
                )
                session.media.append(current)
            elif kind == "a":
                if current is None:
                    continue
                if value.startswith("rtpmap:"):
                    body = value[len("rtpmap:"):]
                    pt_text, _, mapping = body.partition(" ")
                    current.rtpmap[_payload_type(pt_text)] = mapping.strip()
                elif value.startswith("ptime:"):
                    current.ptime_ms = _ptime(value[len("ptime:"):])
            # t=, b=, k= and unknown lines are tolerated and ignored.
        return session

    def serialize(self) -> str:
        lines = [
            "v=0",
            (
                f"o={self.origin_user} {self.session_id} "
                f"{self.session_version} IN IP4 {self.origin_address}"
            ),
            f"s={self.session_name}",
            f"c=IN IP4 {self.connection_address}",
            "t=0 0",
        ]
        for description in self.media:
            lines.extend(description.format_lines())
        return "\r\n".join(lines) + "\r\n"

    @classmethod
    def for_audio(
        cls,
        address: str,
        port: int,
        payload_type: int,
        encoding: str,
        clock_rate: int = 8000,
        ptime_ms: int = 20,
        session_id: int = 1,
    ) -> "SessionDescription":
        """Convenience builder for a single-codec audio offer/answer."""
        media = MediaDescription(
            media="audio",
            port=port,
            payload_types=[payload_type],
            rtpmap={payload_type: f"{encoding}/{clock_rate}"},
            ptime_ms=ptime_ms,
        )
        return cls(
            origin_user="-",
            session_id=session_id,
            session_version=session_id,
            origin_address=address,
            connection_address=address,
            media=[media],
        )
