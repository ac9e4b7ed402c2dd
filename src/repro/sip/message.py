"""SIP message model: parse from and serialize to RFC 3261 wire text.

Messages are carried as UTF-8 text over the simulated UDP transport, so the
vids classifier sees the same byte stream a network sniffer would.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import List, Optional, Tuple, Union

from .constants import METHODS, SIP_VERSION, reason_phrase
from .errors import SipParseError, wire_int
from .headers import CSeq, NameAddr, Via, canonical_header_name
from .uri import SipUri, uri_fields

__all__ = ["SipMessage", "SipRequest", "SipResponse", "parse_message", "is_sip_payload"]

CRLF = "\r\n"


class SipMessage:
    """Common behaviour of requests and responses.

    ``headers`` is the ordered list of (canonical-name, value-text) pairs;
    repeated headers (e.g. Via) keep their order, which matters for
    response routing.  It is the only store: look-ups scan it (a message
    has about eight headers) and the typed accessors (``from_``, ``cseq``,
    ``vias``, ...) parse on access, through the ``lru_cache``d field
    splitters of :mod:`repro.sip.headers`, so there is nothing to
    invalidate when a header is mutated.  What they return is immutable,
    built fresh from the cached fields of the header text.
    """

    #: One message object per packet on the classifier hot path —
    #: ``__slots__`` drops the per-message instance dict.
    __slots__ = ("headers", "body")

    def __init__(self, headers: Optional[List[Tuple[str, str]]] = None,
                 body: str = ""):
        self.headers: List[Tuple[str, str]] = list(headers or [])
        self.body = body

    # -- generic header access ---------------------------------------------

    def get(self, name: str) -> Optional[str]:
        """First value of header ``name`` (canonicalized), or None."""
        target = canonical_header_name(name)
        for key, value in self.headers:
            if key == target:
                return value
        return None

    def get_all(self, name: str) -> List[str]:
        target = canonical_header_name(name)
        return [value for key, value in self.headers if key == target]

    def set(self, name: str, value: object) -> None:
        """Replace all values of ``name`` with a single ``value``.

        A single existing occurrence is replaced in place (header position
        preserved); repeated ones collapse to one value at the end.
        """
        name = canonical_header_name(name)
        headers = self.headers
        positions = [i for i, (key, _) in enumerate(headers) if key == name]
        if len(positions) == 1:
            headers[positions[0]] = (name, str(value))
            return
        if positions:
            headers[:] = [pair for pair in headers if pair[0] != name]
        headers.append((name, str(value)))

    def add(self, name: str, value: object) -> None:
        """Append a value for ``name`` (after existing ones)."""
        self.headers.append((canonical_header_name(name), str(value)))

    def prepend(self, name: str, value: object) -> None:
        """Insert a value for ``name`` before existing ones (Via stacking)."""
        self.headers.insert(0, (canonical_header_name(name), str(value)))

    def remove_first(self, name: str) -> Optional[str]:
        """Remove and return the first value of ``name``."""
        name = canonical_header_name(name)
        for index, (key, value) in enumerate(self.headers):
            if key == name:
                del self.headers[index]
                return value
        return None

    # -- typed accessors -----------------------------------------------------

    def _name_addr(self, name: str) -> Optional[NameAddr]:
        value = self.get(name)
        return NameAddr.parse(value) if value else None

    @property
    def call_id(self) -> Optional[str]:
        return self.get("Call-ID")

    @property
    def cseq(self) -> Optional[CSeq]:
        value = self.get("CSeq")
        return CSeq.parse(value) if value else None

    @property
    def from_(self) -> Optional[NameAddr]:
        return self._name_addr("From")

    @property
    def to(self) -> Optional[NameAddr]:
        return self._name_addr("To")

    @property
    def contact(self) -> Optional[NameAddr]:
        return self._name_addr("Contact")

    @property
    def vias(self) -> List[Via]:
        return [Via.parse(value) for value in self.get_all("Via")]

    @property
    def top_via(self) -> Optional[Via]:
        value = self.get("Via")
        return Via.parse(value) if value else None

    @property
    def branch(self) -> Optional[str]:
        via = self.top_via
        return via.branch if via else None

    # -- serialization -------------------------------------------------------

    def start_line(self) -> str:
        raise NotImplementedError

    def serialize(self) -> bytes:
        """Render the full message to wire bytes, fixing Content-Length."""
        body_bytes = self.body.encode("utf-8")
        length = str(len(body_bytes))
        if self.get("Content-Length") != length:
            self.set("Content-Length", length)
        lines = [self.start_line()]
        lines.extend(f"{name}: {value}" for name, value in self.headers)
        text = CRLF.join(lines) + CRLF + CRLF
        return text.encode("utf-8") + body_bytes

    def __bytes__(self) -> bytes:
        return self.serialize()


class SipRequest(SipMessage):
    """A SIP request: method, Request-URI, headers, body.  A Request-URI
    text is validated at once but built into a ``SipUri`` on first read."""

    __slots__ = ("method", "_uri")

    def __init__(self, method: str, uri: Union[SipUri, str],
                 headers: Optional[List[Tuple[str, str]]] = None,
                 body: str = ""):
        super().__init__(headers, body)
        self.method = method.upper()
        self.uri = uri

    @property
    def uri(self) -> SipUri:
        uri = self._uri
        if not isinstance(uri, SipUri):
            uri = self._uri = SipUri(*uri[:4])
        return uri

    @uri.setter
    def uri(self, uri: Union[SipUri, str]) -> None:
        self._uri = uri if isinstance(uri, SipUri) else uri_fields(uri)

    @property
    def target(self) -> Tuple[Optional[str], str]:
        """The Request-URI's ``(user, host)``."""
        uri = self._uri
        return (uri.user, uri.host) if isinstance(uri, SipUri) else uri[:2]

    @property
    def is_request(self) -> bool:
        return True

    def start_line(self) -> str:
        return f"{self.method} {self.uri} {SIP_VERSION}"

    def create_response(self, status: int, reason: Optional[str] = None,
                        to_tag: Optional[str] = None,
                        body: str = "") -> "SipResponse":
        """Build a response per RFC 3261 §8.2.6: copy Via/From/To/Call-ID/CSeq."""
        response = SipResponse(status, reason)
        for via in self.get_all("Via"):
            response.add("Via", via)
        if self.get("From"):
            response.set("From", self.get("From"))
        to_value = self.get("To")
        if to_value is not None:
            to_addr = NameAddr.parse(to_value)
            if to_tag and to_addr.tag is None and status != 100:
                to_addr = to_addr.with_tag(to_tag)
            response.set("To", str(to_addr))
        if self.call_id:
            response.set("Call-ID", self.call_id)
        if self.get("CSeq"):
            response.set("CSeq", self.get("CSeq"))
        response.body = body
        return response

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SipRequest {self.method} {self.uri} cid={self.call_id}>"


class SipResponse(SipMessage):
    """A SIP response: status code, reason phrase, headers, body."""

    __slots__ = ("status", "reason")

    def __init__(self, status: int, reason: Optional[str] = None,
                 headers: Optional[List[Tuple[str, str]]] = None,
                 body: str = ""):
        super().__init__(headers, body)
        self.status = int(status)
        self.reason = reason if reason is not None else reason_phrase(status)

    @property
    def is_request(self) -> bool:
        return False

    @property
    def is_provisional(self) -> bool:
        return 100 <= self.status < 200

    @property
    def is_final(self) -> bool:
        return self.status >= 200

    @property
    def is_success(self) -> bool:
        return 200 <= self.status < 300

    def start_line(self) -> str:
        return f"{SIP_VERSION} {self.status} {self.reason}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SipResponse {self.status} {self.reason} cid={self.call_id}>"


_METHOD_TOKENS = frozenset(method.encode() for method in METHODS)
_STATUS_PREFIX = (SIP_VERSION + " ").encode()


def is_sip_payload(payload: bytes) -> bool:
    """Cheap sniff: does this UDP payload look like a SIP message?

    Used by the vids packet classifier before committing to a full parse.
    It reads the start-line token as bytes: a UTF-8 Request-URI or
    Reason-Phrase after it is the parser's to judge.
    """
    if not payload or payload[0] >= 0x80:
        # SIP starts with an ASCII method or version token; RTP/RTCP start
        # with 0x80/0x81 — reject them on the first byte.
        return False
    if payload.startswith(_STATUS_PREFIX):
        return True
    return payload[:64].split(b" ", 1)[0] in _METHOD_TOKENS


#: Head/body separator: a blank line in CRLF, bare-LF, or mixed endings.
_BLANK_LINE = re.compile(r"\r?\n\r?\n")


@lru_cache(maxsize=4096)
def _split_header_line(line: str) -> Tuple[str, str]:
    """Memoized ``"Name: value"`` -> ``(canonical-name, stripped-value)``.

    Header lines repeat heavily — every in-dialog message carries the same
    Call-ID/From/To/Via lines, and retransmissions repeat whole heads — so
    the split + canonicalization is paid once per distinct line.  Malformed
    lines raise :class:`SipParseError`, which ``lru_cache`` does not cache,
    so garbage cannot pollute the memo.
    """
    name, sep, value = line.partition(":")
    if not sep:
        raise SipParseError(f"malformed header line: {line!r}")
    name = name.strip()
    if not name:
        raise SipParseError(f"empty header name: {line!r}")
    return canonical_header_name(name), value.strip()


def parse_message(data: Union[bytes, str]) -> Union[SipRequest, SipResponse]:
    """Parse wire bytes/text into a :class:`SipRequest` or :class:`SipResponse`.

    Raises :class:`SipParseError` on malformed input.  Header line folding
    (continuation lines starting with whitespace) is supported.  Single-pass:
    line endings are handled per line (CRLF or bare LF accepted) without
    first copying the whole text through ``replace``, and the body is kept
    byte-for-byte as it appeared on the wire.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SipParseError("message is not valid UTF-8") from exc
    else:
        text = data
    # Pure-CRLF fast path: when no blank-line candidate ("\n\n" or
    # "\n\r\n") starts before the first literal CRLFCRLF, the regex would
    # match exactly there — C-level scans of the head replace the regex
    # walk, and the body is not scanned at all.
    crlf = text.find("\r\n\r\n")
    head = text[:crlf]
    if (crlf != -1 and "\n\n" not in head and "\n\r\n" not in head
            and head[-1:] != "\n"):
        body = text[crlf + 4:]
    else:
        separator = _BLANK_LINE.search(text)
        if separator is not None:
            head, body = text[:separator.start()], text[separator.end():]
        else:
            head, body = text.rstrip("\r\n"), ""
    # One C-level pass strips the CRs from the head (the body is left
    # untouched) instead of an endswith check per header line.
    stray_cr = "\r" in head
    if stray_cr:
        head = head.replace("\r\n", "\n")
        stray_cr = "\r" in head  # lone CRs survive the CRLF replace
    lines = head.split("\n")
    if not lines or not lines[0].strip():
        raise SipParseError("empty message")

    start = lines[0].rstrip()
    if stray_cr or "\n " in head or "\n\t" in head:
        # Rare shapes — folded continuation lines or bare-CR endings — get
        # the normalizing pass; clean heads skip straight to the split.
        header_lines: List[str] = []
        for line in lines[1:]:
            if line.endswith("\r"):
                line = line[:-1]
            if not line:
                continue
            if line[0] in " \t" and header_lines:
                header_lines[-1] += " " + line.strip()
            else:
                header_lines.append(line)
    else:
        header_lines = lines[1:]

    headers = [_split_header_line(line) for line in header_lines if line]
    if "," in head:
        # Comma-separated multi-values for Via are split so the list
        # semantics survive round-trips.
        headers = [(name, part.strip()) for name, value in headers
                   for part in (value.split(",") if name == "Via"
                                else (value,))]

    if start.startswith(SIP_VERSION + " "):
        rest = start[len(SIP_VERSION) + 1:]
        parts = rest.split(" ", 1)
        if len(parts[0]) != 3:
            raise SipParseError(f"bad status line: {start!r}")
        status = wire_int("status code", 100, 699, parts[0])
        reason = parts[1] if len(parts) > 1 else reason_phrase(status)
        message: Union[SipRequest, SipResponse] = SipResponse(
            status, reason, body=body)
    else:
        parts = start.split(" ")
        if len(parts) != 3 or parts[2] != SIP_VERSION:
            raise SipParseError(f"bad request line: {start!r}")
        method, uri_text, _ = parts
        if not method.isupper() or not method.isalpha():
            raise SipParseError(f"bad method: {method!r}")
        message = SipRequest(method, uri_text, body=body)
    # The list was built here: the message takes it without a copy.
    message.headers = headers
    return message
