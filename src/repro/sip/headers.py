"""Structured SIP header values: Via, name-addr (From/To/Contact), CSeq.

These are the header fields whose parameter values the vids predicates
inspect: the paper's input vector ``x`` carries "Call-ID and branch
parameters in the Via header field and tag parameter values in the From and
To fields" (Section 4.2).

A URI, a Via and a name-addr each have one splitter, the one place their
text is validated, and one bounded ``lru_cache`` of its field tuples
(:func:`~repro.sip.uri.uri_fields`, :func:`via_fields`,
:func:`name_addr_fields`).  ``X.parse`` builds the simulated stack's typed
value from them; the IDS's event builder reads them as they are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, Mapping, Optional

from .constants import BRANCH_MAGIC_COOKIE, SIP_VERSION
from .errors import SipParseError, wire_int
from .uri import SipUri, split_uri

if TYPE_CHECKING:  # pragma: no cover
    from ..netsim.engine import Simulator

__all__ = [
    "Via",
    "NameAddr",
    "via_fields",
    "name_addr_fields",
    "CSeq",
    "canonical_header_name",
    "new_branch",
    "new_tag",
    "new_call_id",
]

#: Compact header forms of RFC 3261 §7.3.3.
_COMPACT_FORMS = {
    "v": "Via",
    "f": "From",
    "t": "To",
    "i": "Call-ID",
    "m": "Contact",
    "c": "Content-Type",
    "l": "Content-Length",
    "e": "Content-Encoding",
    "s": "Subject",
    "k": "Supported",
}

#: Names whose canonical case is not the capitalised words.
_CANONICAL = {"call-id": "Call-ID", "cseq": "CSeq"}


@lru_cache(maxsize=512)
def canonical_header_name(name: str) -> str:
    """Normalize a header name: expand compact forms, fix case.

    Cached: the hot packet path canonicalizes the same handful of names
    (Via, From, To, Call-ID, CSeq, ...) for every message on the wire.
    """
    name = name.strip()
    lowered = name.lower()
    if lowered in _COMPACT_FORMS:
        return _COMPACT_FORMS[lowered]
    if lowered in _CANONICAL:
        return _CANONICAL[lowered]
    return "-".join(part.capitalize() for part in name.split("-"))


_NO_PARAMS: Mapping[str, Optional[str]] = MappingProxyType({})


def _parse_params(text: str) -> Mapping[str, Optional[str]]:
    """Header parameters, read-only: the cached field tuples hold them."""
    if not text:
        return _NO_PARAMS
    params: Dict[str, Optional[str]] = {}
    for chunk in text.split(";"):
        key, sep, value = chunk.partition("=")
        key = key.strip()
        if sep:
            params[key] = value.strip()
        elif key:
            params[key] = None
    return MappingProxyType(params)


def _format_params(params: Mapping[str, Optional[str]]) -> str:
    out = ""
    for key, value in params.items():
        out += f";{key}" if value is None else f";{key}={value}"
    return out


_VIA_PREFIX = SIP_VERSION + "/"
_VIA_PREFIX_LEN = len(_VIA_PREFIX)


@lru_cache(maxsize=2048)
def via_fields(text: str) -> tuple:
    """Split and validate a Via: ``(host, port, transport, params,
    branch)``, :class:`Via`'s field order.  Cached: a response repeats its
    request's Via stack."""
    text = text.strip()
    try:
        proto, sent_by = text.split(None, 1)
    except ValueError as exc:
        raise SipParseError(f"bad Via: {text!r}") from exc
    # "SIP/2.0/<transport>", exactly three slash-separated parts.
    transport = proto[_VIA_PREFIX_LEN:]
    if proto[:_VIA_PREFIX_LEN] != _VIA_PREFIX or "/" in transport:
        raise SipParseError(f"bad Via protocol: {text!r}")
    sent_by, _, param_text = sent_by.partition(";")
    host, colon, port_text = sent_by.strip().partition(":")
    port = wire_int("Via port", 0, 65535, port_text) if colon else 5060
    if not host:
        raise SipParseError(f"empty Via host: {text!r}")
    params = _parse_params(param_text)
    return host, port, transport, params, params.get("branch")


@lru_cache(maxsize=2048)
def name_addr_fields(text: str) -> tuple:
    """Split and validate a From / To / Contact value: ``(uri,
    display_name, params, tag)``, ``uri`` a :func:`split_uri` tuple.
    Cached: every message of a dialog repeats its From / To / Contact."""
    text = text.strip()
    display: Optional[str] = None
    param_text = ""
    if "<" in text:
        before, _, rest = text.partition("<")
        uri_text, _, param_text = rest.partition(">")
        display = before.strip().strip('"') or None
    else:
        # addr-spec form: params after ; belong to the header.
        uri_text, _, param_text = text.partition(";")
    params = _parse_params(param_text)
    return split_uri(uri_text), display, params, params.get("tag")


@lru_cache(maxsize=2048)
def _parse_cseq(text: str) -> "CSeq":
    """``CSeq.parse``.  Cached: few distinct values are in flight."""
    try:
        number_text, method = text.split()
    except ValueError as exc:
        raise SipParseError(f"bad CSeq: {text!r}") from exc
    return CSeq(wire_int("CSeq number", 0, 2**32 - 1, number_text),
                method.upper())


@dataclass(frozen=True, init=False)
class Via:
    """A Via header value: ``SIP/2.0/UDP host:port;branch=...``.

    Immutable: ``params`` is a read-only view of a private copy, and
    ``branch`` is read off it once, when the value is built.
    """

    host: str
    port: int
    transport: str
    params: Mapping[str, Optional[str]] = field(hash=False)

    def __init__(self, host: str, port: int, transport: str = "UDP",
                 params: Mapping[str, Optional[str]] = _NO_PARAMS) -> None:
        # Straight into the instance dict: the generated frozen __init__
        # goes through object.__setattr__ per field, at twice the cost.
        state = self.__dict__
        state["host"], state["port"] = host, port
        state["transport"] = transport
        params = state["params"] = MappingProxyType(dict(params))
        state["branch"] = params.get("branch")

    @staticmethod
    def parse(text: str) -> "Via":
        return Via(*via_fields(text)[:4])

    def __str__(self) -> str:
        return (
            f"{SIP_VERSION}/{self.transport} {self.host}:{self.port}"
            f"{_format_params(self.params)}"
        )


@dataclass(frozen=True, init=False)
class NameAddr:
    """A From/To/Contact value: ``"Display" <sip:uri>;tag=...``.

    Immutable like :class:`Via`, ``tag`` read off ``params`` once;
    :meth:`with_tag` returns a new value.
    """

    uri: SipUri
    display_name: Optional[str]
    params: Mapping[str, Optional[str]] = field(hash=False)

    def __init__(self, uri: SipUri, display_name: Optional[str] = None,
                 params: Mapping[str, Optional[str]] = _NO_PARAMS) -> None:
        state = self.__dict__
        state["uri"], state["display_name"] = uri, display_name
        params = state["params"] = MappingProxyType(dict(params))
        state["tag"] = params.get("tag")

    def with_tag(self, tag: str) -> "NameAddr":
        return NameAddr(self.uri, self.display_name,
                        {**self.params, "tag": tag})

    @staticmethod
    def parse(text: str) -> "NameAddr":
        uri, display_name, params, _ = name_addr_fields(text)
        return NameAddr(SipUri(*uri[:4]), display_name, params)

    def __str__(self) -> str:
        if self.display_name:
            out = f'"{self.display_name}" <{self.uri}>'
        else:
            out = f"<{self.uri}>"
        return out + _format_params(self.params)


@dataclass(frozen=True)
class CSeq:
    """A CSeq header value: ``sequence-number method``."""

    number: int
    method: str

    parse = staticmethod(_parse_cseq)

    def next(self, method: Optional[str] = None) -> "CSeq":
        return CSeq(self.number + 1, method or self.method)

    def __str__(self) -> str:
        return f"{self.number} {self.method}"


def new_branch(sim: "Simulator") -> str:
    """A fresh RFC 3261 branch parameter (unique per transaction)."""
    return f"{BRANCH_MAGIC_COOKIE}{sim.next_id('branch'):08x}"


def new_tag(sim: "Simulator") -> str:
    """A fresh From/To tag."""
    return f"tag{sim.next_id('tag'):06x}"


def new_call_id(sim: "Simulator", host: str = "invalid") -> str:
    """A fresh Call-ID, scoped to ``host`` as RFC 3261 suggests."""
    return f"cid{sim.next_id('call-id'):08x}@{host}"
