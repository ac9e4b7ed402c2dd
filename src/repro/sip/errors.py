"""SIP stack exceptions, and the one check every numeric wire field takes."""

from __future__ import annotations

__all__ = ["SipError", "SipParseError", "SipProtocolError", "wire_int"]


class SipError(Exception):
    """Base class for SIP stack errors."""


class SipParseError(SipError):
    """A message, URI, or header could not be parsed."""


class SipProtocolError(SipError):
    """A protocol-level violation (bad transaction usage, missing header)."""


def wire_int(what: str, lo: int, hi: int, text: str) -> int:
    """A decimal field off the wire: ASCII digits only, within ``lo..hi``.

    The field comes first so a parser can bind it once
    (``partial(wire_int, "SDP port", 0, 65535)``) and read many texts.

    Bare ``int()`` also takes ``1_0``, ``+7``, surrounding blanks and any
    Unicode digit, which no SIP endpoint reads as a number (RFC 3261
    ``1*DIGIT``), and raises ``ValueError`` past its own digit limit.
    """
    if text.isascii() and text.isdigit() and len(text) <= 20:
        value = int(text)
        if lo <= value <= hi:
            return value
    raise SipParseError(f"bad {what}: {text!r}")
