"""SIP URI model and parser (RFC 3261 §19.1, the subset VoIP calls need)."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional

from .constants import DEFAULT_SIP_PORT
from .errors import SipParseError, wire_int

__all__ = ["SipUri", "split_uri", "uri_fields"]


def _uri_tuple(user: Optional[str], host: str, port: Optional[int],
               params: tuple) -> tuple:
    return user, host, port, params, f"{user}@{host}" if user else host


def split_uri(text: str) -> tuple:
    """Split and validate a ``sip:`` URI: ``(user, host, port, params,
    address_of_record)``, :class:`SipUri`'s field order."""
    text = text.strip()
    if text.startswith("<") and text.endswith(">"):
        text = text[1:-1]
    if not text.lower().startswith("sip:"):
        raise SipParseError(f"not a sip: URI: {text!r}")
    rest = text[4:]
    params: Dict[str, Optional[str]] = {}
    if ";" in rest:
        rest, _, param_text = rest.partition(";")
        for chunk in param_text.split(";"):
            if not chunk:
                continue
            if "=" in chunk:
                key, _, value = chunk.partition("=")
                params[key] = value
            else:
                params[chunk] = None
    user: Optional[str] = None
    if "@" in rest:
        user, _, rest = rest.rpartition("@")
        if not user:
            raise SipParseError(f"empty user part in URI: {text!r}")
    port: Optional[int] = None
    host = rest
    if ":" in rest:
        host, _, port_text = rest.partition(":")
        port = wire_int("URI port", 0, 65535, port_text)
    if not host:
        raise SipParseError(f"empty host in URI: {text!r}")
    return _uri_tuple(user, host, port, tuple(params.items()))


#: Cached: a dialog's requests repeat their Request-URI (a name-addr's URI
#: is split inside the name-addr's own cache entry).
uri_fields = lru_cache(maxsize=2048)(split_uri)


@dataclass(frozen=True, init=False)
class SipUri:
    """A ``sip:`` URI: ``sip:user@host[:port][;param=value]*``.

    Immutable, so ``address_of_record`` — the ``user@host`` form used as
    a location-service key — is computed once, when the value is built.
    """

    user: Optional[str]
    host: str
    port: Optional[int] = None
    params: tuple = field(default_factory=tuple)  # ((name, value|None), ...)

    def __init__(self, user: Optional[str], host: str,
                 port: Optional[int] = None, params: tuple = ()) -> None:
        state = self.__dict__   # straight in, as Via
        (state["user"], state["host"], state["port"], state["params"],
         state["address_of_record"]) = _uri_tuple(user, host, port, params)

    @staticmethod
    def parse(text: str) -> "SipUri":
        return SipUri(*uri_fields(text)[:4])

    @property
    def effective_port(self) -> int:
        """The port to contact: the explicit one or the SIP default."""
        return self.port if self.port is not None else DEFAULT_SIP_PORT

    def param(self, name: str) -> Optional[str]:
        for key, value in self.params:
            if key == name:
                return value
        return None

    def with_params(self, **params: Optional[str]) -> "SipUri":
        merged = dict(self.params)
        merged.update(params)
        return SipUri(self.user, self.host, self.port, tuple(merged.items()))

    def __str__(self) -> str:
        out = "sip:"
        if self.user:
            out += f"{self.user}@"
        out += self.host
        if self.port is not None:
            out += f":{self.port}"
        for key, value in self.params:
            out += f";{key}" if value is None else f";{key}={value}"
        return out
