"""HTTP digest authentication for SIP (RFC 2617 / RFC 3261 §22 subset).

The paper observes that "a great deal of the discussion of possible attacks
centers around an assumption of lack of proper authentication".  This
module supplies that missing piece for the registrar: MD5 digest challenges
(401 + WWW-Authenticate) and Authorization verification, so experiments can
contrast *prevention* (auth stops registration hijacking outright) with
*detection* (vids flags it at the perimeter).

Scope: the original RFC 2617 scheme without qop/auth-int — what SIP gear of
the paper's era actually spoke.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from .errors import SipParseError
from .message import SipRequest, SipResponse

if TYPE_CHECKING:  # pragma: no cover
    from ..netsim.engine import Simulator

__all__ = [
    "DigestChallenge",
    "DigestCredentials",
    "compute_digest_response",
    "build_authorization",
    "parse_auth_params",
    "Authenticator",
]


def _md5_hex(text: str) -> str:
    return hashlib.md5(text.encode("utf-8")).hexdigest()


def parse_auth_params(value: str) -> Dict[str, str]:
    """Parse ``Digest k1="v1", k2=v2`` header values into a dict."""
    value = value.strip()
    scheme, _, rest = value.partition(" ")
    if scheme.lower() != "digest":
        raise SipParseError(f"unsupported auth scheme: {scheme!r}")
    params: Dict[str, str] = {}
    # Split on commas not inside quotes (quoted values contain no commas in
    # our subset, so a simple split suffices; strip quotes afterwards).
    for chunk in rest.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, _, raw = chunk.partition("=")
        params[key.strip().lower()] = raw.strip().strip('"')
    return params


def _format_params(params: Dict[str, str]) -> str:
    body = ", ".join(f'{key}="{value}"' for key, value in params.items())
    return f"Digest {body}"


@dataclass(frozen=True)
class DigestChallenge:
    """A WWW-Authenticate challenge."""

    realm: str
    nonce: str
    opaque: Optional[str] = None
    algorithm: str = "MD5"

    def header_value(self) -> str:
        params = {"realm": self.realm, "nonce": self.nonce,
                  "algorithm": self.algorithm}
        if self.opaque:
            params["opaque"] = self.opaque
        return _format_params(params)

    @classmethod
    def parse(cls, value: str) -> "DigestChallenge":
        params = parse_auth_params(value)
        if "realm" not in params or "nonce" not in params:
            raise SipParseError("challenge lacks realm/nonce")
        return cls(realm=params["realm"], nonce=params["nonce"],
                   opaque=params.get("opaque"),
                   algorithm=params.get("algorithm", "MD5"))


@dataclass(frozen=True)
class DigestCredentials:
    """What a client knows: username, realm, shared secret."""

    username: str
    realm: str
    password: str


def compute_digest_response(credentials: DigestCredentials, method: str,
                            uri: str, nonce: str) -> str:
    """RFC 2617 §3.2.2 without qop: MD5(HA1:nonce:HA2)."""
    ha1 = _md5_hex(f"{credentials.username}:{credentials.realm}:"
                   f"{credentials.password}")
    ha2 = _md5_hex(f"{method}:{uri}")
    return _md5_hex(f"{ha1}:{nonce}:{ha2}")


def build_authorization(credentials: DigestCredentials,
                        challenge: DigestChallenge, method: str,
                        uri: str) -> str:
    """The Authorization header value answering ``challenge``."""
    response = compute_digest_response(credentials, method, uri,
                                       challenge.nonce)
    params = {
        "username": credentials.username,
        "realm": challenge.realm,
        "nonce": challenge.nonce,
        "uri": uri,
        "response": response,
        "algorithm": challenge.algorithm,
    }
    if challenge.opaque:
        params["opaque"] = challenge.opaque
    return _format_params(params)


class Authenticator:
    """Server side: issues challenges and verifies Authorization headers.

    Nonces count on ``sim``'s ``"nonce"`` stream, which every realm of
    one simulator shares.
    """

    def __init__(self, realm: str, sim: "Simulator",
                 secret: str = "vids-secret"):
        self.realm = realm
        self._sim = sim
        self._secret = secret
        self._credentials: Dict[str, str] = {}   # username -> password
        self.challenges_issued = 0
        self.verifications_ok = 0
        self.verifications_failed = 0

    def add_user(self, username: str, password: str) -> None:
        self._credentials[username] = password

    def new_nonce(self) -> str:
        count = self._sim.next_id("nonce")
        return _md5_hex(f"{self._secret}:{count}")[:24] + f".{count}"

    def challenge(self, request: SipRequest) -> SipResponse:
        """A 401 Unauthorized carrying a fresh challenge."""
        self.challenges_issued += 1
        response = request.create_response(401)
        response.set("WWW-Authenticate",
                     DigestChallenge(self.realm, self.new_nonce())
                     .header_value())
        return response

    def verify(self, request: SipRequest) -> bool:
        """Check the request's Authorization against the credential store."""
        value = request.get("Authorization")
        if value is None:
            return False
        try:
            params = parse_auth_params(value)
        except SipParseError:
            self.verifications_failed += 1
            return False
        username = params.get("username", "")
        password = self._credentials.get(username)
        required = {"realm", "nonce", "uri", "response"}
        if password is None or not required.issubset(params):
            self.verifications_failed += 1
            return False
        credentials = DigestCredentials(username, params["realm"], password)
        expected = compute_digest_response(
            credentials, request.method, params["uri"], params["nonce"])
        ok = (params["realm"] == self.realm
              and expected == params["response"])
        if ok:
            self.verifications_ok += 1
        else:
            self.verifications_failed += 1
        return ok
