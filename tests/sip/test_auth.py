"""Digest authentication tests (RFC 2617 subset)."""

import pytest

from repro.netsim import Simulator
from repro.sip import (
    Authenticator,
    DigestChallenge,
    DigestCredentials,
    SipParseError,
    SipRequest,
    build_authorization,
    compute_digest_response,
    parse_auth_params,
)


def make_register(auth_value=None):
    request = SipRequest("REGISTER", "sip:b.example.com")
    request.set("Via", "SIP/2.0/UDP 10.2.0.11:5060;branch=z9hG4bKr1")
    request.set("To", "<sip:b1@b.example.com>")
    request.set("From", "<sip:b1@b.example.com>;tag=r")
    request.set("Call-ID", "reg@10.2.0.11")
    request.set("CSeq", "1 REGISTER")
    request.set("Contact", "<sip:b1@10.2.0.11:5060>")
    if auth_value:
        request.set("Authorization", auth_value)
    return request


class TestDigestMath:
    def test_rfc2617_style_vector(self):
        # Hand-computed: MD5("u:r:p")=HA1, MD5("REGISTER:sip:b")=HA2,
        # response=MD5(HA1:nonce:HA2).  Stability check against hashlib.
        credentials = DigestCredentials("u", "r", "p")
        response = compute_digest_response(credentials, "REGISTER",
                                           "sip:b", "nonce1")
        assert response == compute_digest_response(credentials, "REGISTER",
                                                   "sip:b", "nonce1")
        assert len(response) == 32
        # Any changed ingredient changes the response.
        assert response != compute_digest_response(
            DigestCredentials("u", "r", "x"), "REGISTER", "sip:b", "nonce1")
        assert response != compute_digest_response(credentials, "INVITE",
                                                   "sip:b", "nonce1")
        assert response != compute_digest_response(credentials, "REGISTER",
                                                   "sip:b", "nonce2")


class TestHeaderFormats:
    def test_challenge_round_trip(self):
        challenge = DigestChallenge("b.example.com", "abc123", opaque="oo")
        parsed = DigestChallenge.parse(challenge.header_value())
        assert parsed == challenge

    def test_parse_auth_params(self):
        params = parse_auth_params(
            'Digest username="alice", realm="r", nonce=n1, uri="sip:x"')
        assert params["username"] == "alice"
        assert params["nonce"] == "n1"

    def test_non_digest_scheme_rejected(self):
        with pytest.raises(SipParseError):
            parse_auth_params("Basic dXNlcjpwYXNz")

    def test_challenge_requires_realm_and_nonce(self):
        with pytest.raises(SipParseError):
            DigestChallenge.parse('Digest realm="r"')


class TestAuthenticator:
    def make(self):
        auth = Authenticator("b.example.com", Simulator())
        auth.add_user("b1", "secret")
        return auth

    def authorized_request(self, auth, username="b1", password="secret",
                           realm=None):
        challenge = DigestChallenge.parse(
            auth.challenge(make_register()).get("WWW-Authenticate"))
        credentials = DigestCredentials(username,
                                        realm or challenge.realm, password)
        value = build_authorization(credentials, challenge, "REGISTER",
                                    "sip:b.example.com")
        return make_register(auth_value=value)

    def test_challenge_carries_fresh_nonce(self):
        auth = self.make()
        first = auth.challenge(make_register())
        second = auth.challenge(make_register())
        assert first.status == 401
        nonce1 = DigestChallenge.parse(first.get("WWW-Authenticate")).nonce
        nonce2 = DigestChallenge.parse(second.get("WWW-Authenticate")).nonce
        assert nonce1 != nonce2
        assert auth.challenges_issued == 2

    def test_valid_credentials_verify(self):
        auth = self.make()
        assert auth.verify(self.authorized_request(auth))
        assert auth.verifications_ok == 1

    def test_wrong_password_rejected(self):
        auth = self.make()
        assert not auth.verify(
            self.authorized_request(auth, password="wrong"))
        assert auth.verifications_failed == 1

    def test_unknown_user_rejected(self):
        auth = self.make()
        assert not auth.verify(
            self.authorized_request(auth, username="mallory",
                                    password="whatever"))

    def test_missing_authorization_rejected(self):
        auth = self.make()
        assert not auth.verify(make_register())

    def test_garbage_authorization_rejected(self):
        auth = self.make()
        assert not auth.verify(make_register(auth_value="Basic zzz"))
        assert not auth.verify(make_register(auth_value="Digest username=x"))


class TestEndToEndAuth:
    def test_ua_registers_through_challenge(self, mini_voip):
        auth = Authenticator("b.example.com", mini_voip.sim)
        auth.add_user("bob", "bobpass")
        mini_voip.proxy_b.authenticator = auth
        mini_voip.ua_b.credentials = DigestCredentials(
            "bob", "b.example.com", "bobpass")
        outcome = []
        mini_voip.ua_b.register(on_done=outcome.append)
        mini_voip.net.run(until=5.0)
        assert outcome == [True]
        assert mini_voip.ua_b.registered
        assert auth.challenges_issued == 1
        assert auth.verifications_ok == 1
        binding = mini_voip.proxy_b.location.lookup("bob@b.example.com", 5.0)
        assert binding is not None

    def test_registration_without_credentials_fails(self, mini_voip):
        auth = Authenticator("b.example.com", mini_voip.sim)
        auth.add_user("bob", "bobpass")
        mini_voip.proxy_b.authenticator = auth
        outcome = []
        mini_voip.ua_b.register(on_done=outcome.append)
        mini_voip.net.run(until=5.0)
        assert outcome == [False]
        assert not mini_voip.ua_b.registered
        assert mini_voip.proxy_b.location.lookup("bob@b.example.com",
                                                 5.0) is None

    def test_wrong_password_fails(self, mini_voip):
        auth = Authenticator("b.example.com", mini_voip.sim)
        auth.add_user("bob", "bobpass")
        mini_voip.proxy_b.authenticator = auth
        mini_voip.ua_b.credentials = DigestCredentials(
            "bob", "b.example.com", "guess")
        outcome = []
        mini_voip.ua_b.register(on_done=outcome.append)
        mini_voip.net.run(until=10.0)
        assert outcome == [False]
