"""Unit tests for the dialog layer."""


from repro.netsim import Endpoint
from repro.sip import Dialog, SipRequest, parse_message


def make_invite():
    request = SipRequest("INVITE", "sip:bob@b.com")
    request.set("Via", "SIP/2.0/UDP 10.1.0.11:5060;branch=z9hG4bKd1")
    request.set("From", "<sip:alice@a.com>;tag=ftag")
    request.set("To", "<sip:bob@b.com>")
    request.set("Call-ID", "dlg1@10.1.0.11")
    request.set("CSeq", "1 INVITE")
    request.set("Contact", "<sip:alice@10.1.0.11:5060>")
    return request


def make_200(invite):
    response = invite.create_response(200, to_tag="ttag")
    response.set("Contact", "<sip:bob@10.2.0.11:5060>")
    return response


def test_from_uac_builds_caller_view():
    invite = make_invite()
    dialog = Dialog.from_uac(invite, make_200(invite), "10.1.0.11", 5060)
    assert dialog.call_id == "dlg1@10.1.0.11"
    assert dialog.local_addr.tag == "ftag"
    assert dialog.remote_addr.tag == "ttag"
    assert dialog.remote_target.host == "10.2.0.11"
    assert dialog.remote_endpoint == Endpoint("10.2.0.11", 5060)
    assert dialog.is_uac
    assert dialog.id == ("dlg1@10.1.0.11", "ftag", "ttag")


def test_from_uas_builds_callee_view():
    invite = make_invite()
    dialog = Dialog.from_uas(invite, "ttag", "10.2.0.11", 5060)
    assert dialog.local_addr.tag == "ttag"
    assert dialog.remote_addr.tag == "ftag"
    assert dialog.remote_target.host == "10.1.0.11"
    assert not dialog.is_uac
    assert dialog.remote_cseq == 1


def test_create_request_increments_cseq_and_carries_dialog_headers():
    invite = make_invite()
    dialog = Dialog.from_uac(invite, make_200(invite), "10.1.0.11", 5060)
    dialog.local_cseq = 1
    bye = dialog.create_request("BYE", "z9hG4bKbye")
    assert bye.method == "BYE"
    assert bye.cseq.number == 2
    assert bye.call_id == dialog.call_id
    assert bye.from_.tag == "ftag"
    assert bye.to.tag == "ttag"
    assert bye.branch == "z9hG4bKbye"
    second = dialog.create_request("INVITE", "z9hG4bKre")
    assert second.cseq.number == 3


def test_create_request_serializes_cleanly():
    invite = make_invite()
    dialog = Dialog.from_uac(invite, make_200(invite), "10.1.0.11", 5060)
    bye = dialog.create_request("BYE", "z9hG4bKbye")
    parsed = parse_message(bye.serialize())
    assert parsed.method == "BYE"


def test_create_ack_uses_invite_cseq_number():
    invite = make_invite()
    response = make_200(invite)
    dialog = Dialog.from_uac(invite, response, "10.1.0.11", 5060)
    ack = dialog.create_ack(response, "z9hG4bKack")
    assert ack.method == "ACK"
    assert ack.cseq.number == 1
    assert ack.cseq.method == "ACK"
    assert ack.to.tag == "ttag"
    # ACK does not bump the local CSeq.
    assert dialog.local_cseq == 1


def test_remote_cseq_must_increase():
    invite = make_invite()
    dialog = Dialog.from_uas(invite, "ttag", "10.2.0.11", 5060)
    assert dialog.remote_cseq == 1
    assert dialog.accepts_remote_cseq(2)
    assert not dialog.accepts_remote_cseq(2)   # replay
    assert not dialog.accepts_remote_cseq(1)   # stale
    assert dialog.accepts_remote_cseq(5)


def test_missing_contact_falls_back_to_request_uri():
    invite = make_invite()
    response = invite.create_response(200, to_tag="ttag")  # no Contact
    dialog = Dialog.from_uac(invite, response, "10.1.0.11", 5060)
    assert dialog.remote_target.host == "b.com"
