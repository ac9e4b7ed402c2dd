"""Builders for the event vocabulary the vids machines consume: the fields
``sip_event_from_message`` / ``rtp_event_from_packet`` build, no others."""

from repro.efsm import EfsmSystem, Event

CALLER_IP = "10.1.0.11"      # caller UA (network A)
PROXY_A_IP = "10.1.0.1"      # outbound proxy (on the INVITE path)
CALLEE_IP = "10.2.0.11"      # callee UA (network B)
ATTACKER_IP = "172.16.66.6"
CALL_ID = "call-1@10.1.0.11"


class RecordingSystem(EfsmSystem):
    """An :class:`EfsmSystem` whose *test* keeps every firing.

    The system retains none (a per-call log would grow with the traffic an
    attacker sends); ``inject`` returns them and ``on_result`` sees them,
    timer- and δ-driven ones included.  A test that wants to ask "did
    anything deviate, did any attack transition fire" hooks a list there.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fired = []
        self.on_result = self.fired.append

    @property
    def deviations(self):
        return [result for result in self.fired if result.deviation]

    @property
    def attack_matches(self):
        return [result for result in self.fired if result.attack]


def sip_event(name, src_ip, dst_ip, method, call_id=CALL_ID, from_tag="ft",
              to_tag=None, branch="z9hG4bKi1", cseq_num=1,
              contact_host=None, via_hosts=None, time=0.0, **fields):
    """A SIP message's vector; ``fields`` adds URI, status or SDP ones
    (the SDP ones only with an ``sdp_addr``)."""
    return Event(name, {
        "src_ip": src_ip, "src_port": 5060, "dst_ip": dst_ip,
        "call_id": call_id, "from_tag": from_tag, "to_tag": to_tag,
        "branch": branch, "cseq_num": cseq_num, "cseq_method": method,
        "contact_host": contact_host,
        "via_hosts": (src_ip,) if via_hosts is None else tuple(via_hosts),
        **{key: tuple(value) if key == "sdp_pts" else value
           for key, value in fields.items() if value is not None
           and (fields.get("sdp_addr") or not key.startswith("sdp_"))}},
        time=time)


def invite_event(src_ip=PROXY_A_IP, dst_ip="10.2.0.1", **fields):
    return sip_event("INVITE", src_ip, dst_ip, "INVITE", **{
        "contact_host": CALLER_IP, "via_hosts": (PROXY_A_IP, CALLER_IP),
        "to_aor": "bob@b.example.com", "uri_host": "b.example.com",
        "uri_user": "bob", "sdp_addr": CALLER_IP, "sdp_port": 20_000,
        "sdp_pts": (18,), "sdp_ptime": 20, **fields})


def response_event(status, cseq_method="INVITE", src_ip="10.2.0.1",
                   dst_ip=PROXY_A_IP, **fields):
    return sip_event("RESPONSE", src_ip, dst_ip, cseq_method, **{
        "to_tag": "tt", "contact_host": CALLEE_IP,
        "via_hosts": (PROXY_A_IP, CALLER_IP), "status": status, **fields})


def answer_event(**overrides):
    """200 OK for the INVITE with the callee's SDP answer."""
    return response_event(**{"status": 200, "sdp_addr": CALLEE_IP,
                             "sdp_port": 20_002, "sdp_pts": (18,),
                             "sdp_ptime": 20, **overrides})


def ack_event(src_ip=CALLER_IP, dst_ip=CALLEE_IP, branch="z9hG4bKa1",
              **fields):
    return sip_event("ACK", src_ip, dst_ip, "ACK", to_tag="tt",
                     branch=branch, **fields)


def bye_event(src_ip=CALLEE_IP, dst_ip=CALLER_IP, branch="z9hG4bKb1",
              cseq_num=2, **fields):
    return sip_event("BYE", src_ip, dst_ip, "BYE", from_tag="tt",
                     to_tag="ft", branch=branch, cseq_num=cseq_num, **fields)


def cancel_event(src_ip=PROXY_A_IP, **fields):
    return sip_event("CANCEL", src_ip, CALLEE_IP, "CANCEL", **fields)


def rtp_event(src_ip=CALLER_IP, dst_ip=CALLEE_IP, ssrc=1111, seq=100,
              ts=16_000, pt=18, direction="to_callee", time=0.0):
    return Event("RTP_PACKET", {
        "src_ip": src_ip, "src_port": 20_000, "dst_ip": dst_ip,
        "ssrc": ssrc, "seq": seq, "ts": ts, "pt": pt,
        "direction": direction,
    }, time=time)
