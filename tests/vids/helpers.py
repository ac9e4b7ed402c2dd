"""Builders for the event vocabulary the vids machines consume."""

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


def invite_event(src_ip=PROXY_A_IP, dst_ip="10.2.0.1", branch="z9hG4bKi1",
                 call_id=CALL_ID, from_tag="ft", to_tag=None,
                 cseq_num=1, contact_host=CALLER_IP,
                 via_hosts=(PROXY_A_IP, CALLER_IP),
                 sdp_addr=CALLER_IP, sdp_port=20_000, sdp_pts=(18,),
                 sdp_ptime=20, time=0.0):
    args = {
        "src_ip": src_ip, "src_port": 5060,
        "dst_ip": dst_ip, "dst_port": 5060,
        "call_id": call_id, "from_tag": from_tag, "to_tag": to_tag,
        "branch": branch, "cseq_num": cseq_num, "cseq_method": "INVITE",
        "contact_host": contact_host, "via_hosts": tuple(via_hosts),
        "to_aor": "bob@b.example.com", "from_aor": "alice@a.example.com",
        "uri_host": "b.example.com", "uri_user": "bob",
    }
    if sdp_addr:
        args.update(sdp_addr=sdp_addr, sdp_port=sdp_port,
                    sdp_pts=tuple(sdp_pts), sdp_ptime=sdp_ptime)
    return Event("INVITE", args, time=time)


def response_event(status, cseq_method="INVITE", src_ip="10.2.0.1",
                   dst_ip=PROXY_A_IP, call_id=CALL_ID, from_tag="ft",
                   to_tag="tt", branch="z9hG4bKi1", cseq_num=1,
                   contact_host=CALLEE_IP, sdp_addr=None, sdp_port=0,
                   sdp_pts=(), sdp_ptime=None, time=0.0):
    args = {
        "src_ip": src_ip, "src_port": 5060,
        "dst_ip": dst_ip, "dst_port": 5060,
        "call_id": call_id, "from_tag": from_tag, "to_tag": to_tag,
        "branch": branch, "cseq_num": cseq_num, "cseq_method": cseq_method,
        "contact_host": contact_host, "via_hosts": (PROXY_A_IP, CALLER_IP),
        "status": status,
    }
    if sdp_addr:
        args.update(sdp_addr=sdp_addr, sdp_port=sdp_port,
                    sdp_pts=tuple(sdp_pts))
        if sdp_ptime:
            args["sdp_ptime"] = sdp_ptime
    return Event("RESPONSE", args, time=time)


def answer_event(time=0.0, **overrides):
    """200 OK for the INVITE with the callee's SDP answer."""
    defaults = dict(status=200, sdp_addr=CALLEE_IP, sdp_port=20_002,
                    sdp_pts=(18,), sdp_ptime=20, time=time)
    defaults.update(overrides)
    return response_event(**defaults)


def ack_event(src_ip=CALLER_IP, dst_ip=CALLEE_IP, call_id=CALL_ID,
              branch="z9hG4bKa1", time=0.0):
    return Event("ACK", {
        "src_ip": src_ip, "src_port": 5060,
        "dst_ip": dst_ip, "dst_port": 5060,
        "call_id": call_id, "from_tag": "ft", "to_tag": "tt",
        "branch": branch, "cseq_num": 1, "cseq_method": "ACK",
        "contact_host": None, "via_hosts": (src_ip,),
    }, time=time)


def bye_event(src_ip=CALLEE_IP, dst_ip=CALLER_IP, call_id=CALL_ID,
              branch="z9hG4bKb1", cseq_num=2, time=0.0):
    return Event("BYE", {
        "src_ip": src_ip, "src_port": 5060,
        "dst_ip": dst_ip, "dst_port": 5060,
        "call_id": call_id, "from_tag": "tt", "to_tag": "ft",
        "branch": branch, "cseq_num": cseq_num, "cseq_method": "BYE",
        "contact_host": None, "via_hosts": (src_ip,),
    }, time=time)


def cancel_event(src_ip=PROXY_A_IP, call_id=CALL_ID, branch="z9hG4bKi1",
                 time=0.0):
    return Event("CANCEL", {
        "src_ip": src_ip, "src_port": 5060,
        "dst_ip": CALLEE_IP, "dst_port": 5060,
        "call_id": call_id, "from_tag": "ft", "to_tag": None,
        "branch": branch, "cseq_num": 1, "cseq_method": "CANCEL",
        "contact_host": None, "via_hosts": (src_ip,),
    }, time=time)


def rtp_event(src_ip=CALLER_IP, dst_ip=CALLEE_IP, dst_port=20_002,
              ssrc=1111, seq=100, ts=16_000, pt=18,
              direction="to_callee", time=0.0):
    return Event("RTP_PACKET", {
        "src_ip": src_ip, "src_port": 20_000,
        "dst_ip": dst_ip, "dst_port": dst_port,
        "ssrc": ssrc, "seq": seq, "ts": ts, "pt": pt,
        "size": 32, "marker": False, "direction": direction,
    }, time=time)
