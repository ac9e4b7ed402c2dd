"""Unit tests for the SDP parser/builder."""

import pytest

from repro.sip import SessionDescription, SipParseError
from repro.sip.sdp import media_brief

SDP_TEXT = (
    "v=0\r\n"
    "o=- 1 1 IN IP4 10.1.0.11\r\n"
    "s=call\r\n"
    "c=IN IP4 10.1.0.11\r\n"
    "t=0 0\r\n"
    "m=audio 20000 RTP/AVP 18 0\r\n"
    "a=rtpmap:18 G729/8000\r\n"
    "a=rtpmap:0 PCMU/8000\r\n"
    "a=ptime:20\r\n"
)


def test_parse_full_session():
    session = SessionDescription.parse(SDP_TEXT)
    assert session.connection_address == "10.1.0.11"
    audio = session.audio
    assert audio is not None
    assert audio.port == 20000
    assert audio.payload_types == [18, 0]
    assert audio.encoding_name(18) == "G729"
    assert audio.encoding_name(0) == "PCMU"
    assert audio.encoding_name(96) is None
    assert audio.ptime_ms == 20


def test_round_trip():
    session = SessionDescription.parse(SDP_TEXT)
    again = SessionDescription.parse(session.serialize())
    assert again.connection_address == session.connection_address
    assert again.audio.payload_types == session.audio.payload_types
    assert again.audio.rtpmap == session.audio.rtpmap
    assert again.audio.ptime_ms == 20


def test_for_audio_builder():
    session = SessionDescription.for_audio("10.2.0.5", 30000, 18, "G729",
                                           ptime_ms=10)
    assert session.connection_address == "10.2.0.5"
    assert session.audio.port == 30000
    assert session.audio.encoding_name(18) == "G729"
    assert session.audio.ptime_ms == 10
    # And it serializes to parseable SDP.
    assert SessionDescription.parse(session.serialize()).audio.port == 30000


def test_no_audio_section():
    session = SessionDescription.parse("v=0\r\ns=x\r\n")
    assert session.audio is None


def test_video_section_not_confused_with_audio():
    text = SDP_TEXT + "m=video 30000 RTP/AVP 96\r\n"
    session = SessionDescription.parse(text)
    assert session.audio.media == "audio"
    assert len(session.media) == 2


def test_unknown_lines_tolerated():
    session = SessionDescription.parse(SDP_TEXT + "b=AS:64\r\nz=ignored\r\n")
    assert session.audio is not None


@pytest.mark.parametrize("bad", [
    "v=1\r\n",                        # unsupported version
    "x\r\n",                          # not key=value
    "v=0\r\no=toofew fields\r\n",
    "v=0\r\nc=IN IP4\r\n",
    "v=0\r\nm=audio\r\n",
])
def test_parse_errors(bad):
    with pytest.raises((SipParseError, ValueError)):
        SessionDescription.parse(bad)


# ---- media_brief parity with the full parse (the cached walker the vids
# ---- distributor reads per SDP body; its docstring pins parity here) ----

def expected_brief(text):
    """What the full parse says media_brief should return."""
    session = SessionDescription.parse(text)
    audio = session.audio
    if audio is None:
        return None
    return (session.connection_address, audio.port,
            tuple(audio.payload_types), audio.ptime_ms)


@pytest.mark.parametrize("text", [
    SDP_TEXT,
    SDP_TEXT + "m=video 30000 RTP/AVP 96\r\n",
    "m=video 30000 RTP/AVP 96\r\n" + SDP_TEXT.replace("v=0\r\n", ""),
    "v=0\r\ns=x\r\n",                              # no media at all
    "v=0\r\nm=audio 1000 RTP/AVP 18\r\n",          # no c=, no rtpmap
    SDP_TEXT + "m=audio 40000 RTP/AVP 0\r\n",      # second audio ignored
    SDP_TEXT.replace("a=ptime:20\r\n", ""),        # no ptime
    SDP_TEXT + "b=AS:64\r\nz=ignored\r\n",         # tolerated lines
    SDP_TEXT.replace("\r\n", "\n"),                # bare-LF line endings
    "v=0\r\na=rtpmap:18 G729/8000\r\n",            # a= before any m=
    "v=0\r\nm=audio 1000 RTP/AVP 18 96\r\n"
    "a=rtpmap:96 opus/48000/2\r\n",                # partial rtpmap
])
def test_media_brief_matches_full_parse(text):
    assert media_brief(text) == expected_brief(text)


@pytest.mark.parametrize("bad", [
    "v=1\r\n",
    "x\r\n",
    "v=0\r\no=toofew fields\r\n",
    "v=0\r\nc=IN IP4\r\n",
    "v=0\r\nm=audio\r\n",
    "v=0\r\nm=audio notaport RTP/AVP 18\r\n",
    "v=0\r\nm=audio 1000 RTP/AVP bad\r\n",
    "v=0\r\nm=audio 1000 RTP/AVP 18\r\na=rtpmap:x G729/8000\r\n",
    "v=0\r\nm=audio 1000 RTP/AVP 18\r\na=ptime:x\r\n",
    "v=0\r\no=- x 1 IN IP4 10.0.0.1\r\n",
])
def test_media_brief_rejects_exactly_what_full_parse_rejects(bad):
    with pytest.raises((SipParseError, ValueError)):
        SessionDescription.parse(bad)
    with pytest.raises((SipParseError, ValueError)):
        media_brief(bad)
