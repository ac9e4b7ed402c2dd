"""Unit tests for the dependency-free pcap/pcapng codec."""

import io
import struct
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.live import pcap
from repro.live.pcap import (
    DecodeStats,
    LINKTYPE_ETHERNET,
    LINKTYPE_LINUX_SLL,
    LINKTYPE_RAW,
    MAX_CAPTURE_BYTES,
    MAX_FRAGMENT_BUFFERS,
    PcapError,
    PcapNgWriter,
    PcapWriter,
    load_pcap,
    _ip_checksum,
    write_pcap,
)
from repro.netsim import Datagram, Endpoint
from repro.netsim.address import EndpointTable
from repro.vids import CapturedPacket


def packet(time, payload, src=("10.0.0.1", 5060), dst=("10.0.0.2", 5060)):
    return CapturedPacket(time, Datagram(Endpoint(*src), Endpoint(*dst),
                                         payload))


def sample_capture():
    return [
        packet(0.5, b"OPTIONS sip:x SIP/2.0\r\n\r\n"),
        packet(1.25, bytes(range(200)), src=("10.0.0.3", 30_000),
               dst=("10.0.0.4", 20_002)),
        packet(2.0, b"\r\n\r\n"),
    ]


def roundtrip(capture, stats=None, **writer_kwargs):
    buffer = io.BytesIO()
    PcapWriter(buffer, **writer_kwargs).write_all(capture)
    buffer.seek(0)
    return load_pcap(buffer, stats=stats)


def assert_same(decoded, capture):
    assert len(decoded) == len(capture)
    for got, want in zip(decoded, capture):
        assert got.time == pytest.approx(want.time, abs=1e-9)
        assert got.datagram.src == want.datagram.src
        assert got.datagram.dst == want.datagram.dst
        assert got.datagram.payload == want.datagram.payload


class TestClassicRoundTrip:
    def test_nanosecond(self):
        stats = DecodeStats()
        decoded = roundtrip(sample_capture(), stats=stats)
        assert_same(decoded, sample_capture())
        assert stats.udp_datagrams == 3
        assert stats.decode_errors == 0

    def test_microsecond(self):
        decoded = roundtrip(sample_capture(), nanosecond=False)
        assert_same(decoded, sample_capture())

    def test_file_path_api(self, tmp_path):
        path = str(tmp_path / "capture.pcap")
        assert write_pcap(path, sample_capture()) == 3
        assert_same(load_pcap(path), sample_capture())

    def test_big_endian_classic(self):
        # Hand-built big-endian microsecond capture over raw-IP frames.
        buffer = io.BytesIO()
        buffer.write(struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0,
                                 65_535, LINKTYPE_RAW))
        udp = struct.pack("!HHHH", 5060, 5061, 8 + 3, 0) + b"abc"
        ip = _raw_ipv4("1.2.3.4", "5.6.7.8", udp)
        buffer.write(struct.pack(">IIII", 7, 500_000, len(ip), len(ip)))
        buffer.write(ip)
        buffer.seek(0)
        decoded = load_pcap(buffer)
        assert len(decoded) == 1
        assert decoded[0].time == pytest.approx(7.5)
        assert decoded[0].datagram.payload == b"abc"
        assert decoded[0].datagram.dst == Endpoint("5.6.7.8", 5061)

    def test_garbage_magic_raises(self):
        with pytest.raises(PcapError):
            load_pcap(io.BytesIO(b"\x00\x01\x02\x03rest"))
        with pytest.raises(PcapError):
            load_pcap(io.BytesIO(b"\xa1"))


def _raw_ipv4(src, dst, payload, proto=17, flags_frag=0, ident=1,
              version_ihl=0x45, total_len=None, options=b""):
    """An IPv4 packet, with any header field wrong on request."""
    if total_len is None:
        total_len = 20 + len(options) + len(payload)
    return struct.pack(
        "!BBHHHBBH4s4s", version_ihl, 0, total_len, ident, flags_frag,
        64, proto, 0,
        bytes(int(p) for p in src.split(".")),
        bytes(int(p) for p in dst.split("."))) + options + payload


def _classic_raw_file(frames, linktype=LINKTYPE_RAW, snaplen=65_535):
    buffer = io.BytesIO()
    buffer.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, snaplen,
                             linktype))
    for ts, frame in frames:
        sec = int(ts)
        buffer.write(struct.pack("<IIII", sec, int((ts - sec) * 1e6),
                                 len(frame), len(frame)))
        buffer.write(frame)
    buffer.seek(0)
    return buffer


class TestLinkLayers:
    def test_vlan_tags_including_qinq(self):
        udp = struct.pack("!HHHH", 1111, 2222, 8 + 2, 0) + b"hi"
        ip = _raw_ipv4("10.0.0.1", "10.0.0.2", udp)
        ether = b"\x02" * 12
        single = ether + struct.pack("!HH", 0x8100, 0x0001) \
            + struct.pack("!H", 0x0800) + ip
        qinq = ether + struct.pack("!HH", 0x88A8, 0x0001) \
            + struct.pack("!HH", 0x8100, 0x0002) \
            + struct.pack("!H", 0x0800) + ip
        buffer = io.BytesIO()
        buffer.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0,
                                 65_535, 1))
        for frame in (single, qinq):
            buffer.write(struct.pack("<IIII", 1, 0, len(frame), len(frame)))
            buffer.write(frame)
        buffer.seek(0)
        decoded = load_pcap(buffer)
        assert [p.datagram.payload for p in decoded] == [b"hi", b"hi"]

    def test_linux_sll(self):
        udp = struct.pack("!HHHH", 1111, 2222, 8 + 2, 0) + b"ok"
        ip = _raw_ipv4("10.0.0.1", "10.0.0.2", udp)
        sll = struct.pack("!HHH8sH", 0, 1, 6, b"\x02" * 8, 0x0800) + ip
        buffer = io.BytesIO()
        buffer.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0,
                                 65_535, LINKTYPE_LINUX_SLL))
        buffer.write(struct.pack("<IIII", 1, 0, len(sll), len(sll)))
        buffer.write(sll)
        buffer.seek(0)
        decoded = load_pcap(buffer)
        assert decoded[0].datagram.payload == b"ok"

    def test_ethernet_padding_trimmed(self):
        """A 2-byte keepalive is padded to the 60-byte Ethernet minimum;
        the IP total-length must win or the payload stops matching
        KEEPALIVE_PAYLOADS."""
        capture = [packet(0.1, b"\r\n")]
        buffer = io.BytesIO()
        PcapWriter(buffer).write_all(capture)
        raw = bytearray(buffer.getvalue())
        # Pad the (single) frame to 60 bytes of link payload.
        frame_start = 24 + 16
        frame = raw[frame_start:]
        pad = 60 - len(frame)
        assert pad > 0
        raw[24 + 8:24 + 12] = struct.pack("<I", len(frame) + pad)
        raw[24 + 12:24 + 16] = struct.pack("<I", len(frame) + pad)
        padded = io.BytesIO(bytes(raw) + b"\x00" * pad)
        decoded = load_pcap(padded)
        assert decoded[0].datagram.payload == b"\r\n"

    def test_unsupported_linktype_and_non_ip_counted(self):
        stats = DecodeStats()
        # Unsupported linktype 147 (USER0).
        buffer = io.BytesIO()
        buffer.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0,
                                 65_535, 147))
        buffer.write(struct.pack("<IIII", 1, 0, 4, 4) + b"zzzz")
        buffer.seek(0)
        assert load_pcap(buffer, stats=stats) == []
        assert stats.unsupported_linktype == 1
        # ARP over Ethernet.
        arp = b"\x02" * 12 + struct.pack("!H", 0x0806) + b"\x00" * 28
        buffer = io.BytesIO()
        buffer.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0,
                                 65_535, 1))
        buffer.write(struct.pack("<IIII", 1, 0, len(arp), len(arp)))
        buffer.write(arp)
        buffer.seek(0)
        assert load_pcap(buffer, stats=stats) == []
        assert stats.non_ipv4_frames == 1

    def test_non_udp_and_truncated_counted(self):
        tcp = _raw_ipv4("1.1.1.1", "2.2.2.2", b"\x00" * 20, proto=6)
        short = _raw_ipv4("1.1.1.1", "2.2.2.2", b"\x00" * 64)[:30]
        stats = DecodeStats()
        decoded = load_pcap(_classic_raw_file([(0.0, tcp), (0.1, short)]),
                            stats=stats)
        assert decoded == []
        assert stats.non_udp_packets == 1
        assert stats.truncated_frames == 1


class TestFragmentation:
    def test_writer_fragments_reader_reassembles(self):
        big = packet(3.0, bytes(range(256)) * 8)  # 2048B payload
        stats = DecodeStats()
        decoded = roundtrip([big], stats=stats, mtu=500)
        assert_same(decoded, [big])
        assert stats.fragments_reassembled == 1
        assert stats.fragments_buffered > 1
        assert stats.reassembly_pending == 0

    def test_out_of_order_fragments(self):
        udp = struct.pack("!HHHH", 1000, 2000, 8 + 1600, 0) + bytes(1600)
        chunk = 800
        first = _raw_ipv4("9.9.9.9", "8.8.8.8", udp[:chunk],
                          flags_frag=0x2000, ident=42)
        second = _raw_ipv4("9.9.9.9", "8.8.8.8", udp[chunk:],
                           flags_frag=chunk // 8, ident=42)
        stats = DecodeStats()
        decoded = load_pcap(
            _classic_raw_file([(0.0, second), (0.1, first)]), stats=stats)
        assert len(decoded) == 1
        assert decoded[0].datagram.payload == bytes(1600)
        # The datagram completes at the *second* frame's timestamp.
        assert decoded[0].time == pytest.approx(0.1)
        assert stats.fragments_reassembled == 1

    def test_incomplete_fragments_reported_pending(self):
        lonely = _raw_ipv4("9.9.9.9", "8.8.8.8", bytes(64),
                           flags_frag=0x2000, ident=7)
        stats = DecodeStats()
        assert load_pcap(_classic_raw_file([(0.0, lonely)]),
                         stats=stats) == []
        assert stats.reassembly_pending == 1

    def test_buffer_eviction_is_bounded(self):
        frames = []
        for ident in range(MAX_FRAGMENT_BUFFERS + 10):
            frames.append((ident * 0.001, _raw_ipv4(
                "9.9.9.9", "8.8.8.8", bytes(16), flags_frag=0x2000,
                ident=ident)))
        stats = DecodeStats()
        assert load_pcap(_classic_raw_file(frames), stats=stats) == []
        assert stats.fragments_evicted == 10
        assert stats.reassembly_pending == MAX_FRAGMENT_BUFFERS


class TestPcapNg:
    def test_roundtrip(self):
        buffer = io.BytesIO()
        PcapNgWriter(buffer).write_all(sample_capture())
        buffer.seek(0)
        stats = DecodeStats()
        decoded = load_pcap(buffer, stats=stats)
        assert_same(decoded, sample_capture())
        assert stats.udp_datagrams == 3

    def test_fragmented_pcapng(self):
        big = packet(1.0, bytes(3000))
        buffer = io.BytesIO()
        PcapNgWriter(buffer, mtu=576).write(big)
        buffer.seek(0)
        decoded = load_pcap(buffer)
        assert_same(decoded, [big])

    def test_unknown_blocks_skipped(self):
        buffer = io.BytesIO()
        writer = PcapNgWriter(buffer)
        # Interleave a Name Resolution Block (type 4) — readers must skip.
        writer._write_block(0x00000004, b"\x00" * 8)
        writer.write_all(sample_capture())
        buffer.seek(0)
        assert_same(load_pcap(buffer), sample_capture())


# -- the decode path, frame by frame ------------------------------------------

def _ipv4(payload, **wrong):
    return _raw_ipv4("10.0.0.1", "10.0.0.2", payload, **wrong)


def _udp(sport, dport, payload, length=None):
    return struct.pack("!HHHH", sport, dport,
                       8 + len(payload) if length is None else length,
                       0) + payload


_MACS = b"\x02" * 12


def _ether(packet, tags=()):
    frame = _MACS
    for tpid in tags:
        frame += struct.pack("!HH", tpid, 7)
    return frame + struct.pack("!H", 0x0800) + packet


_BIG = _udp(1000, 2000, bytes(1600))

#: (what is wrong with the frame, the frame, the one counter it lands in).
#: The landing column was recorded from the byte-indexing decoder this
#: one replaced: the struct-based decoder must agree frame by frame.
MANGLED_CORPUS = [
    ("good", _ether(_ipv4(_udp(30_000, 20_002, b"one"))), "udp_datagrams"),
    ("runt Ethernet", _MACS[:9], "truncated_frames"),
    ("runt IP", _ether(_ipv4(b"")[:10]), "decode_errors"),
    ("bad IHL", _ether(_ipv4(_udp(1, 2, b"x"), version_ihl=0x44)),
     "decode_errors"),
    ("bad version", _ether(_ipv4(_udp(1, 2, b"x"), version_ihl=0x65)),
     "decode_errors"),
    ("total_len < IHL", _ether(_ipv4(_udp(1, 2, b"x"), total_len=10)),
     "decode_errors"),
    ("total_len > captured", _ether(_ipv4(_udp(1, 2, bytes(64)))[:40]),
     "truncated_frames"),
    ("short UDP", _ether(_ipv4(b"\x00\x01\x00\x02")), "truncated_frames"),
    ("UDP length < 8", _ether(_ipv4(_udp(1, 2, b"abcd", length=7))),
     "truncated_frames"),
    ("UDP length > packet", _ether(_ipv4(_udp(1, 2, b"abcd", length=64))),
     "truncated_frames"),
    ("QinQ", _ether(_ipv4(_udp(30_000, 20_002, b"two")),
                    tags=(0x88A8, 0x8100)), "udp_datagrams"),
    ("VLAN tag cut short", (_MACS + struct.pack("!HH", 0x8100, 7))[:15],
     "truncated_frames"),
    ("padded Ethernet",
     _ether(_ipv4(_udp(5060, 5060, b"\r\n"))).ljust(60, b"\x00"),
     "udp_datagrams"),
    ("non-UDP", _ether(_ipv4(bytes(20), proto=6)), "non_udp_packets"),
    ("non-IPv4", _MACS + struct.pack("!H", 0x0806) + bytes(28),
     "non_ipv4_frames"),
    ("IP options", _ether(_ipv4(_udp(30_000, 20_002, b"opt"),
                                version_ihl=0x46,
                                options=b"\x01\x01\x01\x00")),
     "udp_datagrams"),
    ("second fragment first", _ether(_ipv4(_BIG[800:], flags_frag=100,
                                           ident=42)), "fragments_buffered"),
    ("first fragment completes", _ether(_ipv4(_BIG[:800], flags_frag=0x2000,
                                              ident=42)), "udp_datagrams"),
    ("lonely fragment", _ether(_ipv4(bytes(64), flags_frag=0x2000, ident=7)),
     "fragments_buffered"),
    ("good again", _ether(_ipv4(_udp(30_000, 20_002, b"three"))),
     "udp_datagrams"),
]

#: ``DecodeStats`` after the whole corpus, pinned from the parent commit.
MANGLED_TOTALS = {
    "frames_read": 20, "udp_datagrams": 6, "unsupported_linktype": 0,
    "non_ipv4_frames": 1, "non_udp_packets": 1, "truncated_frames": 6,
    "decode_errors": 4, "fragments_buffered": 3, "fragments_reassembled": 1,
    "fragments_evicted": 0, "reassembly_pending": 1,
}


def _classic_ether_file(frames, snaplen=65_535):
    """Ethernet frames, stamped one second apart."""
    return _classic_raw_file(list(enumerate(frames)), LINKTYPE_ETHERNET,
                             snaplen)


def _landed(stats):
    """How many frames the counters account for, each frame once: a
    fragment that completes a datagram is both buffered and emitted."""
    return (stats.udp_datagrams - stats.fragments_reassembled
            + stats.fragments_buffered + stats.unsupported_linktype
            + stats.non_ipv4_frames + stats.non_udp_packets
            + stats.truncated_frames + stats.decode_errors)


class TestMangledCorpus:
    def test_every_frame_lands_in_exactly_one_counter(self):
        frames = [frame for _, frame, _ in MANGLED_CORPUS]
        before = DecodeStats().as_dict()
        for count, (what, _, counter) in enumerate(MANGLED_CORPUS, start=1):
            stats = DecodeStats()
            load_pcap(_classic_ether_file(frames[:count]), stats=stats)
            assert stats.frames_read == count == _landed(stats), what
            after = stats.as_dict()
            assert after[counter] == before[counter] + 1, what
            before = after

    def test_counters_and_datagrams_match_the_parent_commit(self):
        stats = DecodeStats()
        decoded = load_pcap(_classic_ether_file(
            [frame for _, frame, _ in MANGLED_CORPUS]), stats=stats)
        assert stats.as_dict() == MANGLED_TOTALS
        assert [(p.time, p.datagram.src, p.datagram.dst, p.datagram.payload)
                for p in decoded] == [
            (0.0, ("10.0.0.1", 30_000), ("10.0.0.2", 20_002), b"one"),
            (10.0, ("10.0.0.1", 30_000), ("10.0.0.2", 20_002), b"two"),
            (12.0, ("10.0.0.1", 5060), ("10.0.0.2", 5060), b"\r\n"),
            (15.0, ("10.0.0.1", 30_000), ("10.0.0.2", 20_002), b"opt"),
            (17.0, ("10.0.0.1", 1000), ("10.0.0.2", 2000), bytes(1600)),
            (19.0, ("10.0.0.1", 30_000), ("10.0.0.2", 20_002), b"three"),
        ]
        assert all(p.datagram.created_at == p.time for p in decoded)


class TestSharedEndpoints:
    def test_packets_of_one_stream_share_their_endpoints(self):
        decoded = load_pcap(_classic_ether_file(
            [frame for _, frame, _ in MANGLED_CORPUS]))
        first, *_, last = decoded
        assert first.datagram.src is last.datagram.src
        assert first.datagram.dst is last.datagram.dst
        assert isinstance(first.datagram.src, Endpoint)

    def test_nothing_is_shared_between_two_reads(self):
        """The table belongs to one ``read_pcap`` call: no module state."""
        frames = [MANGLED_CORPUS[0][1]]
        one = load_pcap(_classic_ether_file(frames))[0].datagram
        two = load_pcap(_classic_ether_file(frames))[0].datagram
        assert one.src == two.src and one.src is not two.src

    def test_the_table_stops_growing_at_its_cap(self):
        table = EndpointTable()
        for port in range(EndpointTable.CAP + 10):
            assert table[b"\x0a\x00\x00\x01", port] == ("10.0.0.1", port)
        assert len(table) == EndpointTable.CAP
        # Below the cap a miss is remembered, text and bytes alike ...
        assert table[b"\x0a\x00\x00\x01", 0] is table[b"\x0a\x00\x00\x01", 0]
        # ... at the cap it is answered, equal but not kept.
        late = EndpointTable.CAP + 5
        assert table["10.0.0.9", late] == Endpoint("10.0.0.9", late)
        assert table["10.0.0.9", late] is not table["10.0.0.9", late]
        assert len(table) == EndpointTable.CAP


# -- hostile length fields ----------------------------------------------------

class _MeteredFile(io.BytesIO):
    """Remembers the largest read it was asked for."""

    largest = 0

    def read(self, size=-1):
        self.largest = max(self.largest, size)
        return super().read(size)


def _good_frame():
    return _ether(_ipv4(_udp(30_000, 20_002, b"good")))


class TestHostileLengths:
    """A length field sizes the reader's buffer before any byte of the
    frame is checked: 24 + 16 bytes could ask for 4 GiB."""

    @pytest.mark.parametrize("preceded", [False, True])
    def test_classic_record_longer_than_any_capture(self, preceded):
        good = [_good_frame()] if preceded else []
        source = _MeteredFile(_classic_ether_file(good).getvalue()
                              + struct.pack("<IIII", 9, 0, 0xFFFFFFF0, 64))
        stats = DecodeStats()
        decoded = load_pcap(source, stats=stats)
        assert [p.datagram.payload for p in decoded] == [b"good"] * preceded
        assert stats.decode_errors == 1
        assert stats.frames_read == preceded
        assert source.largest <= MAX_CAPTURE_BYTES

    def test_classic_record_longer_than_the_files_snaplen(self):
        frame = _good_frame()
        source = _classic_ether_file([frame, frame], snaplen=len(frame))
        assert len(load_pcap(source)) == 2
        stats = DecodeStats()
        source = _classic_ether_file([frame, frame + b"\x00", frame],
                                     snaplen=len(frame))
        # No resync point after a refused record: the third is not read.
        assert len(load_pcap(source, stats=stats)) == 1
        assert (stats.frames_read, stats.decode_errors) == (1, 1)

    def test_classic_snaplen_zero_means_unlimited(self):
        source = _classic_ether_file([_good_frame()], snaplen=0)
        assert len(load_pcap(source)) == 1

    @pytest.mark.parametrize("preceded", [False, True])
    def test_pcapng_block_longer_than_any_capture(self, preceded):
        buffer = io.BytesIO()
        writer = PcapNgWriter(buffer)
        if preceded:
            writer.write(packet(0.5, b"good"))
        source = _MeteredFile(buffer.getvalue()
                              + struct.pack("<II", 0x00000006, 0xFFFFFFF0))
        stats = DecodeStats()
        decoded = load_pcap(source, stats=stats)
        assert [p.datagram.payload for p in decoded] == [b"good"] * preceded
        assert stats.decode_errors == 1
        assert source.largest <= 2 * MAX_CAPTURE_BYTES

    def test_pcapng_section_header_longer_than_any_capture(self):
        source = _MeteredFile(struct.pack("<III", 0x0A0D0D0A, 0xFFFFFFF0,
                                          0x1A2B3C4D))
        stats = DecodeStats()
        assert load_pcap(source, stats=stats) == []
        assert stats.decode_errors == 1
        assert source.largest <= 2 * MAX_CAPTURE_BYTES


def test_decoded_capture_equals_original(mixed_capture, tmp_path):
    """The seed-23 mixed-attack capture read back from a pcap file is the
    original capture, packet for packet (the tier-parity harness checks
    the verdicts on top of this)."""
    path = str(tmp_path / "perimeter.pcap")
    assert write_pcap(path, mixed_capture) == len(mixed_capture)
    decoded = load_pcap(path)
    assert len(decoded) == len(mixed_capture)
    for got, want in zip(decoded, mixed_capture):
        assert got.datagram.payload == want.datagram.payload
        assert got.datagram.src == want.datagram.src
        assert got.datagram.dst == want.datagram.dst
        assert abs(got.time - want.time) < 1e-9


def rfc1071_checksum(header):
    """The byte-pair loop RFC 1071 describes, kept as the oracle."""
    total = 0
    for index in range(0, len(header), 2):
        total += (header[index] << 8) | header[index + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


@given(st.binary(min_size=20, max_size=20))
def test_ip_checksum_is_rfc1071(header):
    assert _ip_checksum(header) == rfc1071_checksum(header)


def test_ip_checksum_of_a_checksummed_header_is_zero():
    # RFC 1071: a header carrying its own checksum sums to 0xFFFF.
    header = bytearray(bytes.fromhex("4500003c1c4640004006") + bytes(2)
                       + bytes.fromhex("ac100a63ac100a0c"))
    header[10:12] = _ip_checksum(bytes(header)).to_bytes(2, "big")
    assert header[10:12] == bytes.fromhex("b1e6")
    assert _ip_checksum(bytes(header)) == 0


# -- framing: each address parsed once per writer ----------------------------

def per_packet_frames(packet, ident, mtu):
    """The writers' frames built the per-packet way, kept as the oracle:
    both addresses re-parsed for the MACs and again for the IP header."""
    datagram = packet.datagram
    src, dst = datagram.src, datagram.dst

    def mac(ip):
        octets = bytes(int(part) & 0xFF for part in ip.split("."))[:4]
        return b"\x02\x00" + octets.ljust(4, b"\x00")

    def ipv4(payload_len, flags_frag):
        header = bytearray(struct.pack(
            "!BBHHHBBH4s4s", 0x45, 0, 20 + payload_len, ident, flags_frag,
            64, 17, 0, bytes(int(p) for p in src.ip.split(".")),
            bytes(int(p) for p in dst.ip.split("."))))
        header[10:12] = rfc1071_checksum(header).to_bytes(2, "big")
        return bytes(header)

    udp = struct.pack("!HHHH", src.port, dst.port,
                      8 + len(datagram.payload), 0) + datagram.payload
    ether = mac(dst.ip) + mac(src.ip) + b"\x08\x00"
    if mtu is None or 20 + len(udp) <= mtu:
        return [ether + ipv4(len(udp), 0) + udp]
    chunk = ((mtu - 20) // 8) * 8
    return [ether + ipv4(len(udp[offset:offset + chunk]),
                         (0x2000 if offset + chunk < len(udp) else 0)
                         | offset // 8) + udp[offset:offset + chunk]
            for offset in range(0, len(udp), chunk)]


def framing_capture():
    """Repeated and distinct addresses, in both roles; a short quad (which
    ``4s`` pads); payloads on both sides of a 576-byte MTU."""
    hosts = [("10.0.0.1", 5060), ("10.0.0.2", 5060), ("10.0.1.7", 30_000),
             ("192.168.255.254", 16_384), ("10.1.2", 7)]
    return [packet(0.25 * index, bytes(range(256)) * (index % 4),
                   src=hosts[index % len(hosts)],
                   dst=hosts[(index * 3 + 1) % len(hosts)])
            for index in range(40)]


class TestFraming:
    @pytest.mark.parametrize("mtu", [None, 576])
    @pytest.mark.parametrize("writer", [PcapWriter, PcapNgWriter])
    def test_writer_bytes_equal_the_per_packet_oracle(self, writer, mtu,
                                                      monkeypatch):
        capture = framing_capture()
        written = io.BytesIO()
        writer(written, mtu=mtu).write_all(capture)
        monkeypatch.setattr(
            pcap, "_build_frames",
            lambda packet, ident, mtu, addresses:
                per_packet_frames(packet, ident, mtu))
        expected = io.BytesIO()
        writer(expected, mtu=mtu).write_all(capture)
        assert written.getvalue() == expected.getvalue()
        frames = sum(len(per_packet_frames(p, 0, mtu)) for p in capture)
        assert (frames > len(capture)) == (mtu is not None)

    def test_two_writes_share_no_memo(self, tmp_path, monkeypatch):
        """The memo belongs to one writer: no module state, and each
        writer parses each address exactly once."""
        parsed = []
        parse = pcap._parse_address
        monkeypatch.setattr(
            pcap, "_parse_address",
            lambda addresses, ip: parsed.append(ip) or parse(addresses, ip))
        capture = framing_capture()
        write_pcap(str(tmp_path / "one.pcap"), capture)
        write_pcap(str(tmp_path / "two.pcap"), capture, mtu=576)
        addresses = {ip for captured in capture for ip in
                     (captured.datagram.src.ip, captured.datagram.dst.ip)}
        assert Counter(parsed) == {ip: 2 for ip in addresses}

    @pytest.mark.parametrize("writer", [PcapWriter, PcapNgWriter])
    @pytest.mark.parametrize("role", ["src", "dst"])
    def test_an_invalid_quad_raises_every_time(self, writer, role):
        bad = {role: ("10.0.0.300", 5060)}
        out = writer(io.BytesIO())
        for _ in range(2):      # a failed parse is not remembered
            with pytest.raises(ValueError, match="range"):
                out.write(packet(1.0, b"x", **bad))
