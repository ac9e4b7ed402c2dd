"""Dependency-free pcap and pcapng codec for the live front-end.

The IDS's offline mode (docs/DEPLOYMENT.md) must eat what real capture
tools emit: classic libpcap files in either byte order at microsecond or
nanosecond resolution, and pcapng sections as written by modern
tcpdump/wireshark.  This module decodes both into the same
:class:`~repro.vids.replay.CapturedPacket` stream the simulator's
recorder produces, so :func:`repro.vids.replay.replay_trace` — and with
it every timer, threshold, and alert — behaves identically whether the
evidence came from :class:`RecordingProcessor` or from a span port.

Decoding is deliberately narrow and fail-closed: Ethernet (with stacked
802.1Q/802.1ad VLAN tags), Linux cooked (SLL), and raw-IP link layers;
IPv4 only; UDP only — SIP-over-UDP is the paper's transport.  Anything
else is *counted* (never raised) in :class:`DecodeStats`, because on a
perimeter tap undecodable frames are weather, not errors.  IPv4
fragments are reassembled with bounded buffers, since a 1500-byte MTU
fragments any INVITE whose SDP pushes the UDP payload past ~1480 bytes.

A writer half (:class:`PcapWriter`, :class:`PcapNgWriter`) round-trips
simulator captures to disk — the parity harness in
tests/integration/test_tier_parity.py and the CI live-smoke job generate
their fixture pcaps with it, optionally pre-fragmented at a chosen MTU
to exercise reassembly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import (BinaryIO, Dict, Iterable, Iterator, List, Optional,
                    Tuple, Union)

from ..netsim.address import EndpointTable
from ..netsim.packet import Datagram
from ..vids.replay import CapturedPacket

__all__ = [
    "DecodeStats",
    "LINKTYPE_ETHERNET",
    "LINKTYPE_LINUX_SLL",
    "LINKTYPE_RAW",
    "PcapError",
    "PcapNgWriter",
    "PcapWriter",
    "read_pcap",
    "load_pcap",
    "write_pcap",
]

# -- link / network constants -------------------------------------------------

LINKTYPE_ETHERNET = 1
LINKTYPE_RAW = 101
LINKTYPE_LINUX_SLL = 113

_ETHERTYPE_IPV4 = 0x0800
_ETHERTYPE_VLAN = (0x8100, 0x88A8, 0x9100)
_IPPROTO_UDP = 17

# Classic pcap magics (section 3 of the pcap I-D): microsecond and
# nanosecond variants, each in both byte orders.
_MAGIC_USEC = 0xA1B2C3D4
_MAGIC_NSEC = 0xA1B23C4D

# pcapng block types.
_SHB_TYPE = 0x0A0D0D0A
_IDB_TYPE = 0x00000001
_SPB_TYPE = 0x00000003
_EPB_TYPE = 0x00000006
_BYTE_ORDER_MAGIC = 0x1A2B3C4D

#: Option code carrying an interface's timestamp resolution (pcapng §4.2).
_OPT_IF_TSRESOL = 9

#: Reassembly safety rails: concurrent fragment buffers and the largest
#: datagram a buffer may grow to (the IPv4 maximum).
MAX_FRAGMENT_BUFFERS = 256
MAX_DATAGRAM_BYTES = 65_535

#: libpcap's MAXIMUM_SNAPLEN.  No capture tool writes a longer frame, so a
#: record header that claims one is corrupt or hostile — and the reader
#: sizes its buffer from that field before a single byte is checked.
MAX_CAPTURE_BYTES = 262_144
#: The longest pcapng block, as libpcap sizes it: block and packet framing,
#: the longest frame, 128 KiB of options.
_MAX_BLOCK_BYTES = 32 + MAX_CAPTURE_BYTES + 131_072


class PcapError(Exception):
    """The file is not a pcap/pcapng capture (or is unreadably mangled)."""


@dataclass
class DecodeStats:
    """Fail-closed accounting for one decode pass.

    Every frame read lands in exactly one of: ``udp_datagrams`` (decoded
    and emitted), ``fragments_buffered`` (held for reassembly),
    or one of the skip counters.  Exposed as ``live_*`` gauges through
    :func:`repro.live.metrics.LiveMetrics.register_with`.
    """

    frames_read: int = 0
    udp_datagrams: int = 0
    #: Frames whose link layer is not one we decode.
    unsupported_linktype: int = 0
    #: Ethernet/SLL frames carrying a non-IPv4 ethertype (ARP, IPv6, ...).
    non_ipv4_frames: int = 0
    #: IPv4 packets carrying a protocol other than UDP.
    non_udp_packets: int = 0
    #: Frames whose captured bytes are shorter than their headers claim
    #: (snaplen cuts, mangled length fields).
    truncated_frames: int = 0
    #: Structurally undecodable frames (bad version nibble, header runt),
    #: and the record or block whose length field no capture could have:
    #: reading stops there.
    decode_errors: int = 0
    #: IPv4 fragments accepted into a reassembly buffer.
    fragments_buffered: int = 0
    #: Datagrams completed from fragments.
    fragments_reassembled: int = 0
    #: Fragments discarded by buffer eviction or oversize protection.
    fragments_evicted: int = 0
    #: Fragment buffers still incomplete when the capture ended.
    reassembly_pending: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in (
            "frames_read", "udp_datagrams", "unsupported_linktype",
            "non_ipv4_frames", "non_udp_packets", "truncated_frames",
            "decode_errors", "fragments_buffered", "fragments_reassembled",
            "fragments_evicted", "reassembly_pending")}


# -- IPv4 fragment reassembly -------------------------------------------------

@dataclass
class _FragmentBuffer:
    """Accumulates the fragments of one IPv4 datagram."""

    chunks: Dict[int, bytes] = field(default_factory=dict)
    #: Total payload length, known once the MF=0 fragment arrives.
    total: Optional[int] = None
    received: int = 0

    def add(self, offset: int, more: bool, payload: bytes) -> None:
        if offset not in self.chunks:
            self.received += len(payload)
        self.chunks[offset] = payload
        if not more:
            self.total = offset + len(payload)

    def complete(self) -> bool:
        if self.total is None:
            return False
        covered = 0
        for offset in sorted(self.chunks):
            if offset > covered:
                return False
            covered = max(covered, offset + len(self.chunks[offset]))
        return covered >= self.total

    def assemble(self) -> bytes:
        data = bytearray(self.total or 0)
        for offset in sorted(self.chunks):
            chunk = self.chunks[offset]
            data[offset:offset + len(chunk)] = chunk
        return bytes(data[:self.total])


class _Reassembler:
    """Bounded IPv4 reassembly keyed by (src, dst, id, proto)."""

    def __init__(self, stats: DecodeStats,
                 max_buffers: int = MAX_FRAGMENT_BUFFERS,
                 max_bytes: int = MAX_DATAGRAM_BYTES):
        self.stats = stats
        self.max_buffers = max_buffers
        self.max_bytes = max_bytes
        self._buffers: Dict[Tuple, _FragmentBuffer] = {}

    def __len__(self) -> int:
        return len(self._buffers)

    def add(self, key: Tuple, offset: int, more: bool,
            payload: bytes) -> Optional[bytes]:
        stats = self.stats
        buffer = self._buffers.get(key)
        if buffer is None:
            if len(self._buffers) >= self.max_buffers:
                # Evict the oldest buffer (insertion order): a tap under a
                # fragment flood must shed state, not grow without bound.
                oldest = next(iter(self._buffers))
                evicted = self._buffers.pop(oldest)
                stats.fragments_evicted += len(evicted.chunks)
            buffer = self._buffers[key] = _FragmentBuffer()
        buffer.add(offset, more, payload)
        stats.fragments_buffered += 1
        if offset + len(payload) > self.max_bytes or \
                buffer.received > self.max_bytes:
            stats.fragments_evicted += len(buffer.chunks)
            del self._buffers[key]
            return None
        if buffer.complete():
            del self._buffers[key]
            stats.fragments_reassembled += 1
            return buffer.assemble()
        return None

    def flush_pending(self) -> None:
        self.stats.reassembly_pending = len(self._buffers)


# -- frame decoding -----------------------------------------------------------

#: The IPv4 fixed header, minus the fields the decoder ignores: version/IHL,
#: total length, identification, flags + fragment offset, protocol, and the
#: two addresses as raw bytes (an :class:`EndpointTable` key).
_IPV4_HEADER = struct.Struct("!BxHHHxB2x4s4s")
#: The UDP header up to its length field (the checksum is not verified).
_UDP_HEADER = struct.Struct("!HHH")


def _link_header_len(linktype: int, frame: bytes,
                     stats: DecodeStats) -> Optional[int]:
    """Where the IPv4 packet starts inside ``frame``, or None (counted)."""
    if linktype == LINKTYPE_ETHERNET:
        if len(frame) < 14:
            stats.truncated_frames += 1
            return None
        ethertype = (frame[12] << 8) | frame[13]
        offset = 14
        # 802.1Q / 802.1ad tags stack; QinQ gives two in a row.
        while ethertype in _ETHERTYPE_VLAN:
            if len(frame) < offset + 4:
                stats.truncated_frames += 1
                return None
            ethertype = (frame[offset + 2] << 8) | frame[offset + 3]
            offset += 4
        if ethertype != _ETHERTYPE_IPV4:
            stats.non_ipv4_frames += 1
            return None
        return offset
    if linktype == LINKTYPE_RAW:
        return 0
    if linktype == LINKTYPE_LINUX_SLL:
        if len(frame) < 16:
            stats.truncated_frames += 1
            return None
        ethertype = (frame[14] << 8) | frame[15]
        if ethertype != _ETHERTYPE_IPV4:
            stats.non_ipv4_frames += 1
            return None
        return 16
    stats.unsupported_linktype += 1
    return None


def _decode_frame(linktype: int, ts: float, frame: bytes, stats: DecodeStats,
                  reassembler: _Reassembler, endpoints: EndpointTable
                  ) -> Optional[CapturedPacket]:
    """One captured frame -> the UDP datagram it carries (or completes).

    The headers are read in place and the payload is the only slice
    taken; a fragment detours through the reassembler and, when it
    completes a datagram, re-enters the same UDP decode on the assembled
    bytes.  Every frame lands in exactly one :class:`DecodeStats` counter.
    """
    stats.frames_read += 1
    start = _link_header_len(linktype, frame, stats)
    if start is None:
        return None
    if len(frame) - start < 20:
        stats.decode_errors += 1
        return None
    version_ihl, total_len, ident, flags_frag, protocol, src, dst = \
        _IPV4_HEADER.unpack_from(frame, start)
    header_len = (version_ihl & 0x0F) * 4
    if version_ihl >> 4 != 4 or header_len < 20 or total_len < header_len:
        stats.decode_errors += 1
        return None
    # Ethernet pads short frames to 60 bytes: the IP total length ends the
    # packet, or a 2-byte keepalive grows trailing NULs and stops matching.
    end = start + total_len
    if len(frame) < end:
        stats.truncated_frames += 1
        return None
    if protocol != _IPPROTO_UDP:
        stats.non_udp_packets += 1
        return None
    start += header_len
    if flags_frag & 0x3FFF:         # MF set, or a non-zero fragment offset
        frame = reassembler.add(
            (src, dst, ident, protocol), (flags_frag & 0x1FFF) * 8,
            bool(flags_frag & 0x2000), frame[start:end])
        if frame is None:
            return None
        start, end = 0, len(frame)

    if end - start < 8:
        stats.truncated_frames += 1
        return None
    sport, dport, udp_len = _UDP_HEADER.unpack_from(frame, start)
    if udp_len < 8 or udp_len > end - start:
        stats.truncated_frames += 1
        return None
    stats.udp_datagrams += 1
    return CapturedPacket(ts, Datagram(
        endpoints[src, sport], endpoints[dst, dport],
        frame[start + 8:start + udp_len], ts, stats.udp_datagrams))


# -- classic pcap reader ------------------------------------------------------

def _read_classic(handle: BinaryIO, header: bytes, stats: DecodeStats,
                  reassembler: _Reassembler, endpoints: EndpointTable
                  ) -> Iterator[CapturedPacket]:
    magic_be = struct.unpack(">I", header[:4])[0]
    magic_le = struct.unpack("<I", header[:4])[0]
    if magic_be in (_MAGIC_USEC, _MAGIC_NSEC):
        endian = ">"
        magic = magic_be
    else:
        endian = "<"
        magic = magic_le
    frac_scale = 1e-9 if magic == _MAGIC_NSEC else 1e-6
    rest = handle.read(20)
    if len(rest) < 20:
        raise PcapError("classic pcap: truncated global header")
    snaplen, linktype = struct.unpack(endian + "II", rest[12:20])
    # A snaplen of 0 means "not limited" (libpcap reads it so too).
    longest = min(snaplen or MAX_CAPTURE_BYTES, MAX_CAPTURE_BYTES)
    record = struct.Struct(endian + "IIII")
    while True:
        head = handle.read(16)
        if not head:
            break
        if len(head) < 16:
            stats.truncated_frames += 1
            break
        sec, frac, incl_len, _orig_len = record.unpack(head)
        if incl_len > longest:
            # Reading it would size a buffer from an untrusted field, and
            # a record stream has no resync point: stop here.
            stats.decode_errors += 1
            break
        frame = handle.read(incl_len)
        if len(frame) < incl_len:
            stats.truncated_frames += 1
            break
        ts = sec + frac * frac_scale
        captured = _decode_frame(linktype, ts, frame, stats, reassembler,
                                 endpoints)
        if captured is not None:
            yield captured


# -- pcapng reader ------------------------------------------------------------

@dataclass
class _Interface:
    linktype: int
    #: Seconds per timestamp unit (default 1e-6 per the spec).
    tick: float = 1e-6


def _parse_idb_options(body: bytes, endian: str) -> float:
    """Extract the timestamp tick from an IDB's option list."""
    tick = 1e-6
    offset = 0
    while offset + 4 <= len(body):
        code, length = struct.unpack_from(endian + "HH", body, offset)
        offset += 4
        if code == 0:
            break
        value = body[offset:offset + length]
        if code == _OPT_IF_TSRESOL and length >= 1:
            resol = value[0]
            if resol & 0x80:
                tick = 2.0 ** -(resol & 0x7F)
            else:
                tick = 10.0 ** -resol
        offset += (length + 3) & ~3
    return tick


def _read_pcapng(handle: BinaryIO, first_block_type: bytes,
                 stats: DecodeStats, reassembler: _Reassembler,
                 endpoints: EndpointTable) -> Iterator[CapturedPacket]:
    # The SHB's byte-order magic governs everything that follows until
    # the next SHB (multi-section files reset the interface list).
    endian = ""
    interfaces: List[_Interface] = []
    pending = first_block_type

    while True:
        head = pending if pending is not None else handle.read(4)
        pending = None
        if not head:
            break
        if len(head) < 4:
            raise PcapError("pcapng: truncated block header")
        # Block type is endian-sensitive, but SHB's type is a palindrome.
        block_type_raw = head
        length_bytes = handle.read(4)
        if len(length_bytes) < 4:
            raise PcapError("pcapng: truncated block length")

        section = struct.unpack("<I", block_type_raw)[0] == _SHB_TYPE
        if section:
            # Peek the byte-order magic to fix endianness for this section.
            magic_bytes = handle.read(4)
            if struct.unpack("<I", magic_bytes)[0] == _BYTE_ORDER_MAGIC:
                endian = "<"
            elif struct.unpack(">I", magic_bytes)[0] == _BYTE_ORDER_MAGIC:
                endian = ">"
            else:
                raise PcapError("pcapng: bad byte-order magic")
        elif not endian:
            raise PcapError("pcapng: block before section header")
        total_len = struct.unpack(endian + "I", length_bytes)[0]
        if total_len < 12 or total_len % 4:
            raise PcapError(f"pcapng: bad block length {total_len}")
        if total_len > _MAX_BLOCK_BYTES:
            # As for a classic record: an untrusted length, no resync point.
            stats.decode_errors += 1
            break
        unread = total_len - (12 if section else 8)
        body = handle.read(unread)
        if section:
            if len(body) < unread:
                raise PcapError("pcapng: truncated SHB")
            interfaces = []
            continue
        if len(body) < unread:
            stats.truncated_frames += 1
            break
        block_type = struct.unpack(endian + "I", block_type_raw)[0]
        body = body[:-4]  # trailing duplicate of total_len

        if block_type == _IDB_TYPE:
            linktype = struct.unpack_from(endian + "H", body)[0]
            tick = _parse_idb_options(body[8:], endian)
            interfaces.append(_Interface(linktype, tick))
        elif block_type == _EPB_TYPE:
            if len(body) < 20:
                stats.decode_errors += 1
                continue
            if_id, ts_high, ts_low, cap_len, _orig = struct.unpack_from(
                endian + "IIIII", body)
            frame = body[20:20 + cap_len]
            if if_id >= len(interfaces) or len(frame) < cap_len:
                stats.decode_errors += 1
                continue
            interface = interfaces[if_id]
            ts = ((ts_high << 32) | ts_low) * interface.tick
            captured = _decode_frame(interface.linktype, ts, frame,
                                     stats, reassembler, endpoints)
            if captured is not None:
                yield captured
        elif block_type == _SPB_TYPE:
            if not interfaces:
                stats.decode_errors += 1
                continue
            # Simple packets carry no timestamp and no captured length:
            # the frame fills the block up to the section snaplen.
            frame = body[4:]
            captured = _decode_frame(interfaces[0].linktype, 0.0, frame,
                                     stats, reassembler, endpoints)
            if captured is not None:
                yield captured
        # Unknown block types (NRB, ISB, custom) are skipped silently —
        # the spec requires readers to tolerate them.


# -- public reader API --------------------------------------------------------

def read_pcap(source: Union[str, BinaryIO],
              stats: Optional[DecodeStats] = None
              ) -> Iterator[CapturedPacket]:
    """Stream UDP/IPv4 packets from a classic pcap or pcapng capture.

    ``source`` is a path or a binary file object.  Yields
    :class:`CapturedPacket` with the original capture timestamp; feed the
    list straight to :func:`repro.vids.replay.replay_trace` (after
    rebasing epoch timestamps — :func:`repro.live.replay.replay_pcap`
    does both).  Pass ``stats`` to collect fail-closed decode accounting.
    """
    if stats is None:
        stats = DecodeStats()
    own = isinstance(source, str)
    handle: BinaryIO = open(source, "rb") if own else source
    reassembler = _Reassembler(stats)
    endpoints = EndpointTable()
    try:
        magic = handle.read(4)
        if len(magic) < 4:
            raise PcapError("capture shorter than any pcap magic")
        magic_le = struct.unpack("<I", magic)[0]
        magic_be = struct.unpack(">I", magic)[0]
        if magic_le == _SHB_TYPE:
            yield from _read_pcapng(handle, magic, stats, reassembler,
                                    endpoints)
        elif magic_le in (_MAGIC_USEC, _MAGIC_NSEC) or \
                magic_be in (_MAGIC_USEC, _MAGIC_NSEC):
            yield from _read_classic(handle, magic, stats, reassembler,
                                     endpoints)
        else:
            raise PcapError(f"unrecognized capture magic {magic!r}")
    finally:
        reassembler.flush_pending()
        if own:
            handle.close()


def load_pcap(source: Union[str, BinaryIO],
              stats: Optional[DecodeStats] = None) -> List[CapturedPacket]:
    """Eagerly read a whole capture (see :func:`read_pcap`)."""
    return list(read_pcap(source, stats=stats))


# -- frame building (shared by both writers) ----------------------------------

#: One address as the frames carry it: ``(MAC, 4-byte IPv4 address)``.
_Address = Tuple[bytes, bytes]


def _parse_address(addresses: Dict[str, _Address], ip: str) -> _Address:
    """Parse ``ip`` into one writer's memo: a locally-administered MAC for
    synthetic frames, and the address.  A bad quad raises, unremembered."""
    octets = [int(part) for part in ip.split(".")]
    mac = b"\x02\x00" + bytes(octet & 0xFF for octet in octets)[:4].ljust(4, b"\x00")
    entry = addresses[ip] = (mac, bytes(octets))
    return entry


#: An option-less IPv4 header as the writers pack it, and as the ten
#: 16-bit words RFC 1071 sums.
_IPV4_WRITE = struct.Struct("!BBHHHBBH4s4s")
_IPV4_WORDS = struct.Struct("!10H")


def _ip_checksum(header: bytes) -> int:
    total = sum(_IPV4_WORDS.unpack(header))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def _ipv4_header(src: bytes, dst: bytes, payload_len: int, ident: int,
                 flags_frag: int) -> bytes:
    unsummed = _IPV4_WRITE.pack(0x45, 0, 20 + payload_len, ident, flags_frag,
                                64, _IPPROTO_UDP, 0, src, dst)
    return _IPV4_WRITE.pack(0x45, 0, 20 + payload_len, ident, flags_frag,
                            64, _IPPROTO_UDP, _ip_checksum(unsummed), src, dst)


def _build_frames(packet: CapturedPacket, ident: int, mtu: Optional[int],
                  addresses: Dict[str, _Address]) -> List[bytes]:
    """Ethernet frame(s) for one datagram, fragmenting at ``mtu``."""
    datagram = packet.datagram
    src, dst = datagram.src, datagram.dst
    udp = struct.pack("!HHHH", src.port, dst.port,
                      8 + len(datagram.payload), 0) + datagram.payload
    dst_mac, dst_ip = addresses.get(dst.ip) or _parse_address(addresses, dst.ip)
    src_mac, src_ip = addresses.get(src.ip) or _parse_address(addresses, src.ip)
    ether = dst_mac + src_mac + struct.pack("!H", _ETHERTYPE_IPV4)

    if mtu is None or 20 + len(udp) <= mtu:
        return [ether + _ipv4_header(src_ip, dst_ip, len(udp), ident, 0)
                + udp]
    chunk = ((mtu - 20) // 8) * 8
    if chunk <= 0:
        raise ValueError(f"mtu {mtu} leaves no room for fragment payload")
    frames = []
    for offset in range(0, len(udp), chunk):
        piece = udp[offset:offset + chunk]
        more = 0x2000 if offset + len(piece) < len(udp) else 0
        frames.append(
            ether + _ipv4_header(src_ip, dst_ip, len(piece), ident,
                                 more | (offset // 8)) + piece)
    return frames


# -- classic pcap writer ------------------------------------------------------

class PcapWriter:
    """Writes classic pcap (nanosecond resolution by default).

    Synthesizes Ethernet/IPv4/UDP framing around each datagram; with
    ``mtu`` set, datagrams whose IP packet exceeds it are emitted as
    standards-shaped fragments (the reader's reassembly fixture).  Each
    address is parsed once per writer, into a memo the writer owns.
    """

    def __init__(self, handle: BinaryIO, nanosecond: bool = True,
                 snaplen: int = 262_144, mtu: Optional[int] = None):
        self.handle = handle
        self.nanosecond = nanosecond
        self.mtu = mtu
        self._frac_scale = 1e9 if nanosecond else 1e6
        self._ident = 0
        self._addresses: Dict[str, _Address] = {}
        magic = _MAGIC_NSEC if nanosecond else _MAGIC_USEC
        handle.write(struct.pack("<IHHiIII", magic, 2, 4, 0, 0, snaplen,
                                 LINKTYPE_ETHERNET))

    def write(self, packet: CapturedPacket) -> None:
        self._ident = (self._ident + 1) & 0xFFFF
        sec = int(packet.time)
        frac = round((packet.time - sec) * self._frac_scale)
        if frac >= self._frac_scale:  # rounding carried into the next second
            sec += 1
            frac = 0
        for frame in _build_frames(packet, self._ident, self.mtu,
                                   self._addresses):
            self.handle.write(struct.pack("<IIII", sec, frac,
                                          len(frame), len(frame)))
            self.handle.write(frame)

    def write_all(self, capture: Iterable[CapturedPacket]) -> None:
        for packet in capture:
            self.write(packet)


def write_pcap(path: str, capture: Iterable[CapturedPacket],
               nanosecond: bool = True, mtu: Optional[int] = None) -> int:
    """Write ``capture`` to ``path`` as classic pcap; returns packet count."""
    count = 0
    with open(path, "wb") as handle:
        writer = PcapWriter(handle, nanosecond=nanosecond, mtu=mtu)
        for packet in capture:
            writer.write(packet)
            count += 1
    return count


# -- pcapng writer ------------------------------------------------------------

class PcapNgWriter:
    """Minimal pcapng writer: one SHB, one ns-resolution IDB, EPBs.

    Exists so the reader's pcapng path is exercised against files we can
    generate hermetically in tests and CI (no capture tools in the image).
    """

    def __init__(self, handle: BinaryIO, mtu: Optional[int] = None):
        self.handle = handle
        self.mtu = mtu
        self._ident = 0
        self._addresses: Dict[str, _Address] = {}
        shb_body = struct.pack("<IHHq", _BYTE_ORDER_MAGIC, 1, 0, -1)
        self._write_block(_SHB_TYPE, shb_body)
        # IDB: Ethernet, unlimited snaplen, if_tsresol=9 (nanoseconds).
        idb_body = struct.pack("<HHI", LINKTYPE_ETHERNET, 0, 0)
        idb_body += struct.pack("<HH", _OPT_IF_TSRESOL, 1) + b"\x09\x00\x00\x00"
        idb_body += struct.pack("<HH", 0, 0)
        self._write_block(_IDB_TYPE, idb_body)

    def _write_block(self, block_type: int, body: bytes) -> None:
        padding = (-len(body)) % 4
        total = 12 + len(body) + padding
        self.handle.write(struct.pack("<II", block_type, total))
        self.handle.write(body + b"\x00" * padding)
        self.handle.write(struct.pack("<I", total))

    def write(self, packet: CapturedPacket) -> None:
        self._ident = (self._ident + 1) & 0xFFFF
        ticks = round(packet.time * 1e9)
        for frame in _build_frames(packet, self._ident, self.mtu,
                                   self._addresses):
            body = struct.pack("<IIIII", 0, (ticks >> 32) & 0xFFFFFFFF,
                               ticks & 0xFFFFFFFF, len(frame), len(frame))
            self._write_block(_EPB_TYPE, body + frame)

    def write_all(self, capture: Iterable[CapturedPacket]) -> None:
        for packet in capture:
            self.write(packet)
