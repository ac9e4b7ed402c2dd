"""repro.live: the live-wire front-end (docs/DEPLOYMENT.md).

Feeds the vids pipeline from outside the simulator through the very same
``process_batch`` ingestion path, in two modes:

- **serve** — :class:`UdpFrontend`, an asyncio tap that binds real SIP
  and RTP UDP sockets, stamps datagrams into the simulator's
  :class:`~repro.netsim.packet.Datagram` shape, and maps wall time onto
  the analysis :class:`~repro.efsm.system.ManualClock`;
- **replay** — :func:`replay_pcap`, a dependency-free classic-pcap and
  pcapng decoder (:mod:`repro.live.pcap`) driving
  :func:`~repro.vids.replay.replay_trace` with the original capture
  timestamps.

Both expose ``live_*`` metric families (:class:`LiveMetrics`) through
the obs registry next to the pipeline's ``vids_*`` counters.
"""

from ..vids.replay import build_pipeline
from .frontend import UdpFrontend
from .metrics import LiveMetrics
from .pcap import (DecodeStats, PcapError, PcapNgWriter, PcapWriter,
                   load_pcap, read_pcap, write_pcap)
from .replay import rebase_capture, replay_pcap

__all__ = [
    "DecodeStats",
    "LiveMetrics",
    "PcapError",
    "PcapNgWriter",
    "PcapWriter",
    "UdpFrontend",
    "build_pipeline",
    "load_pcap",
    "read_pcap",
    "rebase_capture",
    "replay_pcap",
    "write_pcap",
]
