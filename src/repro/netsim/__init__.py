"""Discrete-event network simulator (the reproduction's OPNET substitute).

Public surface:

- :class:`Simulator`, :class:`Timer` — the event loop.  A Timer is the
  scheduled event itself (the heap holds ``(time, seq, timer)`` tuples)
  and the handle that cancels it.
- :class:`Network` — topology container and route computation.
- :class:`Host`, :class:`Router`, :class:`Hub` — nodes.
- :class:`Link` — duplex links with bandwidth/propagation/loss.
- :class:`InternetCloud` — fixed-delay, lossy transit.
- :class:`InlineDevice`, :class:`PacketProcessor` — bump-in-the-wire devices
  (where vids is deployed).
- :class:`Datagram`, :class:`Endpoint` — the packet model.
- :class:`RandomStreams` — named, seeded randomness.
- :class:`FaultPlan`, :class:`FaultyLink` — seeded fault injection
  (corruption, duplication, reordering, burst loss, link flaps).
"""

from .address import Endpoint
from .engine import SimulationError, Simulator, Timer
from .faults import FaultPlan, FaultStats, FaultyLink, inject_faults
from .inline import InlineDevice, NullProcessor, PacketProcessor
from .internet import (
    DEFAULT_INTERNET_DELAY,
    DEFAULT_INTERNET_LOSS,
    InternetCloud,
)
from .link import BPS_100BASET, BPS_DS1, Link, LinkStats
from .network import Network
from .node import Host, Hub, Node, Router
from .packet import IP_UDP_OVERHEAD, Datagram
from .random import RandomStreams
from .trace import PacketTrace, TraceRecord
from .traffic import CbrTrafficSource, TrafficSink

__all__ = [
    "BPS_100BASET",
    "BPS_DS1",
    "CbrTrafficSource",
    "DEFAULT_INTERNET_DELAY",
    "DEFAULT_INTERNET_LOSS",
    "Datagram",
    "Endpoint",
    "FaultPlan",
    "FaultStats",
    "FaultyLink",
    "Host",
    "Hub",
    "IP_UDP_OVERHEAD",
    "InlineDevice",
    "InternetCloud",
    "Link",
    "LinkStats",
    "Network",
    "Node",
    "NullProcessor",
    "PacketProcessor",
    "PacketTrace",
    "RandomStreams",
    "Router",
    "SimulationError",
    "Simulator",
    "Timer",
    "TraceRecord",
    "TrafficSink",
    "inject_faults",
]
