"""Inline (bump-in-the-wire) devices.

The vids host sits *between* the edge router and the enterprise hub
(paper Figures 1 and 7): every packet entering or leaving the protected
network is handed to the device, which forwards it to the opposite port
after a processing delay determined by an attached
:class:`PacketProcessor`.  The device is a single-server FIFO queue — the
same CPU parses SIP, logs RTP, and drives the state machines — so bursts of
signaling can momentarily delay media packets, which is the mechanism behind
the small RTP delay/jitter penalties measured in Figure 10.

With no processor attached (or a :class:`NullProcessor`), the device is the
paper's "in the absence of vids, the vids host simply forwards the received
packets" baseline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Protocol

from .node import Node
from .packet import Datagram

if TYPE_CHECKING:  # pragma: no cover
    from .link import Link
    from .network import Network

__all__ = ["PacketProcessor", "NullProcessor", "InlineDevice"]


class PacketProcessor(Protocol):
    """Anything that can inspect packets flowing through an inline device."""

    def process(self, datagram: Datagram, now: float) -> float:
        """Inspect ``datagram`` at time ``now``; return CPU service time (s)."""
        ...


class NullProcessor:
    """A processor that inspects nothing and costs nothing."""

    def process(self, datagram: Datagram, now: float) -> float:
        return 0.0


class InlineDevice(Node):
    """A transparent two-port forwarding device with a processing CPU."""

    def __init__(
        self,
        network: "Network",
        name: str,
        processor: Optional[PacketProcessor] = None,
        forwarding_latency: float = 0.0,
        fail_open: bool = True,
    ):
        super().__init__(network, name)
        # Explicit None check: a processor may define __len__ (e.g. a
        # PacketTrace with no records yet) and must not be discarded for
        # being falsy.
        self.processor: PacketProcessor = (
            processor if processor is not None else NullProcessor()
        )
        #: Fixed store-and-forward latency even with no processor (the host
        #: still moves the packet between NICs).
        self.forwarding_latency = float(forwarding_latency)
        #: Fail-open policy: a crashing processor must not take the wire
        #: down with it — the packet is forwarded uninspected and counted.
        self.fail_open = fail_open
        self._cpu_free_at = 0.0
        self.busy_time = 0.0
        self.packets_forwarded = 0
        self.processor_failures = 0
        self._started_at: Optional[float] = None

    def attach_link(self, link: "Link") -> None:
        if len(self.links) >= 2:
            raise ValueError(f"inline device {self.name} supports exactly 2 links")
        super().attach_link(link)

    def receive(self, datagram: Datagram, in_link: "Link") -> None:
        if len(self.links) != 2:
            raise RuntimeError(f"inline device {self.name} is not fully wired")
        now = self.sim.now
        if self._started_at is None:
            self._started_at = now
        out_link = self.links[0] if in_link is self.links[1] else self.links[1]

        try:
            service = self.processor.process(datagram, now)
        except Exception:
            if not self.fail_open:
                raise
            self.processor_failures += 1
            service = 0.0
        # A misbehaving processor must not run the device clock backwards.
        service = max(0.0, service)
        start = max(now, self._cpu_free_at)
        done = start + service + self.forwarding_latency
        self._cpu_free_at = done
        self.busy_time += service + self.forwarding_latency
        self.packets_forwarded += 1
        if done <= now:
            out_link.transmit(datagram, self)
        else:
            self.sim.schedule_at(done, out_link.transmit, datagram, self)

    def cpu_utilization(self, until: Optional[float] = None) -> float:
        """Fraction of elapsed time the device CPU spent processing.

        Zero or negative observation windows (``until`` at or before the
        first packet) report 0.0 rather than dividing by zero.
        """
        if self._started_at is None:
            return 0.0
        end = until if until is not None else self.sim.now
        elapsed = end - self._started_at
        if elapsed <= 0.0:
            return 0.0
        return self.busy_time / elapsed

    def register_metrics(self, registry, prefix: str = "netsim") -> None:
        """Expose this device's queue/CPU state through an obs registry."""
        labelnames = ("device",)
        registry.gauge(
            f"{prefix}_device_queue_seconds",
            "Seconds of processing backlog on the device CPU",
            labelnames=labelnames,
        ).labels(device=self.name).set_function(self.queue_depth)
        registry.gauge(
            f"{prefix}_device_cpu_utilization",
            "Fraction of elapsed time the device CPU spent processing",
            labelnames=labelnames,
        ).labels(device=self.name).set_function(self.cpu_utilization)
        registry.counter(
            f"{prefix}_device_packets_forwarded",
            "Packets forwarded through the device",
            labelnames=labelnames,
        ).labels(device=self.name).set_function(
            lambda: self.packets_forwarded)
        registry.counter(
            f"{prefix}_device_processor_failures",
            "Processor exceptions absorbed by the fail-open policy",
            labelnames=labelnames,
        ).labels(device=self.name).set_function(
            lambda: self.processor_failures)

    def queue_depth(self, now: Optional[float] = None) -> float:
        """Seconds of processing backlog queued on the device CPU.

        This is the single-server queue's virtual waiting time: how long a
        packet arriving at ``now`` would wait before its own service
        starts.  Overload-shedding processors watch this against their
        high/low watermarks.
        """
        current = self.sim.now if now is None else now
        return max(0.0, self._cpu_free_at - current)
