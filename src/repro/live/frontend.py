"""Live UDP front-end: feed the IDS from real sockets (docs/DEPLOYMENT.md).

An asyncio datagram server binds the SIP port and a block of RTP ports
(tap topology: it receives *copies* of perimeter traffic from a span
port or packet broker; nothing is forwarded, so the IDS stays passive
exactly as the paper deploys it).  Received datagrams are stamped into
the same :class:`~repro.netsim.packet.Datagram` shape the simulator
produces and flushed in timestamp-ordered batches through the pipeline's
``process_batch`` — the identical ingestion path used by replay and the
scenario runner, so detection behaviour cannot drift between simulated,
replayed, and live operation.

Wall-clock time is mapped onto the pipeline's
:class:`~repro.efsm.system.ManualClock` by rebasing ``time.monotonic()``
onto the analysis clock's origin: between batches the clock advances to
"now" even when the wire is silent, so pattern timers (T, T1, record
linger) fire on schedule.  Monotonic capture time also means backward
wall-clock steps (NTP) cannot reach the pipeline; the clamp in
``process_batch`` plus the ``vids_time_regressions`` counter covers the
replay paths where merged captures genuinely interleave.

A minimal HTTP endpoint (``--metrics-port``) serves the obs registry in
Prometheus text format: ``vids_*`` families from the pipeline plus the
``live_*`` socket/queue families from :class:`LiveMetrics`.
"""

from __future__ import annotations

import asyncio
import time
from typing import Iterable, List, Optional, Tuple

from ..efsm.system import ManualClock
from ..netsim.address import EndpointTable
from ..netsim.packet import Datagram
from ..obs import Observability
from ..sip.constants import DEFAULT_SIP_PORT
from ..vids.replay import Pipeline, drain_horizon
from .metrics import LiveMetrics

__all__ = ["UdpFrontend"]


class _TapProtocol(asyncio.DatagramProtocol):
    """One bound socket; hands every datagram to the front-end."""

    def __init__(self, frontend: "UdpFrontend"):
        self.frontend = frontend
        self.local: Optional[Tuple[str, int]] = None

    def connection_made(self, transport) -> None:
        self.local = transport.get_extra_info("sockname")[:2]

    def datagram_received(self, data: bytes, addr) -> None:
        self.frontend._on_datagram(data, addr, self.local)

    def error_received(self, exc) -> None:  # pragma: no cover - OS-driven
        # ICMP port-unreachable chatter against a tap is routine; the
        # socket stays open.
        pass


class UdpFrontend:
    """Binds SIP/RTP ports and pumps received traffic into a pipeline.

    Parameters mirror the ``serve`` CLI subcommand.  ``sip_port=0`` (and
    RTP ports of 0) bind ephemeral ports — how the loopback smoke tests
    run without privileged or conflicting binds; the actual port is
    published in :attr:`sip_port` after :meth:`start` and registered
    with the pipeline's classifier, so classification follows the real
    socket, not an assumption.
    """

    def __init__(self, pipeline: Pipeline, clock: ManualClock,
                 host: str = "0.0.0.0",
                 sip_port: int = DEFAULT_SIP_PORT,
                 rtp_ports: Iterable[int] = (),
                 flush_interval: float = 0.05,
                 obs: Optional[Observability] = None,
                 metrics_port: Optional[int] = None):
        self.pipeline = pipeline
        self.clock = clock
        self.host = host
        self.sip_port = sip_port
        self.rtp_ports = list(rtp_ports)
        self.flush_interval = flush_interval
        self.obs = obs
        self.metrics_port = metrics_port
        self.metrics = LiveMetrics()
        self._pending: List[Tuple[Datagram, float]] = []
        self._endpoints = EndpointTable()
        self._transports: list = []
        self._pump_task: Optional[asyncio.Task] = None
        self._metrics_server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()
        self._draining = False
        self._base_monotonic = 0.0
        self._origin = 0.0
        if obs is not None:
            self.metrics.register_with(
                obs.registry, queue_depth=lambda: len(self._pending))

    # -- time mapping ---------------------------------------------------------

    def _now(self) -> float:
        """Wall time mapped onto the analysis clock (monotonic source)."""
        return self._origin + time.monotonic() - self._base_monotonic

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._base_monotonic = time.monotonic()
        self._origin = self.clock.now()
        transport, protocol = await loop.create_datagram_endpoint(
            lambda: _TapProtocol(self),
            local_addr=(self.host, self.sip_port))
        self._transports.append(transport)
        self.sip_port = protocol.local[1]
        self.pipeline.classifier.sip_ports.add(self.sip_port)
        bound_rtp = []
        for port in self.rtp_ports:
            transport, protocol = await loop.create_datagram_endpoint(
                lambda: _TapProtocol(self), local_addr=(self.host, port))
            self._transports.append(transport)
            bound_rtp.append(protocol.local[1])
        self.rtp_ports = bound_rtp
        if self.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._serve_metrics, self.host, self.metrics_port)
            self.metrics_port = \
                self._metrics_server.sockets[0].getsockname()[1]
        self._pump_task = asyncio.create_task(self._pump())

    async def serve_forever(self) -> None:
        """Run until :meth:`request_shutdown` (the CLI's signal hook)."""
        await self._shutdown.wait()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: stop accepting, flush, let timers resolve.

        With ``drain`` the analysis clock runs one linger period past the
        last packet so in-flight timers (T, T1, record linger) fire and
        their verdicts land before the process exits — the SIGTERM
        contract asserted by the CI live-smoke job.
        """
        self._draining = True
        for transport in self._transports:
            transport.close()
        self._transports.clear()
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
            self._pump_task = None
        self.flush()
        if drain:
            self.clock.advance(drain_horizon(self.pipeline.config))
            self.pipeline.flush_shed_interval()
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
            self._metrics_server = None
        self._shutdown.set()

    # -- datapath -------------------------------------------------------------

    def _on_datagram(self, data: bytes, addr, local) -> None:
        if self._draining:
            self.metrics.drain_drops += 1
            return
        when = self._now()
        endpoints = self._endpoints
        metrics = self.metrics
        metrics.datagrams_received += 1
        metrics.bytes_received += len(data)
        self._pending.append((Datagram(
            endpoints[addr[0], addr[1]], endpoints[local], data, when,
            metrics.datagrams_received), when))

    def flush(self) -> int:
        """Drain the queue into one ``process_batch`` call.

        Advances the analysis clock to "now" even when no traffic
        arrived, so an idle tap still fires its timers.  Returns the
        number of datagrams handed to the pipeline.
        """
        target = self._now()
        batch = self._pending
        count = len(batch)
        if batch:
            self._pending = []
            self.pipeline.process_batch(batch, clock=self.clock)
            self.metrics.batches_flushed += 1
        remainder = target - self.clock.now()
        if remainder > 0:
            self.clock.advance(remainder)
        return count

    async def _pump(self) -> None:
        while True:
            await asyncio.sleep(self.flush_interval)
            self.flush()

    # -- metrics endpoint -----------------------------------------------------

    async def _serve_metrics(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        """One-shot HTTP/1.0-style exposition of the obs registry."""
        try:
            # Consume the request head; the path is irrelevant — every
            # GET gets the registry.
            while True:
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
            body = b""
            if self.obs is not None:
                body = self.obs.registry.to_prometheus().encode("utf-8")
            writer.write(b"HTTP/1.0 200 OK\r\n"
                         b"Content-Type: text/plain; version=0.0.4\r\n"
                         b"Content-Length: " + str(len(body)).encode()
                         + b"\r\nConnection: close\r\n\r\n" + body)
            await writer.drain()
        finally:
            writer.close()
