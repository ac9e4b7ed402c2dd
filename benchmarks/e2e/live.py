"""The ``live_loopback`` workload: open-loop UDP into the asyncio tap.

One sender thread plays a fixed schedule over real loopback sockets —
it never waits for the IDS, so a stall shows up as latency, not as less
load.  Every datagram has a *due* time; its verdict latency runs from
that due time (not from when the sender got round to it) to the return
of the ``process_batch`` call that carried it.

Timeline of a run: bind sockets, set the calls up at ``INVITE_RATE``
(all traffic comes from 127.0.0.1, so the rate stays under
``invite_source_threshold``), then ``seconds`` of two-way G.729 on every
call — the measured interval — then BYE/200 and a graceful drain.
Everything before the first media packet is set-up.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import spans
import stats
import workloads
from repro.live import UdpFrontend, build_pipeline

HOST = "127.0.0.1"
#: Calls at full size; two bound RTP ports and 100 packets/s each.
CALLS = 24
INVITE_RATE = 8.0
FLUSH_INTERVAL = 0.05
#: Pause between the phases, so no media races its own signalling.
PHASE_GAP = 0.5
#: The measured interval is cut into slices of about this many seconds,
#: the repeats of this workload: one host stall then spoils one slice's
#: percentiles, not the run's.
WINDOW = 1.0

Item = Tuple[float, int, bytes]     # (due offset, destination port, payload)


@dataclass
class Schedule:
    items: List[Item]
    media_start: float
    media_end: float
    #: payload -> due offset; payloads are unique (Call-ID, SSRC + sequence).
    due: Dict[bytes, float] = field(default_factory=dict)


def build_schedule(seed: int, seconds: float, sip_port: int,
                   rtp_ports: List[int]) -> Schedule:
    rng = random.Random(seed)
    dialogs = workloads.loopback_dialogs(seed, sip_port, rtp_ports)
    items: List[Item] = []
    for n, dialog in enumerate(dialogs):
        for step, (_, _, payload) in enumerate(dialog.setup()):
            items.append((n / INVITE_RATE + 0.02 * step, sip_port, payload))
    media_start = len(dialogs) / INVITE_RATE + PHASE_GAP
    per_stream = int(seconds / workloads.G729_INTERVAL)
    for dialog in dialogs:
        for port in (dialog.answer_port, dialog.offer_port):
            packet = workloads.rtp_stream(rng)
            phase = rng.random() * workloads.G729_INTERVAL
            items.extend(
                (media_start + phase + index * workloads.G729_INTERVAL,
                 port, packet(index)) for index in range(per_stream))
    media_end = media_start + seconds
    for n, dialog in enumerate(dialogs):
        for step, (_, _, payload) in enumerate(dialog.teardown()):
            items.append((media_end + PHASE_GAP + 0.01 * n + 0.002 * step,
                          sip_port, payload))
    items.sort(key=lambda item: item[0])
    return Schedule(items, media_start, media_end,
                    {payload: due for due, _, payload in items})


class Sender(threading.Thread):
    """Plays a schedule against the clock; records how late each send ran."""

    def __init__(self, schedule: Schedule, origin: float):
        super().__init__(name="e2e-sender", daemon=True)
        self.schedule = schedule
        self.origin = origin
        self.late: List[float] = []
        self.stopped = threading.Event()
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        clock = time.perf_counter
        try:
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                for due, port, payload in self.schedule.items:
                    target = self.origin + due
                    delay = target - clock()
                    while delay > 0:
                        if self.stopped.wait(min(delay, 0.05)):
                            return
                        delay = target - clock()
                    sock.sendto(payload, (HOST, port))
                    self.late.append(clock() - target)
        except OSError as exc:
            self.error = exc


@dataclass
class LiveRun:
    """Raw observations of one session; ``worker.py`` reduces them."""

    setup_s: float = 0.0
    sent: int = 0
    #: The analysed pipeline: its counters and alerts are the verdicts.
    pipeline: object = None
    #: The media phase in slices of ``window_s`` seconds by verdict time,
    #: each (datagrams carried, process CPU seconds at nominal speed,
    #: sorted latencies in us as the clock read them).
    window_s: float = 0.0
    windows: List[Tuple[int, float, List[float]]] = \
        field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    #: Traced runs only.
    recv_lag_ms: List[float] = field(default_factory=list)
    queue_wait_ms: List[float] = field(default_factory=list)
    flush_ms: List[float] = field(default_factory=list)
    batch_pkts: List[float] = field(default_factory=list)
    trace_overhead_ratio: float = 0.0
    tracer: Optional[spans.Tracer] = None
    traced_packets: int = 0
    #: Box speed, by the probe, while the span shims were on.
    traced_speed: float = 1.0


async def _sleep_until(deadline: float) -> None:
    await asyncio.sleep(max(0.0, deadline - time.perf_counter()))


async def _session(config, seed: int, seconds: float, scale: float,
                   trace: bool, started: float, speed_probe,
                   setup_only: bool) -> LiveRun:
    run = LiveRun()
    calls = workloads.scaled(CALLS, scale, 2)
    pipeline, clock = build_pipeline(config=config)
    frontend = UdpFrontend(pipeline, clock, host=HOST, sip_port=0,
                           rtp_ports=[0] * (2 * calls),
                           flush_interval=FLUSH_INTERVAL)
    batches = []        # (items, returned at, process time)

    # The wrappers call through the class, so the span shims a traced run
    # installs there half-way through the media phase take effect.
    def carried(items, clock=None):
        result = type(pipeline).process_batch(pipeline, items, clock=clock)
        batches.append((items, time.perf_counter(), time.process_time()))
        # Straight after the program's own work, as in a replay: a pass
        # made when the loop wakes from idle would time a cold core.
        speed_probe.sample()
        return result

    pipeline.process_batch = carried
    arrivals: Dict[bytes, float] = {}
    flushes = []        # (start, end, index of the batch it carried or -1)
    if trace:
        def stamped(data, addr, local):
            arrivals[data] = time.perf_counter()
            UdpFrontend._on_datagram(frontend, data, addr, local)

        def timed_flush():
            before, begin = len(batches), time.perf_counter()
            count = UdpFrontend.flush(frontend)
            flushes.append((begin, time.perf_counter(),
                            before if len(batches) > before else -1))
            return count

        frontend._on_datagram, frontend.flush = stamped, timed_flush

    await frontend.start()
    schedule = build_schedule(seed, seconds, frontend.sip_port,
                              frontend.rtp_ports)
    origin = time.perf_counter() + 0.05
    # Traced runs: first half of the media phase bare, second half under
    # the span shims.
    split = origin + schedule.media_start + seconds / 2
    tracer = spans.Tracer() if trace else None
    sender = Sender(schedule, origin)
    sender.start()
    drained = False
    try:
        await _sleep_until(origin + schedule.media_start)
        run.setup_s = time.perf_counter() - started
        media_cpu_start = time.process_time()
        if setup_only:
            return run
        with contextlib.ExitStack() as shims:
            if tracer is not None:
                await _sleep_until(split)
                shims.enter_context(spans.installed(tracer))
            await _sleep_until(origin + schedule.items[-1][0] + 0.2)
            sender.join(timeout=5.0)
            await frontend.stop(drain=True)
            drained = True
    finally:
        sender.stopped.set()
        sender.join(timeout=5.0)
        if not drained:
            await frontend.stop(drain=False)
    if sender.error is not None:
        raise sender.error

    run.pipeline = pipeline
    run.sent = len(sender.late)
    run.late_ms = [1e3 * max(0.0, late) for late in sender.late]
    run.window_s = seconds / max(1, int(seconds / WINDOW))
    run.windows = _windows(schedule, origin, batches, media_cpu_start,
                           run.window_s, speed_probe)
    if tracer is not None:
        _reduce_trace(run, tracer, schedule, origin, batches, flushes,
                      arrivals, split)
        run.traced_speed, _ = speed_probe.between(
            int(1e9 * split), int(1e9 * (origin + schedule.media_end)))
    return run


def _windows(schedule: Schedule, origin: float, batches, cpu_before: float,
             width: float, speed_probe
             ) -> List[Tuple[int, float, List[float]]]:
    """Media-phase datagrams grouped by the slice their verdict fell in.

    Latency is set by the flush timer and stays as the clock read it; CPU
    time is scaled by the speed the probe saw during the slice.
    """
    count = round((schedule.media_end - schedule.media_start) / width)
    packets, cpu = [0] * count, [0.0] * count
    latencies: List[List[float]] = [[] for _ in range(count)]
    due = schedule.due
    for items, returned, cpu_now in batches:
        index = int((returned - origin - schedule.media_start) / width)
        if 0 <= index < count:
            cpu[index] += cpu_now - cpu_before
            for datagram, _ in items:
                offset = due[datagram.payload]
                if schedule.media_start <= offset < schedule.media_end:
                    packets[index] += 1
                    latencies[index].append(
                        1e6 * (returned - origin - offset))
        cpu_before = cpu_now
    for index in range(count):
        begin = origin + schedule.media_start + index * width
        cpu[index] = speed_probe.at_nominal(
            int(1e9 * begin), int(1e9 * (begin + width)), cpu[index])
    return [(packets[i], cpu[i], sorted(latencies[i])) for i in range(count)]


def _reduce_trace(run: LiveRun, tracer, schedule: Schedule, origin: float,
                  batches, flushes, arrivals, split: float) -> None:
    """Front-end queueing figures of the media phase, and what the span
    shims cost."""
    run.tracer = tracer
    due = schedule.due
    busy = {False: [0.0, 0], True: [0.0, 0]}    # traced? -> [seconds, packets]
    for begin, end, index in flushes:
        if index < 0 or not (schedule.media_start <= begin - origin
                             < schedule.media_end):
            continue
        carried = batches[index][0]
        run.flush_ms.append(1e3 * (end - begin))
        run.batch_pkts.append(float(len(carried)))
        for datagram, _ in carried:
            arrived = arrivals[datagram.payload]
            run.recv_lag_ms.append(
                1e3 * (arrived - origin - due[datagram.payload]))
            run.queue_wait_ms.append(1e3 * (begin - arrived))
        side = busy[begin >= split]
        side[0] += end - begin
        side[1] += len(carried)
    run.traced_packets = busy[True][1]
    if busy[False][1] and busy[True][1]:
        run.trace_overhead_ratio = ((busy[True][0] / busy[True][1])
                                    / (busy[False][0] / busy[False][1]))


def run_live(config, seed: int, seconds: float, scale: float, trace: bool,
             started: float, speed_probe,
             setup_only: bool = False) -> LiveRun:
    """``speed_probe`` is a fresh :class:`probe.SpeedProbe`; the session
    makes a pass after every batch."""
    return asyncio.run(_session(config, seed, seconds, scale, trace,
                                started, speed_probe, setup_only))


def percentiles(values: List[float]) -> Tuple[float, float]:
    ordered = sorted(values)
    return stats.percentile(ordered, 50.0), stats.percentile(ordered, 99.0)
