"""Build a pipeline of any tier; record perimeter traffic and replay it.

:func:`build_pipeline` is the one topology switch — plain
:class:`Vids`, a :class:`ShardedVids` facade, or a
:class:`SupervisedCluster` — shared by the scenario runner, the CLI, the
live front-end and trace replay; :func:`drain_horizon` is the one answer
to "how long after the last packet until every pending timer has fired".

The paper's vids logs packets "at the granularity of a millisecond"; this
module closes the loop for forensics: a :class:`RecordingProcessor` wraps
any inline processor (vids itself, or a null baseline) and captures every
datagram with its timestamp; :func:`replay_trace` then drives a *fresh*
pipeline over the capture with a manual clock — same machines, same
timers, same alerts — so an analyst can re-run detection with different
thresholds (e.g. a tighter timer T or lower flood threshold N) without
re-running the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple, Union

from ..efsm.system import ManualClock
from ..netsim.engine import Simulator
from ..netsim.faults import ShardFaultPlan
from ..netsim.inline import NullProcessor, PacketProcessor
from ..netsim.packet import Datagram
from .cluster import DEFAULT_CLUSTER_CONFIG, ClusterConfig, SupervisedCluster
from .config import DEFAULT_CONFIG, VidsConfig
from .ids import Vids
from .sharding import ShardedVids

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..obs import Observability

__all__ = ["CapturedPacket", "Pipeline", "RecordingProcessor",
           "build_pipeline", "drain_horizon", "replay_trace"]

Pipeline = Union[Vids, ShardedVids, SupervisedCluster]


def build_pipeline(config: VidsConfig = DEFAULT_CONFIG,
                   shards: int = 1,
                   supervise: bool = False,
                   cluster: ClusterConfig = DEFAULT_CLUSTER_CONFIG,
                   obs: Optional["Observability"] = None,
                   fault_plan: Optional[ShardFaultPlan] = None,
                   sim: Optional[Simulator] = None,
                   ) -> Tuple[Pipeline, Optional[ManualClock]]:
    """A pipeline of the requested tier, and the clock that drives it.

    Without ``sim`` the pipeline runs on a fresh :class:`ManualClock`,
    returned so the caller can advance it (replay, the live tap); with
    ``sim`` the simulator schedules the timers and the clock is ``None``.
    ``cluster`` and ``fault_plan`` only apply with ``supervise=True``.
    """
    clock = ManualClock() if sim is None else None
    drive = dict(sim=sim) if clock is None else dict(
        clock_now=clock.now, timer_scheduler=clock.schedule)
    if supervise:
        pipeline: Pipeline = SupervisedCluster(
            shards=max(shards, 1), config=config, obs=obs, cluster=cluster,
            fault_plan=fault_plan, **drive)
    elif shards > 1:
        pipeline = ShardedVids(shards=shards, config=config, obs=obs, **drive)
    else:
        pipeline = Vids(config=config, obs=obs, **drive)
    return pipeline, clock


def drain_horizon(config: VidsConfig) -> float:
    """Seconds past the last packet until every pending timer has fired:
    the in-flight timer T, then the closed record's linger, plus slack."""
    return config.bye_inflight_timer + config.closed_record_linger + 1.0


@dataclass
class CapturedPacket:
    """One packet of a perimeter capture."""

    time: float
    datagram: Datagram


class RecordingProcessor:
    """A PacketProcessor that tees traffic into a capture buffer.

    Wraps an inner processor (defaults to a no-cost null processor), so it
    can record alongside live vids detection or on a bare forwarding host.
    """

    def __init__(self, inner: Optional[PacketProcessor] = None):
        self.inner: PacketProcessor = inner if inner is not None \
            else NullProcessor()
        self.capture: List[CapturedPacket] = []

    def process(self, datagram: Datagram, now: float) -> float:
        self.capture.append(CapturedPacket(now, datagram))
        return self.inner.process(datagram, now)

    def __len__(self) -> int:
        return len(self.capture)

    def clear(self) -> None:
        self.capture.clear()


def replay_trace(capture: Iterable[CapturedPacket],
                 config: VidsConfig = DEFAULT_CONFIG,
                 obs: Optional["Observability"] = None,
                 shards: int = 1,
                 supervise: bool = False,
                 cluster: ClusterConfig = DEFAULT_CLUSTER_CONFIG,
                 fault_plan: Optional[ShardFaultPlan] = None,
                 ) -> Pipeline:
    """Re-run detection over a capture; returns the analysed pipeline.

    The manual clock advances to each packet's original timestamp, so
    pattern timers (T, the T1 deadlines) and record lifetimes behave as they
    would have online — and, under ``supervise``, the supervisor's
    heartbeats, checkpoints and the fault plan's injections fire at their
    scheduled times; after the last packet the clock runs one
    :func:`drain_horizon` so pending timers resolve.  Pass ``obs`` to
    trace the replay — the natural place to build a forensic timeline,
    since the capture is already scoped to the evidence window.
    """
    pipeline, clock = build_pipeline(
        config=config, shards=shards, supervise=supervise, cluster=cluster,
        obs=obs, fault_plan=fault_plan)
    pipeline.process_batch(
        ((packet.datagram, packet.time) for packet in capture), clock=clock)
    clock.advance(drain_horizon(config))
    pipeline.flush_shed_interval()
    return pipeline
