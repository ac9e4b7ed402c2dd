"""Replay a pcap capture through the vids pipeline.

The bridge between :mod:`repro.live.pcap` and
:func:`repro.vids.replay.replay_trace`: decode the capture, map its
timestamps onto the analysis clock, and drive the same batched ingestion
path the simulator uses — so thresholds, timers, and alert content are
directly comparable with simulated runs (the parity bar in
tests/integration/test_tier_parity.py).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Union

from ..netsim.faults import ShardFaultPlan
from ..vids.cluster import DEFAULT_CLUSTER_CONFIG, ClusterConfig
from ..vids.config import DEFAULT_CONFIG, VidsConfig
from ..vids.replay import CapturedPacket, Pipeline, replay_trace
from .pcap import DecodeStats, load_pcap

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..obs import Observability

__all__ = ["rebase_capture", "replay_pcap"]

#: Timestamps above this are treated as wall-clock epochs and rebased to
#: t=0; below it they are assumed to already be analysis-clock relative
#: (e.g. a pcap written from a simulator capture), so they replay
#: bit-identically.  10^7 seconds ≈ 116 days of analysis time, far past
#: any scenario horizon, and far before 2001 as an epoch.
EPOCH_THRESHOLD = 1e7


def rebase_capture(capture: List[CapturedPacket],
                   rebase: Union[bool, str] = "auto"
                   ) -> List[CapturedPacket]:
    """Shift epoch timestamps onto the analysis clock (t=0 at first packet).

    Inter-packet spacing — what every window and timer actually measures
    — is preserved exactly; only the origin moves.
    """
    if not capture:
        return capture
    if rebase == "auto":
        rebase = capture[0].time > EPOCH_THRESHOLD
    if not rebase:
        return capture
    origin = capture[0].time
    for packet in capture:
        packet.time -= origin
        packet.datagram.created_at = packet.time
    return capture


def replay_pcap(source: str,
                config: VidsConfig = DEFAULT_CONFIG,
                obs: Optional["Observability"] = None,
                shards: int = 1,
                supervise: bool = False,
                cluster: ClusterConfig = DEFAULT_CLUSTER_CONFIG,
                fault_plan: Optional[ShardFaultPlan] = None,
                rebase: Union[bool, str] = "auto",
                stats: Optional[DecodeStats] = None,
                ) -> Pipeline:
    """Decode ``source`` (pcap/pcapng) and analyse it offline.

    Same knobs and return type as :func:`repro.vids.replay.replay_trace`;
    pass ``stats`` to collect the decoder's fail-closed accounting
    alongside the pipeline's own counters.
    """
    capture = rebase_capture(load_pcap(source, stats=stats), rebase)
    return replay_trace(capture, config=config, obs=obs, shards=shards,
                        supervise=supervise, cluster=cluster,
                        fault_plan=fault_plan)
