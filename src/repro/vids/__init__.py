"""vids: VoIP intrusion detection through interacting protocol state machines.

The paper's primary contribution.  Architecture (Figure 3):

- :class:`PacketClassifier` — raw datagrams to typed SIP/RTP observations;
- :class:`EventDistributor` — session grouping (Call-ID / media index);
- :class:`CallStateFactBase` — per-call communicating-EFSM systems;
- attack patterns — Figure 4/5/6 machines and attack-annotated transitions
  (:mod:`repro.vids.patterns`, :mod:`repro.vids.sip_machine`,
  :mod:`repro.vids.rtp_machine`);
- :class:`AnalysisEngine` — alerts on attack matches and spec deviations;
- :class:`Vids` — the facade, deployable as an inline device processor.
"""

from .alerts import Alert, AlertManager, AttackType
from .classifier import ClassifiedPacket, PacketClassifier, PacketKind
from .cluster import (
    ClusterConfig,
    ClusterMetrics,
    DEFAULT_CLUSTER_CONFIG,
    MemberState,
    ShardCheckpoint,
    ShardSupervisor,
    SupervisedCluster,
)
from .config import DEFAULT_CONFIG, VidsConfig
from .distributor import (
    EventDistributor,
    rtp_event_from_packet,
    sip_event_from_message,
)
from .engine import AnalysisEngine
from .factbase import CallRecord, CallStateFactBase
from .ids import Vids
from .metrics import VidsMetrics, estimate_state_bytes, estimate_value_bytes
from .patterns import (
    InviteFloodTracker,
    OrphanMediaTracker,
    build_invite_flood_machine,
    build_media_spam_machine,
)
from .replay import (
    CapturedPacket,
    RecordingProcessor,
    build_pipeline,
    drain_horizon,
    replay_trace,
)
from .sharding import ShardedVids, shard_for_call
from .rtp_machine import RTP_ATTACK_STATES, RTP_STATES, build_rtp_machine
from .scenarios import (
    AttackScenario,
    BUILTIN_SCENARIOS,
    SCENARIOS,
)
from .sip_machine import SIP_ATTACK_STATES, SIP_STATES, build_sip_machine
from .spec import CallSpec, call_spec
from .sync import (
    DELTA_BYE,
    DELTA_CANCELLED,
    DELTA_SESSION_ANSWER,
    DELTA_SESSION_OFFER,
    RTP_MACHINE,
    SIP_MACHINE,
    SIP_TO_RTP,
)

__all__ = [
    "Alert",
    "AlertManager",
    "AnalysisEngine",
    "AttackScenario",
    "AttackType",
    "BUILTIN_SCENARIOS",
    "SCENARIOS",
    "CallRecord",
    "CallSpec",
    "CapturedPacket",
    "RecordingProcessor",
    "CallStateFactBase",
    "ClassifiedPacket",
    "ClusterConfig",
    "ClusterMetrics",
    "DEFAULT_CLUSTER_CONFIG",
    "DEFAULT_CONFIG",
    "DELTA_BYE",
    "DELTA_CANCELLED",
    "DELTA_SESSION_ANSWER",
    "DELTA_SESSION_OFFER",
    "EventDistributor",
    "InviteFloodTracker",
    "MemberState",
    "OrphanMediaTracker",
    "PacketClassifier",
    "PacketKind",
    "RTP_ATTACK_STATES",
    "RTP_MACHINE",
    "RTP_STATES",
    "SIP_ATTACK_STATES",
    "ShardCheckpoint",
    "ShardSupervisor",
    "ShardedVids",
    "SupervisedCluster",
    "shard_for_call",
    "SIP_MACHINE",
    "SIP_STATES",
    "SIP_TO_RTP",
    "Vids",
    "VidsConfig",
    "VidsMetrics",
    "build_invite_flood_machine",
    "build_pipeline",
    "build_media_spam_machine",
    "build_rtp_machine",
    "build_sip_machine",
    "call_spec",
    "drain_horizon",
    "estimate_state_bytes",
    "estimate_value_bytes",
    "replay_trace",
    "rtp_event_from_packet",
    "sip_event_from_message",
]
