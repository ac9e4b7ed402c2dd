"""The one ingest loop, identically at every tier (repro.vids.ingest).

``Vids``, ``ShardedVids`` and ``SupervisedCluster`` enter the pipeline
through one function; these tests pin what that buys: the profiler sees
the ``classify`` stage at every tier, layer-1 crash containment behaves
the same at every tier and entry point, and un-owned events are accounted
on the *current* default shard.  A tier that forks the loop again (its own
``for datagram, when in items`` without the clamp, or a second
``time_regressions`` count) fails ``test_ingest_edges.TestTimeRegressions``
for that tier.
"""

import pytest

from repro.netsim.faults import ShardFaultPlan
from repro.obs import Observability
from repro.vids import (AttackType, ClusterConfig, DEFAULT_CONFIG,
                        build_pipeline)

from .test_ingest_edges import TIERS
from .test_ids import (
    CALLEE,
    CALLER,
    PROXY_A,
    PROXY_B,
    dgram,
    invite_bytes,
    response_bytes,
    rtp_bytes,
)

ENTRIES = ("process", "process_batch")


def feed(pipeline, clock, entry, items):
    """Drive ``items`` through one of the two public entry points."""
    if entry == "process_batch":
        pipeline.process_batch(items, clock=clock)
        return
    for datagram, when in items:
        clock.advance(max(0.0, when - clock.now()))
        pipeline.process(datagram, clock.now())


def traffic():
    """Ten packets of every routed kind: SIP, negotiated and orphan media,
    Call-ID-less SIP, and junk."""
    items = [
        (dgram(invite_bytes(), PROXY_A, PROXY_B), 0.00),
        (dgram(response_bytes(180), PROXY_B, PROXY_A), 0.05),
        (dgram(response_bytes(200, with_sdp=True), PROXY_B, PROXY_A), 0.10),
        (dgram(b"OPTIONS sip:x SIP/2.0\r\nCSeq: 1 OPTIONS\r\n\r\n",
               "9.9.9.9", PROXY_B), 0.12),
        (dgram(b"\x00\x01junk", "9.9.9.8", PROXY_B, 9_999, 9_999), 0.13),
        (dgram(rtp_bytes(), "8.8.8.8", "7.7.7.7", 40_000, 40_002), 0.14),
    ]
    for index in range(4):
        items.append((dgram(rtp_bytes(seq=index + 1, ts=160 * (index + 1)),
                            CALLER, CALLEE, 20_000, 20_002),
                      0.15 + 0.02 * index))
    return items


@pytest.mark.parametrize("tier", ("single", "sharded", "supervised"))
def test_every_tier_exposes_one_surface(tier):
    """What the CLI, replay and the live tap use without asking which tier
    they were handed."""
    pipeline, clock = build_pipeline(**TIERS[tier])
    for name in ("classifier", "config", "metrics", "alerts",
                 "alert_manager", "flush_shed_interval", "summary", "report",
                 "process", "process_batch"):
        assert hasattr(pipeline, name), name
    assert pipeline.config is DEFAULT_CONFIG

    # ``classifier`` is the object ingest classifies with.
    seen = []
    real = pipeline.classifier.classify
    pipeline.classifier.classify = lambda d: seen.append(d) or real(d)
    items = traffic()
    feed(pipeline, clock, "process_batch", items[:5])
    feed(pipeline, clock, "process", items[5:])
    assert seen == [datagram for datagram, _ in items]

    single, _ = build_pipeline()
    assert set(single.summary()) <= set(pipeline.summary())
    assert pipeline.summary()["packets_processed"] == len(items)
    assert "alerts:" in pipeline.report()


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("tier", TIERS)
def test_profiler_sees_classify_and_distribute_at_every_tier(tier, entry):
    obs = Observability(profile=True)
    pipeline, clock = build_pipeline(obs=obs, **TIERS[tier])
    items = traffic()
    feed(pipeline, clock, entry, items)
    stages = obs.profiler.snapshot()
    assert stages["classify"]["count"] == len(items)
    assert stages["distribute"]["count"] == len(items)


# -- layer-1 crash containment -------------------------------------------------

MARKER = b"\xde\xad classifier bug"


def poison_classifier(pipeline):
    """Make the pipeline's one classifier raise on the marker payload."""
    classifier = pipeline.classifier
    real = classifier.classify

    def classify(datagram):
        if datagram.payload == MARKER:
            raise RuntimeError("classifier bug")
        return real(datagram)

    classifier.classify = classify


def poisoned_traffic():
    bad = dgram(MARKER, "6.6.6.6", PROXY_B, 9_999, 9_999)
    items = traffic()
    items.insert(2, (bad, 0.07))
    items.append((bad, 0.30))
    items.append((dgram(rtp_bytes(seq=9, ts=1440), CALLER, CALLEE,
                        20_000, 20_002), 0.32))
    return items, 2


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("tier", TIERS)
def test_classifier_crash_is_contained_identically(tier, entry):
    pipeline, clock = build_pipeline(**TIERS[tier])
    poison_classifier(pipeline)
    items, raised = poisoned_traffic()
    feed(pipeline, clock, entry, items)
    metrics = pipeline.metrics
    # Every packet was accounted, and the ones after each crash analysed.
    assert metrics.packets_processed == len(items)
    assert metrics.internal_errors == raised
    assert metrics.other_packets == raised + 1   # + the junk datagram
    assert metrics.rtp_packets == 6
    internal = [alert for alert in pipeline.alerts
                if alert.attack_type is AttackType.IDS_INTERNAL]
    assert len(internal) == raised
    assert {alert.source for alert in internal} == {"6.6.6.6"}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("tier", TIERS)
def test_classifier_crash_propagates_without_containment(tier, entry):
    config = DEFAULT_CONFIG.with_overrides(crash_containment=False)
    pipeline, clock = build_pipeline(config=config, **TIERS[tier])
    poison_classifier(pipeline)
    items, _ = poisoned_traffic()
    with pytest.raises(RuntimeError, match="classifier bug"):
        feed(pipeline, clock, entry, items)
    assert pipeline.metrics.internal_errors == 0


# -- accounting target is resolved when the event happens ----------------------

def test_regressions_after_a_midbatch_restart_are_counted():
    """A heartbeat that restarts the default shard mid-batch replaces its
    ``Vids``; timestamps clamped afterwards must land on the replacement,
    not on the dead instance captured before the loop."""
    fast = ClusterConfig(checkpoint_cadence=4, heartbeat_interval=0.1,
                         heartbeat_misses=1, restart_backoff=0.1)
    pipeline, clock = build_pipeline(
        shards=2, supervise=True, cluster=fast,
        fault_plan=ShardFaultPlan(kills=((1.0, 0),)))
    doomed = pipeline.shards[0]
    items = [
        (dgram(invite_bytes(), PROXY_A, PROXY_B), 0.5),
        # Kill at 1.0, DOWN at the next heartbeat, restarted by 1.3.
        (dgram(response_bytes(200, with_sdp=True), PROXY_B, PROXY_A), 3.0),
        (dgram(rtp_bytes(), CALLER, CALLEE, 20_000, 20_002), 2.0),  # clamped
        (dgram(rtp_bytes(seq=2, ts=320), CALLER, CALLEE, 20_000, 20_002),
         2.5),                                                   # clamped
    ]
    pipeline.process_batch(items, clock=clock)
    assert pipeline.cluster_metrics.members_restarted == 1
    assert pipeline.shards[0] is not doomed
    assert clock.now() == 3.0
    assert doomed.metrics.time_regressions == 0
    assert pipeline.metrics.time_regressions == 2

