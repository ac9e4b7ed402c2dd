"""One differential harness for every tier (docs/ROBUSTNESS.md
"Checkpoint coverage", docs/SCALING.md, docs/DEPLOYMENT.md).

The seed-23 mixed-attack capture (``mixed_capture``, tests/conftest.py) is
replayed through one ``Vids`` as the reference.  Every other tier — the
traced pipeline (the one that materialises quiet firings), the shadowed
one (every firing checked against the test-side interpreter), four
shards, a supervised cluster, the pcap / pcapng decoders (also at a
fragmenting MTU), the UDP front-end's datapath, and a pipeline
checkpointed and restored every k packets — must reproduce its timed
alert multiset and every counter in :data:`EXACT_COUNTERS`.  Shedding is
off (:data:`NO_SHED`): capacity is what sharding changes, detection must
not; the restore tier also runs under the default watermarks, so the
shedding state crosses its checkpoints too.

The restore tier checks ``restore(snapshot(x))`` *is* ``x`` three ways at
every restore point: the old and the restored object graphs are equal
field by field (:class:`StateWalk`, with the exemptions in
:data:`EXEMPT`), every key a snapshot emits is read by some restore in
the run (:class:`Recorded`), and the walk reaches every checkpointed
class (:data:`CHECKPOINTED`).  tests/analysis/test_codecheck.py plants
the bugs each check exists for and shows it fails.
"""

import asyncio
import enum
import functools
import types
from collections import Counter, deque
from collections.abc import Mapping

import pytest

from repro.live import (DecodeStats, PcapNgWriter, UdpFrontend, replay_pcap,
                        write_pcap)
from repro.obs import Observability
from repro.sip import SipRequest
from repro.vids import DEFAULT_CONFIG, build_pipeline, replay_trace
from repro.vids.metrics import VidsMetrics
from repro.vids.replay import drain_horizon

from ..efsm.oracle import shadow_dispatch
from ..vids.test_ids import (ATTACKER, CALL_ID, CALLEE, CALLER, PROXY_A,
                             PROXY_B, ack_bytes, bye_bytes, dgram,
                             establish_call, invite_bytes, make_vids,
                             response_bytes, rtp_bytes, stream_media)

NO_SHED = DEFAULT_CONFIG.with_overrides(shed_high_watermark=1e9)

#: Counters every tier must reproduce exactly.
EXACT_COUNTERS = (
    "packets_processed", "sip_messages", "rtp_packets", "rtcp_packets",
    "other_packets", "keepalive_packets", "malformed_sip", "malformed_rtp",
    "malformed_rtcp", "calls_created", "calls_deleted", "packets_shed",
    "time_regressions",
)

#: The classes a failover rebuilds from checkpoints; the restore tier's
#: walk must reach each of them.
CHECKPOINTED = (
    "Efsm", "Variables", "EfsmInstance", "EfsmSystem", "CallRecord",
    "CallStateFactBase", "AlertManager", "Vids", "InviteFloodTracker",
    "OrphanMediaTracker", "CrossCallTrackers", "AnalysisEngine",
    "VidsMetrics",
)


def alert_key(alert):
    return (round(alert.time, 6), alert.attack_type, alert.call_id,
            alert.source, alert.destination, alert.machine, alert.state)


def verdict(pipeline):
    """The timed alert multiset and the exact counters of one run."""
    return (Counter(alert_key(a) for a in pipeline.alerts),
            {name: getattr(pipeline.metrics, name)
             for name in EXACT_COUNTERS})


@pytest.fixture(scope="module")
def reference(mixed_capture):
    run = replay_trace(mixed_capture, config=NO_SHED)
    assert {"invite-flood", "drdos-reflection", "bye-dos",
            "media-spam"} <= {a.attack_type.value for a in run.alerts}
    return verdict(run)


# -- tiers --------------------------------------------------------------------

def assert_shards_add_up(run):
    """Work spread over more than one shard, and the per-shard counters
    sum to the merged ones (no packet lost or routed twice)."""
    assert sum(s.metrics.packets_processed > 0 for s in run.shards) > 1
    summed = VidsMetrics.merged([s.metrics for s in run.shards])
    for name in EXACT_COUNTERS:
        assert getattr(summed, name) == getattr(run.metrics, name), name


def sharded(capture, tmp_path):
    run = replay_trace(capture, config=NO_SHED, shards=4)
    assert_shards_add_up(run)
    return run


def supervised(capture, tmp_path):
    """Checkpointing every 64 packets per member, no faults."""
    run = replay_trace(capture, config=NO_SHED, shards=4, supervise=True)
    assert run.cluster_metrics.checkpoints_taken > 4
    assert run.cluster_metrics.members_down == 0 and run.incidents == []
    assert_shards_add_up(run)
    return run


def from_file(capture, path, shards=1):
    """Replay a written capture file; nothing lost or misdecoded."""
    stats = DecodeStats()
    run = replay_pcap(str(path), config=NO_SHED, shards=shards, stats=stats)
    assert stats.udp_datagrams == len(capture)
    assert stats.decode_errors == 0 and stats.truncated_frames == 0
    return run, stats


def pcap(capture, tmp_path, shards=1):
    write_pcap(str(tmp_path / "perimeter.pcap"), capture)
    return from_file(capture, tmp_path / "perimeter.pcap", shards)[0]


def pcap_sharded(capture, tmp_path):
    run = pcap(capture, tmp_path, shards=4)
    assert_shards_add_up(run)
    return run


def pcapng(capture, tmp_path):
    with open(tmp_path / "perimeter.pcapng", "wb") as handle:
        PcapNgWriter(handle).write_all(capture)
    return from_file(capture, tmp_path / "perimeter.pcapng")[0]


def pcap_mtu128(capture, tmp_path):
    """Every INVITE / SDP answer splits into several fragments at a
    128-byte MTU; reassembly must hand over byte-identical payloads."""
    write_pcap(str(tmp_path / "fragmented.pcap"), capture, mtu=128)
    run, stats = from_file(capture, tmp_path / "fragmented.pcap")
    assert stats.fragments_reassembled > 0
    assert stats.reassembly_pending == 0
    return run


def frontend(capture, batch):
    """The live tap's datapath without sockets: ``_on_datagram`` per
    packet, ``flush`` every ``batch`` packets, ``stop`` to drain; its wall
    clock reads the capture's timestamps."""
    pipeline, clock = build_pipeline(NO_SHED)
    tap = UdpFrontend(pipeline, clock)
    now = 0.0
    tap._now = lambda: now
    for count, packet in enumerate(capture, 1):
        now, datagram = packet.time, packet.datagram
        tap._on_datagram(datagram.payload,
                         (datagram.src.ip, datagram.src.port),
                         (datagram.dst.ip, datagram.dst.port))
        if count % batch == 0:
            tap.flush()
    asyncio.run(tap.stop())
    assert tap.metrics.datagrams_received == len(capture)
    return pipeline


def traced(capture, tmp_path):
    """The traced pipeline, the one path that materialises every firing:
    quiet ones reach the timeline too."""
    obs = Observability()
    run = replay_trace(capture, config=NO_SHED, obs=obs)
    assert any(event.kind == "fire" and not event.data["attack"]
               and event.data["from_state"] == event.data["to_state"]
               for event in obs.trace)
    return run


# The dispatch outcomes the capture does not reach: a CANCEL while the
# INVITE proceeds, a response no candidate takes, an ACK before any
# response, an INVITE inside the dialog, media after a BYE from its sender
# (toll fraud) and from the other party (BYE DoS), a codec nobody offered
# and media nobody offered.

def request_bytes(method, to_tag="", cseq=1):
    """A request for the test_ids call, sent by the attacker."""
    request = SipRequest(method, "sip:bob@b.example.com")
    request.set("Via", f"SIP/2.0/UDP {ATTACKER}:5060;branch=z9hG4bKe1")
    request.set("From", "<sip:alice@a.example.com>;tag=ft")
    request.set("To", f"<sip:bob@b.example.com>{to_tag}")
    request.set("Call-ID", CALL_ID)
    request.set("CSeq", f"{cseq} {method}")
    return request.serialize()


def send(vids, clock, *packets):
    """Each ``(payload, src, dst)`` 50 ms after the one before."""
    for payload, src, dst in packets:
        vids.process(dgram(payload, src, dst), clock.now())
        clock.advance(0.05)


def drive_cancel_dos(vids, clock):
    send(vids, clock, (invite_bytes(), PROXY_A, PROXY_B),
         (response_bytes(180), PROXY_B, PROXY_A),
         (request_bytes("CANCEL"), ATTACKER, PROXY_B))


def drive_stray_response(vids, clock):
    """A 200 to a BYE nobody sent: no guard of (Proceeding, RESPONSE)
    holds."""
    send(vids, clock, (invite_bytes(), PROXY_A, PROXY_B),
         (response_bytes(180), PROXY_B, PROXY_A),
         (response_bytes(200, cseq="1 BYE"), PROXY_B, PROXY_A))


def drive_premature_ack(vids, clock):
    send(vids, clock, (invite_bytes(), PROXY_A, PROXY_B),
         (ack_bytes(), CALLER, CALLEE))


def drive_hijack_invite(vids, clock):
    establish_call(vids, clock)
    send(vids, clock, (request_bytes("INVITE", ";tag=tt", 2), ATTACKER,
                       PROXY_B))


def drive_toll_fraud(vids, clock, media=(CALLEE, CALLER, 20_002, 20_000)):
    establish_call(vids, clock)
    stream_media(vids, clock, count=5)
    send(vids, clock, (bye_bytes(), CALLEE, CALLER))
    clock.advance(DEFAULT_CONFIG.bye_inflight_timer)
    vids.process(dgram(rtp_bytes(ssrc=0xBBBB, seq=900, ts=90_000), *media),
                 clock.now())


def drive_media_after_close(vids, clock):
    drive_toll_fraud(vids, clock, (CALLER, CALLEE, 20_000, 20_002))


def drive_codec_change(vids, clock):
    establish_call(vids, clock)
    stream_media(vids, clock, count=5)
    stream_media(vids, clock, count=1, start_seq=6, pt=0)


def drive_unsolicited_media(vids, clock):
    """Past the threshold, then a sequence jump."""
    for seq in (*range(DEFAULT_CONFIG.unsolicited_media_threshold + 2), 900):
        clock.advance(0.02)
        vids.process(dgram(rtp_bytes(seq=seq, ts=seq * 160),
                           ATTACKER, CALLEE, 40_000, 31_337), clock.now())


SCENARIOS = (drive_cancel_dos, drive_stray_response, drive_premature_ack,
             drive_hijack_invite, drive_toll_fraud, drive_media_after_close,
             drive_codec_change, drive_unsolicited_media)


def outcomes(firings):
    """The dispatch outcomes ``firings`` reached: (machine, state, event)
    and the label of the transition fired, ``None`` for a deviation."""
    return {(machine, state, event, label)
            for machine, event, state, _, label, *_ in firings}


def shadowed(capture, tmp_path):
    """Every firing checked against the test-side interpreter
    (tests/efsm/oracle.py): two enabled candidates raise, and ``step``
    must fire the one the interpreter enabled.  Each scenario above must
    reach a dispatch outcome the capture does not."""
    with shadow_dispatch(firings := []):
        run = replay_trace(capture, config=NO_SHED)
    for scenario in SCENARIOS:
        with shadow_dispatch(driven := []):
            scenario(*make_vids())
        assert outcomes(driven) - outcomes(firings), scenario.__name__
        firings += driven
    assert len(outcomes(firings)) == 35
    return run


TIERS = {
    "traced": traced,
    "shadowed": shadowed,
    "sharded": sharded,
    "supervised": supervised,
    "pcap": pcap,
    "pcap-sharded": pcap_sharded,
    "pcapng": pcapng,
    "pcap-mtu128": pcap_mtu128,
    "frontend-batch1": lambda capture, tmp_path: frontend(capture, 1),
    "frontend-batch50": lambda capture, tmp_path: frontend(capture, 50),
}


@pytest.mark.parametrize("tier", TIERS)
def test_tier_matches_single(tier, mixed_capture, reference, tmp_path):
    assert verdict(TIERS[tier](mixed_capture, tmp_path)) == reference


# -- the restore tier ---------------------------------------------------------

#: (class, field) -> (why the restored field may differ, what is compared
#: instead: ``None`` skips the field).  The class is matched along the MRO.
EXEMPT = {
    ("EfsmInstance", "_timers"): (
        "handles on the old clock; restore re-arms every timer from "
        "_timer_meta, which is compared", None),
    ("EfsmInstance", "_timer_meta"): (
        "allocated by the first timer: None and {} both mean none is armed",
        lambda meta: meta or {}),
    ("CallStateFactBase", "media_index"): (
        "a lookup table nothing iterates: restore rebuilds it call by call, "
        "so its insertion order is not state",
        lambda index: sorted(index.items(), key=lambda item: item[0])),
    ("PacketClassifier", "classified"): (
        "a count of the packets this classifier object has seen, for "
        "observability only; a rebuilt pipeline counts again", None),
}

#: A hook (closure, bound method, partial) is rebuilt with its owner, so it
#: is compared by what it calls — the code it runs, and the arguments a
#: partial binds walked as state — not by identity.
HOOKS = (types.FunctionType, types.MethodType, types.BuiltinFunctionType,
         functools.partial)

ATOMS = (type(None), bool, int, float, str, bytes, enum.Enum)


class StateWalk:
    """Field-by-field comparison of two pipelines' object graphs.

    Every ``repro`` object is walked through its ``__slots__`` and
    ``__dict__``; containers element by element, dicts in key order; an
    object reached twice must pair with the same partner both times (a
    record in ``records`` and in ``media_index`` is one record).  An
    object both graphs share — the frozen machine definitions, the config
    — is equal to itself.  Accumulates over walks: the differences, the
    classes reached and the exemptions used; ``pairs`` maps the id of
    each object of the last walk's original to it and its partner.
    """

    def __init__(self, exempt=EXEMPT):
        self.exempt = exempt
        self.diffs, self.visited, self.exempted = [], set(), set()
        self.pairs = {}

    def pipelines(self, old, new):
        """Compare two single pipelines.  The fact base's byte-size memos
        (``_dirty``, ``_total_bytes``, each record's ``_contribution``)
        are brought up to date on both sides first, so they compare as
        what they memoise, not as how stale the memo is."""
        old.factbase.total_state_bytes()
        new.factbase.total_state_bytes()
        self.pairs.clear()
        self.compare(old, new, "vids")

    def compare(self, old, new, path):
        kind = type(old)
        if kind is not type(new):
            self.diffs.append(f"{path}: {old!r} != {new!r}")
        elif isinstance(old, ATOMS) or old is new:
            if kind.__module__.startswith("repro."):
                self.visited.update(cls.__name__ for cls in kind.__mro__)
            if old != new:
                self.diffs.append(f"{path}: {old!r} != {new!r}")
        elif isinstance(old, functools.partial):
            self.compare(old.func, new.func, f"{path}.func")
            self.compare(old.args, new.args, f"{path}.args")
            self.compare(old.keywords, new.keywords, f"{path}.keywords")
        elif isinstance(old, HOOKS):
            if not same_code(old, new):
                self.diffs.append(f"{path}: hook {old!r} != {new!r}")
        elif isinstance(old, dict):
            if list(old) != list(new):
                self.diffs.append(f"{path}: keys {list(old)!r} != "
                                  f"{list(new)!r}")
            else:
                for key, value in old.items():
                    self.compare(value, new[key], f"{path}[{key!r}]")
        elif isinstance(old, (list, tuple, deque)):
            if len(old) != len(new):
                self.diffs.append(f"{path}: {len(old)} != {len(new)} items")
            for index, (a, b) in enumerate(zip(old, new)):
                self.compare(a, b, f"{path}[{index}]")
        elif kind.__module__.startswith("repro."):
            self._walk(old, new, path)
        elif old != new:
            self.diffs.append(f"{path}: {old!r} != {new!r}")

    def _walk(self, old, new, path):
        pair = self.pairs.get(id(old))
        if pair is not None:
            if pair[1] is not new:
                self.diffs.append(f"{path}: paired with another object "
                                  f"where it was reached before")
            return
        self.pairs[id(old)] = (old, new)
        mro = type(old).__mro__
        self.visited.update(cls.__name__ for cls in mro)
        for name in fields(old):
            key = next(((cls.__name__, name) for cls in mro
                        if (cls.__name__, name) in self.exempt), None)
            a, b = getattr(old, name, None), getattr(new, name, None)
            if key is not None:
                self.exempted.add(key)
                normalise = self.exempt[key][1]
                if normalise is None:
                    continue
                a, b = normalise(a), normalise(b)
            self.compare(a, b, f"{path}.{name}")


def unreached(walk, names=CHECKPOINTED):
    """The classes of ``names`` no walk reached."""
    return sorted(set(names) - walk.visited)


def stale(walk):
    """The walk's exemptions no compared field used."""
    return sorted(set(walk.exempt) - walk.exempted)


def fields(obj):
    names = [name for cls in type(obj).__mro__
             for name in cls.__dict__.get("__slots__", ())]
    names.extend(getattr(obj, "__dict__", ()))
    return names


def same_code(old, new):
    """Whether two hooks that bind no arguments run the same code."""
    if isinstance(old, types.BuiltinFunctionType):
        return old.__name__ == new.__name__
    return getattr(old, "__func__", old).__code__ is \
        getattr(new, "__func__", new).__code__


class Recorded(Mapping):
    """A snapshot mapping handed to ``restore`` that notes the keys read.

    ``log`` maps ``(path, key)`` of every key emitted to whether a restore
    read it.  A mapping that nests a mapping is recorded; the rest
    (variable vectors, counters, quarantine lists) are handed over as
    they are, since restore copies them whole.  The entries of a mapping
    restore iterates (calls, machines, timers, flood windows) share the
    path ``*``.
    """

    def __init__(self, data, path, log):
        self._data, self._path, self._log = data, path, log
        for key in data:
            log.setdefault((path, key), False)

    def _child(self, key, value):
        if isinstance(value, dict) and any(
                isinstance(item, dict) for item in value.values()):
            return Recorded(value, self._path + (key,), self._log)
        return value

    def __getitem__(self, key):
        value = self._data[key]
        self._log[self._path, key] = True
        return self._child(key, value)

    def __len__(self):
        return len(self._data)

    def __iter__(self):
        for key in self._data:
            self._log[self._path, key] = True
            yield key

    def items(self):
        return [(key, self._child("*", self._data[key])) for key in self]

    def values(self):
        return [value for _, value in self.items()]


def unread(log):
    return [key for key, read in log.items() if not read]


def restored(pipeline, clock, log, previous=(None, None)):
    """A copy of ``pipeline`` restored from its checkpoint (taken
    incrementally from ``previous``, as a supervisor does) onto a fresh
    clock at the same reading, so every timer must be re-armed by
    restore; the copy, its clock and the checkpoint."""
    taken = (pipeline.snapshot(previous[0]),
             pipeline.trackers.snapshot(previous[1]))
    fresh, fresh_clock = build_pipeline(pipeline.config)
    fresh_clock.time = clock.now()
    fresh.restore(Recorded(taken[0], ("vids",), log))
    fresh.trackers.restore(Recorded(taken[1], ("trackers",), log))
    return fresh, fresh_clock, taken


def restore_every(capture, config, k):
    """Replay ``capture``, going on with a :func:`restored` copy every
    ``k`` packets; every 64 packets the copy is compared with the
    original by a :class:`StateWalk`.  Returns the last pipeline, the
    walk and the key log."""
    items = [(packet.datagram, packet.time) for packet in capture]
    pipeline, clock = build_pipeline(config)
    walk, log, taken = StateWalk(), {}, (None, None)
    for start in range(0, len(items), k):
        pipeline.process_batch(items[start:start + k], clock=clock)
        fresh, fresh_clock, taken = restored(pipeline, clock, log, taken)
        if start % 64 == 0:
            walk.pipelines(pipeline, fresh)
        pipeline, clock = fresh, fresh_clock
    clock.advance(drain_horizon(config))
    pipeline.flush_shed_interval()
    return pipeline, walk, log


@pytest.mark.parametrize("k, config", [
    (64, NO_SHED), (64, DEFAULT_CONFIG),
    pytest.param(1, NO_SHED, marks=pytest.mark.chaos),
    pytest.param(1, DEFAULT_CONFIG, marks=pytest.mark.chaos),
], ids=["k64-no-shed", "k64-default-watermarks", "k1-no-shed",
        "k1-default-watermarks"])
def test_restore_every_k(k, config, mixed_capture):
    """The restore tier: the same verdicts and metrics as one pipeline,
    equal state at every compared restore point, every snapshot key read,
    every checkpointed class reached and every exemption used."""
    single = replay_trace(mixed_capture, config=config)
    restored_run, walk, log = restore_every(mixed_capture, config, k)
    assert verdict(restored_run) == verdict(single)
    assert restored_run.metrics.summary() == single.metrics.summary()
    assert (single.metrics.shed_events > 0) == (config is DEFAULT_CONFIG)
    assert walk.diffs == []
    assert unread(log) == []
    assert unreached(walk) == []
    assert stale(walk) == []


def run_part_way(capture):
    """A pipeline 3000 packets into ``capture``, and its clock."""
    pipeline, clock = build_pipeline(NO_SHED)
    pipeline.process_batch(((packet.datagram, packet.time)
                            for packet in capture[:3000]), clock=clock)
    return pipeline, clock


@pytest.fixture
def part_way(mixed_capture):
    return run_part_way(mixed_capture)


def test_the_walk_reports_state_restore_left_behind(part_way):
    copy = restored(*part_way, {})[0]
    walk = StateWalk()
    walk.pipelines(part_way[0], copy)
    assert walk.diffs == []
    copy._busy_until += 1.0
    copy.trackers.orphan_tracker.version += 1
    walk.pipelines(part_way[0], copy)
    assert sorted(diff.split(":")[0] for diff in walk.diffs) == [
        "vids._busy_until", "vids.trackers.orphan_tracker.version"]

