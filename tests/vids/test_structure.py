"""Structural pins: the supervision tier keeps one of each mechanism.

One site that builds a shard, one owner of the stray-dedup table, a
supervisor that reaches into no member's private state, and no third-party
runtime import.  These read the source (in the style of
tests/efsm/test_structure.py) so a second copy cannot come back unnoticed.
Two pins hold the state vectors to immutable values, so a checkpoint
shares them instead of copying; three hold every shipped transition to the
algebra of ``repro.efsm.guards`` (data, not code: no ``ctx`` anywhere
under ``repro/vids``); the last three hold the value layer to one parser
per SIP field, the packet path to no profiler fork, and the event builders
to the fields something reads.
"""

import ast
import re

from repro.attacks import ByeTeardownAttack, MediaSpamAttack
from repro.efsm.machine import copy_state
from repro.telephony import (ScenarioParams, TestbedParams, WorkloadParams,
                             run_scenario)
from repro.netsim import Datagram, Endpoint
from repro.sip import parse_message
from repro.vids import (DEFAULT_CONFIG, RecordingProcessor, build_pipeline,
                        rtp_event_from_packet, sip_event_from_message)
from repro.vids.classifier import PacketClassifier
from repro.vids.spec import CallSpec

from ..efsm.test_structure import SRC, _files_with, _sources
from .test_ids import invite_bytes, response_bytes, rtp_bytes


def test_a_shard_is_constructed_at_one_site():
    """``ShardedVids.build_shard`` serves construction and restart."""
    sites = []
    for rel in ("vids/sharding.py", "vids/cluster.py"):
        tree = ast.parse((SRC / rel).read_text("utf-8"))
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            sites += [(rel, function.name) for node in ast.walk(function)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)
                      and node.func.id == "Vids"]
    assert sites == [("vids/sharding.py", "build_shard")]


def test_the_stray_dedup_table_is_assigned_at_one_site():
    """The holder creates it; engines are handed a way to ask it, and
    nobody re-points it from outside."""
    sites = []
    for rel, source in _sources():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                sites += [rel for target in targets
                          if isinstance(target, ast.Attribute)
                          and target.attr == "_stray_keys"]
    assert sites == ["vids/patterns/cross_call.py"]


def test_the_supervisor_names_no_private_state_of_a_member():
    source = (SRC / "vids/cluster.py").read_text("utf-8")
    for needle in ("._busy_until", "._shedding", "._shed_started",
                   "._malformed_windows", "._deviation_keys", "._stray_keys",
                   "._unsolicited_flagged", "alert_manager.alerts"):
        assert needle not in source, needle


def test_one_header_store_one_media_table_and_no_intern_pool():
    """The SIP message scans its header list (no positions index, no typed
    memo); one fact-base table maps a media key to its call; nothing
    interns dialog strings."""
    for needle in ("_positions", "_typed", "media_keys", "_media_match",
                   "intern_value"):
        assert _files_with(needle) == [], needle


def test_no_module_imports_networkx():
    importing = [rel for rel, source in _sources()
                 if re.search(r"^\s*(import|from)\s+networkx", source, re.M)]
    assert importing == []


def _mutable_inside(value):
    """The first dict/list/set (or subclass) at any depth of ``value``."""
    if isinstance(value, (dict, list, set, bytearray)):
        return value
    if isinstance(value, (tuple, frozenset)):
        for item in value:
            found = _mutable_inside(item)
            if found is not None:
                return found
    return None


def test_no_state_value_of_a_live_call_is_mutable():
    """Replay a mixed capture part-way, so calls are live in every phase:
    every local and global of every machine is immutable, and each RTP
    stream tuple is its own checkpoint copy."""
    recorder = RecordingProcessor()
    run_scenario(ScenarioParams(
        testbed=TestbedParams(seed=23, phones_per_network=4),
        workload=WorkloadParams(mean_interarrival=10.0, mean_duration=60.0,
                                horizon=60.0),
        with_vids=False,
        attacks=(ByeTeardownAttack(35.0, spoof="none"),
                 MediaSpamAttack(45.0)),
        drain_time=5.0,
        hooks=(lambda testbed, vids, sim:
               testbed.attach_processor(recorder),)))
    config = DEFAULT_CONFIG.with_overrides(shed_high_watermark=1e9)
    vids, clock = build_pipeline(config=config)
    vids.process_batch([(p.datagram, p.time) for p in recorder.capture
                        if p.time <= 55.0], clock=clock)
    assert vids.alerts, "the capture carried no attack"
    records = list(vids.factbase.records.values())
    assert len(records) >= 3, "the capture left no live calls"
    streams = []
    for record in records:
        vectors = [record.system.globals] + [
            machine.variables.local
            for machine in record.system.machines.values()]
        for vector in vectors:
            for name, value in vector.items():
                assert _mutable_inside(value) is None, (record.call_id, name)
        streams += [value for value in record.rtp.variables.local.values()
                    if value]
    assert len(streams) >= 3, "the capture left no media streams"
    for stream in streams:
        assert type(stream) is tuple and len(stream) == 5
        assert copy_state(stream) is stream
    # One level up: the machine's whole local vector copies without
    # allocating a single value.
    local = records[0].rtp.variables.local
    assert all(copied is original for copied, original
               in zip(copy_state(local).values(), local.values()))


def test_the_rtp_machine_has_no_directions_map():
    """The nested per-direction dict is gone for good: flat stream
    locals, read and written by literal name (speclint sees them)."""
    source = (SRC / "vids/rtp_machine.py").read_text("utf-8")
    assert "directions" not in source
    for name in ("to_caller", "to_callee", "unknown"):
        assert f'v("{name}", ())' in source, name


def test_no_code_is_passed_as_a_predicate_under_vids():
    """Every ``predicate=`` under ``src/repro/vids`` is a guard expression:
    no ``lambda``, and no name bound to a ``def`` (local or module-level)."""
    offenders = []
    for rel, source in _sources():
        if not rel.startswith("vids/"):
            continue
        tree = ast.parse(source)
        functions = {node.name for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))}
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "add_transition"):
                continue
            passed = [kw.value for kw in call.keywords
                      if kw.arg == "predicate"] + call.args[3:4]
            offenders += [(rel, call.lineno) for value in passed
                          if isinstance(value, ast.Lambda)
                          or (isinstance(value, ast.Name)
                              and value.id in functions)]
    assert offenders == []


def test_shipped_guards_hold_exactly_two_helper_leaves():
    """35 guards, all expressions, with two helper leaves (the RTP
    machine's ``verdict``, the Figure-6 tracker's ``is_spam``); the only
    code behind any guard, statement or output argument is the named pure
    helpers below, each called with terms."""
    machines = CallSpec.build().machines
    guards = [t.predicate for machine in machines
              for t in machine.transitions if t.predicate is not None]
    assert len(guards) == 35
    assert {term.name for guard in guards for term in guard.terms()
            if term.kind == "helper"} == {"verdict", "is_spam"}
    helpers = {term.name for machine in machines
               for t in machine.transitions for term in t.terms()
               if term.kind == "helper"}
    assert helpers == {"verdict", "stream_of", "track_packet",
                       "add_participants", "count", "remember", "is_spam",
                       "str", "int", "tuple"}


def test_no_shipped_transition_holds_code_and_no_vids_function_takes_ctx():
    """Every statement of the four shipped machines is one of the four
    ops the firing compiler emits: ``Statement`` takes any op, so this is
    not guaranteed where it is built.  (``add_transition`` refuses a
    callable, ``helper()`` a lambda, and no ``src/repro`` source names a
    ``ctx``: tests/efsm/test_structure.py.)"""
    ops = {statement.op for machine in CallSpec.build().machines
           for t in machine.transitions for statement in t.statements()}
    assert {"write", "when", "start"} <= ops <= {"write", "when", "start",
                                                "cancel"}


def test_one_value_per_sip_field_and_one_table_of_attack_types():
    """The brief twins, the distributor's SDP memo, the engine's copy of
    the scenario database and the two profiler hosts stay deleted."""
    for needle in ("_via_fields", "_name_addr_fields", "via_brief",
                   "name_addr_brief", "cseq_brief", "_sdp_media_fields",
                   "ATTACK_STATE_TYPES", "def _distribute(", "def _inject("):
        assert _files_with(needle) == [], needle


def test_no_loop_body_of_the_ingest_core_names_a_profiler():
    tree = ast.parse((SRC / "vids/ingest.py").read_text("utf-8"))
    loops = [node for node in ast.walk(tree)
             if isinstance(node, (ast.For, ast.While))]
    assert loops
    for loop in loops:
        assert "profiler" not in ast.unparse(loop)


def test_the_event_builders_produce_only_fields_something_reads():
    """Built keys ⊆ read keys: the ``x(...)`` terms of the shipped
    transitions (guards, statements, outputs), plus the literal
    ``x.get("…")`` / ``event.get("…")`` reads under ``repro/vids``
    (trackers, engine, distributor)."""
    read = {term.name for machine in CallSpec.build().machines
            for t in machine.transitions
            for term in t.terms() if term.kind == "x"}
    for rel, source in _sources():
        if rel.startswith("vids/"):
            for pattern in (r'\bx\.get\(\s*"(\w+)"',
                            r'\bevent\.get\(\s*"(\w+)"'):
                read.update(re.findall(pattern, source))
    built = set()
    for wire in (invite_bytes(), response_bytes(200, with_sdp=True)):
        built.update(sip_event_from_message(
            parse_message(wire), ("10.1.0.1", 5060), ("10.2.0.1", 5060),
            now=0.0).args)
    media = PacketClassifier().classify(Datagram(
        Endpoint("10.1.0.11", 20_000), Endpoint("10.2.0.11", 20_002),
        rtp_bytes()))
    built.update(rtp_event_from_packet(media, "to_callee", now=0.0).args)
    assert {"status", "uri_host", "sdp_pts", "ssrc"} <= built
    assert built - read == set()
