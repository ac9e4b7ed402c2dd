"""Checkpoint coverage, checked by restoring (docs/ROBUSTNESS.md
"Checkpoint coverage").

The restore tier of tests/integration/test_tier_parity.py holds the
shipped pipeline to three checks at every restore point: the state walk,
the snapshot-key log and the reach of the walk over the checkpointed
classes.  Here each check meets the bug it exists for, planted in a
pipeline 3000 packets into the seed-23 capture: a field of any
checkpointed class that its checkpoint does not carry, a snapshot key a
real restore stops reading, an exemption nothing uses, a class the walk
no longer reaches.
"""

import copy
import inspect
import textwrap

import pytest

from repro.vids.patterns import cross_call
from tests.integration.test_tier_parity import (
    CHECKPOINTED, EXEMPT, NO_SHED, Recorded, StateWalk, build_pipeline,
    fields, restore_every, restored, run_part_way, stale, unread, unreached)

PROBE = "_codecheck_probe"


@pytest.fixture
def part_way(mixed_capture):
    return run_part_way(mixed_capture)


def walked(pipeline, twin, exempt=EXEMPT):
    walk = StateWalk(exempt)
    walk.pipelines(pipeline, twin)
    return walk


def paths(walk):
    return [diff.split(":")[0] for diff in walk.diffs]


def test_shipped_tree_is_clean(mixed_capture):
    """Restored every 4096 packets, the shipped pipeline passes every
    check: an incremental checkpoint reused across a long stretch
    restores as well as a fresh one."""
    pipeline, walk, log = restore_every(mixed_capture, NO_SHED, 4096)
    assert pipeline.metrics.packets_processed == len(mixed_capture)
    assert walk.diffs == []
    assert unread(log) == []
    assert unreached(walk) == []


def test_checkpoint_specs_match_shipped_layout(part_way):
    """Every class the walk reaches that takes a snapshot of its own is
    named in CHECKPOINTED, and every class named there is reached."""
    walk = walked(part_way[0], restored(*part_way, {})[0])
    assert walk.diffs == []
    own = {type(obj).__name__ for obj, _ in walk.pairs.values()
           if hasattr(obj, "snapshot")}
    assert "VidsMetrics" in own and "Variables" in own
    assert sorted(own - set(CHECKPOINTED)) == []
    assert unreached(walk) == []


def test_missing_spec_target_is_config_error(part_way):
    """A checkpointed class the walk does not reach — renamed away, or
    cut off from what the walk starts at — fails the reach check by
    name."""
    pipeline, clock = part_way
    twin = restored(pipeline, clock, {})[0]
    walk = walked(pipeline, twin)
    assert unreached(walk, CHECKPOINTED + ("CallLedger",)) == ["CallLedger"]
    cut = StateWalk()
    cut.compare(pipeline.factbase, twin.factbase, "vids.factbase")
    assert {"Vids", "AlertManager", "CrossCallTrackers",
            "InviteFloodTracker", "OrphanMediaTracker"} <= set(
                unreached(cut))


def test_stale_exemption_is_config_error(part_way):
    """An exemption silences the field it names, and one no compared
    field uses is reported as stale."""
    pipeline, clock = part_way
    twin = restored(pipeline, clock, {})[0]
    twin._busy_until += 1.0
    assert paths(walked(pipeline, twin)) == ["vids._busy_until"]
    exempt = {**EXEMPT, ("Vids", "_busy_until"): ("planted", None),
              ("Vids", "_ghost"): ("no such field", None)}
    walk = walked(pipeline, twin, exempt)
    assert walk.diffs == []
    assert stale(walk) == [("Vids", "_ghost")]


def test_checkpoint_free_class_needs_exemptions(part_way):
    """PacketClassifier takes no checkpoint: its rebuilt copy differs in
    the count it keeps, so without that field's exemption the walk
    fails; the frozen machine definitions, shared by both graphs, are
    equal to themselves and need none."""
    pipeline, clock = part_way
    twin = restored(pipeline, clock, {})[0]
    exempt = {key: value for key, value in EXEMPT.items()
              if key != ("PacketClassifier", "classified")}
    walk = walked(pipeline, twin, exempt)
    assert paths(walk) == ["vids.classifier.classified"]
    assert "Efsm" in walk.visited


def test_snapshot_key_without_restore_consumer_flagged(part_way):
    log = {}
    snapshot = dict(part_way[0].trackers.snapshot(), stray_count=0)
    build_pipeline(NO_SHED)[0].trackers.restore(
        Recorded(snapshot, ("trackers",), log))
    assert unread(log) == [(("trackers",), "stray_count")]


def test_snapshot_key_a_real_restore_stops_reading_is_caught(
        part_way, monkeypatch):
    """``CrossCallTrackers.restore`` with its orphan-tracker line cut:
    the key log names the key it no longer reads, beyond what the
    unpatched restore leaves unread at the same point."""
    clean = {}
    restored(*part_way, clean)
    read = 'self.orphan_tracker.restore(snapshot["orphan"])'
    source = textwrap.dedent(
        inspect.getsource(cross_call.CrossCallTrackers.restore))
    assert read in source
    namespace = {}
    exec(source.replace(read, "pass", 1), vars(cross_call), namespace)
    monkeypatch.setattr(cross_call.CrossCallTrackers, "restore",
                        namespace["restore"])
    log = {}
    restored(*part_way, log)
    assert sorted(set(unread(log)) - set(unread(clean))) == [
        (("trackers",), "orphan")]


def plant(obj):
    """Give ``obj`` state no checkpoint carries — a new field, or, where
    ``__slots__`` leave no room for one, a new value in its first field
    — and return the field's name."""
    if hasattr(obj, "__dict__"):
        setattr(obj, PROBE, {"planted": True})
        return PROBE
    name = fields(obj)[0]
    setattr(obj, name, object())
    return name


@pytest.mark.parametrize("name", CHECKPOINTED)
def test_field_added_without_checkpoint_is_caught(name, part_way):
    """State planted in the original object of any checkpointed class
    after its checkpoint was taken fails the walk at that field."""
    pipeline, clock = part_way
    twin = restored(pipeline, clock, {})[0]
    walk = walked(pipeline, twin)
    assert walk.diffs == []
    if name == "Efsm":
        # Both graphs share the frozen definitions, so a field planted
        # in one shows in the other: plant it in a private copy of one.
        instance = next(obj for obj, _ in walk.pairs.values()
                        if type(obj).__name__ == "EfsmInstance")
        instance.definition = target = copy.copy(instance.definition)
    else:
        target = next(obj for obj, _ in walk.pairs.values()
                      if type(obj).__name__ == name)
    field = plant(target)
    walk.pipelines(pipeline, twin)
    assert len(walk.diffs) == 1
    assert paths(walk)[0].endswith(f".{field}")
