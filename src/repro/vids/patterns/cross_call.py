"""Detection state that spans calls, held in one place.

The per-call machines live and die with their call record.  What must be
correlated *across* calls is :class:`CrossCallTrackers`: one object per
deployment, built by whoever sees the whole stream (a single
:class:`~repro.vids.ids.Vids`, or the
:class:`~repro.vids.sharding.ShardedVids` facade for all its shards) and
handed to every pipeline through its constructor.  Nothing re-points it
afterwards: a supervisor rewinds it in place with :meth:`restore`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..spec import call_spec
from .invite_flood import InviteFloodTracker
from .media_spam import OrphanMediaTracker

__all__ = ["CrossCallTrackers"]

#: Cap on remembered stray-request keys: each distinct
#: ``(method, call_id, src_ip)`` an attacker sprays costs an entry in the
#: table and in each checkpoint of it, so past the cap the oldest is
#: forgotten (and would alert again).
_MAX_STRAY_KEYS = 4096


class CrossCallTrackers:
    """INVITE rates per target (Figure 4) and per claimed source, orphan
    media per destination (Figure 6), and the stray-request dedup table.

    ``engine()`` answers the :class:`~repro.vids.engine.AnalysisEngine` the
    trackers' alerts go through.  It is asked when an alert fires, not at
    construction: a sharded deployment reports them on its first shard, and
    a supervisor replaces that shard when it restarts it.
    """

    def __init__(self, config, clock_now: Callable[[], float],
                 engine: Callable[[], Any]):
        spec = call_spec(config)
        self.flood_tracker = InviteFloodTracker(
            spec.flood, clock_now,
            on_attack=lambda target, event:
                engine().note_flood(target, event))
        #: Per-claimed-source counterpart of the Figure-4 machine, catching
        #: DRDoS reflection (many callees, one spoofed source).
        self.source_flood_tracker = InviteFloodTracker(
            spec.source_flood, clock_now,
            on_attack=lambda source, event:
                engine().note_reflection(source, event))
        self.orphan_tracker = OrphanMediaTracker(
            spec.media_spam, clock_now,
            on_attack=lambda destination, event, state:
                engine().note_orphan_media(destination, event, state))
        #: Stray requests and foreign REGISTERs already alerted on, oldest
        #: first.
        self._stray_keys: Dict[Tuple, None] = {}
        #: Bumped on every change to ``_stray_keys``: entries leave, so its
        #: length is no version.
        self._stray_version = 0

    def first_stray(self, key: Tuple) -> bool:
        """Remember a stray-request key; True unless it was remembered."""
        keys = self._stray_keys
        if key in keys:
            return False
        if len(keys) >= _MAX_STRAY_KEYS:
            del keys[next(iter(keys))]
        keys[key] = None
        self._stray_version += 1
        return True

    def snapshot(self, previous: Optional[Mapping[str, Any]] = None
                 ) -> Mapping[str, Any]:
        """Serializable copy of the trackers and the stray table.

        Each counts its own changes; RTP-dominated traffic moves none of
        them, so while the counts stand ``previous`` (the snapshot taken
        last time) is handed back as it is.
        """
        versions = (self.flood_tracker.version,
                    self.source_flood_tracker.version,
                    self.orphan_tracker.version, self._stray_version)
        if previous is not None and previous["versions"] == versions:
            return previous
        return {
            "flood": self.flood_tracker.snapshot(),
            "source_flood": self.source_flood_tracker.snapshot(),
            "orphan": self.orphan_tracker.snapshot(),
            "stray_keys": tuple(self._stray_keys),
            "versions": versions,
        }

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Rewind to a :meth:`snapshot`, in place."""
        self.flood_tracker.restore(snapshot["flood"])
        self.source_flood_tracker.restore(snapshot["source_flood"])
        self.orphan_tracker.restore(snapshot["orphan"])
        self._stray_keys.clear()
        self._stray_keys.update(dict.fromkeys(snapshot["stray_keys"]))
        self._stray_version = snapshot["versions"][-1]
