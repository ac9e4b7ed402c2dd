"""The one ingest loop: clamp -> classify -> contain -> route -> admit.

The paper's Figure 3 is a single pipeline, and every tier enters it
through :func:`ingest`: ``Vids``, ``ShardedVids`` and ``SupervisedCluster``
differ only in the ``route`` and ``admit`` hooks that take the classified
packet from here (docs/SCALING.md "Batched ingestion").
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Tuple

from ..netsim.packet import Datagram

__all__ = ["ingest"]


def ingest(front, items: Iterable[Tuple[Datagram, float]], clock,
           admit: Callable[..., float],
           route: Optional[Callable[[object], int]] = None) -> float:
    """Analyse time-ordered ``(datagram, time)`` pairs; returns CPU cost.

    ``front`` is the pipeline whose classifier and ``crash_containment``
    setting apply (a ``Vids`` or a ``ShardedVids``).
    The single pipeline passes no ``route`` and its post-classifier tail
    as ``admit(classified, when)``; a sharded tier passes
    :meth:`~repro.vids.sharding.ShardedVids.shard_index` and
    ``admit(shard, classified, when)``.  ``admit`` returns the CPU cost.

    When ``clock`` (a :class:`~repro.efsm.system.ManualClock`-compatible
    object) is given it is advanced to each packet's timestamp first, so
    timers (T, linger) fire and T1 flood windows close as they would
    online.  Real captures are not always time-ordered (multi-NIC pcap
    merges, clock steps): a timestamp behind the analysis clock is
    clamped to the clock's current reading and counted in
    ``metrics.time_regressions`` — the clock never runs backwards, which
    would corrupt timer scheduling and shed-interval accounting.

    Clamped timestamps and classifier crashes belong to no call, so
    ``front.default_vids`` accounts them — resolved when the event
    happens, not before the loop: a supervisor restarting a member
    mid-batch replaces the ``Vids`` behind it.
    """
    total = 0.0
    classify = front.classifier.classify
    if clock is not None:
        now, advance = clock.now, clock.advance
        current = now()
    for datagram, when in items:
        if clock is not None:
            if when < current:
                front.default_vids.metrics.time_regressions += 1
            elif when > current:
                advance(when - current)
                current = now()
            when = current
        try:
            classified = classify(datagram)
        except Exception as exc:  # crash containment, layer 1
            if not front.config.crash_containment:
                raise
            total += front.default_vids.contain_classifier_error(
                datagram, exc, when)
            continue
        if route is None:
            total += admit(classified, when)
        else:
            total += admit(route(classified), classified, when)
    return total
