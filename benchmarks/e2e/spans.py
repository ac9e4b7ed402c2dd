"""Span tracing from outside: timing shims on each layer's entry points.

The benchmark may not touch ``src/``, so the traced pass wraps the public
entry point of every layer (``PacketClassifier.classify``,
``EventDistributor.distribute``, ``EfsmSystem.inject``, ...) *before* the
pipeline is built and restores the originals afterwards.  Every call
records one span ``(layer, start, end, parent)`` into flat in-memory
arrays; nothing is aggregated or written until the pass is over.

A layer's *self time* is its spans' duration minus the part covered by
their child spans, so the self times of all layers add up to the duration
of the root span.  The shim's own bookkeeping runs outside the
``start``/``end`` stamps of the span it opens and therefore lands in the
parent's self time; ``bench.trace_overhead_ratio`` says how much the
whole apparatus costs.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List, Tuple


class Tracer:
    """Flat span store: four parallel arrays and an open-span stack."""

    def __init__(self) -> None:
        self.layer_names: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self.layers = array("h")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("l")
        self._stack: List[int] = []
        #: Free-form event counters kept next to the spans.
        self.counts: Dict[str, int] = {}

    def layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layer_names)
            self.layer_names.append(name)
        return self._layer_ids[name]

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def add_span(self, layer: str, start: int, end: int,
                 parent: int = -1) -> int:
        """Append a finished span by hand (tests, hand-built trees)."""
        self.layers.append(self.layer_id(layer))
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.starts) - 1

    def wrap(self, layer: str, function: Callable) -> Callable:
        """``function`` with a span of ``layer`` around every call."""
        layer_id = self.layer_id(layer)
        layers, starts, ends, parents = (self.layers, self.starts, self.ends,
                                         self.parents)
        stack = self._stack
        clock = perf_counter_ns

        def traced(*args, **kwargs):
            index = len(starts)
            layers.append(layer_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = function
        return traced

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        index = self.add_span(layer, perf_counter_ns(), 0,
                              self._stack[-1] if self._stack else -1)
        self._stack.append(index)
        try:
            yield
        finally:
            self.ends[index] = perf_counter_ns()
            self._stack.pop()

    # -- aggregation ----------------------------------------------------------

    def self_times(self) -> List[int]:
        """Per span: duration minus the time its direct children cover."""
        starts, ends, parents = self.starts, self.ends, self.parents
        own = [ends[i] - starts[i] for i in range(len(starts))]
        for index in range(len(starts)):
            parent = parents[index]
            if parent >= 0:
                own[parent] -= ends[index] - starts[index]
        return own

    def by_layer(self) -> Dict[str, Tuple[int, int, int]]:
        """layer -> (spans, total ns, self ns)."""
        own = self.self_times()
        spans = [0] * len(self.layer_names)
        total = [0] * len(self.layer_names)
        self_ns = [0] * len(self.layer_names)
        layers, starts, ends = self.layers, self.starts, self.ends
        for index in range(len(starts)):
            layer = layers[index]
            spans[layer] += 1
            total[layer] += ends[index] - starts[index]
            self_ns[layer] += own[index]
        return {name: (spans[i], total[i], self_ns[i])
                for i, name in enumerate(self.layer_names)}

    def dump(self, path: str) -> None:
        """Write the aggregates and the raw spans as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "layers": self.layer_names,
                "by_layer": {name: {"spans": s, "total_ns": t, "self_ns": o}
                             for name, (s, t, o) in self.by_layer().items()},
                "counts": self.counts,
                "spans": {"layer": list(self.layers),
                          "start_ns": list(self.starts),
                          "end_ns": list(self.ends),
                          "parent": list(self.parents)},
            }, handle)


def _shim_targets() -> List[Tuple[object, str, str]]:
    """(owner, attribute, layer) for every entry point that gets a shim.

    Functions a caller imported by name are patched in the *caller's*
    module; that is the reference the call goes through.
    """
    import repro.live.replay as live_replay
    import repro.vids.classifier as classifier
    import repro.vids.cluster as cluster
    import repro.vids.sharding as sharding
    from repro.efsm import EfsmSystem, ManualClock
    from repro.live import UdpFrontend
    from repro.rtp import RtpPacket
    from repro.vids import Vids
    from repro.vids.distributor import EventDistributor
    from repro.vids.engine import AnalysisEngine
    from repro.vids.factbase import CallStateFactBase

    return [
        (live_replay, "load_pcap", "live.pcap"),
        (classifier, "parse_message", "sip.message"),
        (RtpPacket, "parse", "rtp.packet"),
        (classifier.PacketClassifier, "classify", "vids.classifier"),
        (EventDistributor, "distribute", "vids.distributor"),
        (EfsmSystem, "inject", "efsm.system"),
        (ManualClock, "advance", "efsm.clock"),
        (AnalysisEngine, "handle_result", "vids.engine"),
        (CallStateFactBase, "get_or_create", "vids.factbase.create"),
        (CallStateFactBase, "delete", "vids.factbase.delete"),
        (CallStateFactBase, "lookup_media", "vids.factbase.lookup_media"),
        (Vids, "process", "vids.ids"),
        (Vids, "process_classified", "vids.ids"),
        (Vids, "process_batch", "vids.ids.batch_loop"),
        (sharding.ShardedVids, "process_batch", "vids.sharding"),
        (cluster.SupervisedCluster, "process_batch", "vids.sharding"),
        (sharding, "shard_for_call", "vids.sharding"),
        (cluster, "shard_for_call", "vids.sharding"),
        (cluster.ShardSupervisor, "take_checkpoint", "vids.cluster"),
        (UdpFrontend, "_on_datagram", "live.frontend"),
        (UdpFrontend, "flush", "live.frontend"),
    ]


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Shims on every layer entry point for the duration of the block.

    Also counts fired timers by wrapping the callbacks handed to
    ``ManualClock.schedule`` (a cancelled timer never runs its callback).
    """
    from repro.efsm import ManualClock

    saved = []
    for owner, name, layer in _shim_targets():
        raw = vars(owner)[name]
        saved.append((owner, name, raw))
        if isinstance(raw, classmethod):
            setattr(owner, name,
                    staticmethod(tracer.wrap(layer, getattr(owner, name))))
        else:
            setattr(owner, name, tracer.wrap(layer, raw))

    schedule = ManualClock.schedule
    count = tracer.count

    def counting_schedule(self, delay, callback):
        def fired():
            count("timers_fired")
            callback()
        return schedule(self, delay, fired)

    saved.append((ManualClock, "schedule", schedule))
    ManualClock.schedule = counting_schedule
    try:
        yield
    finally:
        for owner, name, raw in reversed(saved):
            setattr(owner, name, raw)
