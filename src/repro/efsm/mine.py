"""EFSM mining: learn protocol state machines from call traces.

The obs layer exports seq-ordered per-call event timelines (``fire`` /
``delta`` / ``call-created`` trace events); this module turns them back
into :class:`~repro.efsm.machine.Efsm` objects — the classic passive-
learning pipeline:

1. **corpus extraction** (:func:`extract_corpus`) groups trace events into
   per-call, per-machine step sequences, accumulating the bounded
   changed-variable snapshots (``VidsConfig.trace_variables``) back into
   full valuations, and excluding (while counting) calls whose timeline
   does not start at ``call-created`` — the ring may have evicted their
   head, so learning from them would invent truncated behaviour;
2. **prefix-tree acceptor** construction per machine, every trace a root
   path, every edge keyed by (event name, channel) and carrying the
   observations (event args, pre-step valuation, recorded spec states)
   that later feed guard synthesis;
3. **k-tails merging**: states whose outgoing behaviour agrees to depth
   ``k`` (with an end-of-trace marker, so "can stop here" is part of the
   signature) are the same learned state;
4. **determinization with guard synthesis**: when a merged state has one
   (event, channel) leading to several targets, the miner first tries to
   synthesize mutually disjoint guards over the recorded event arguments
   — atoms of the guard algebra (:mod:`repro.efsm.guards`): a numeric
   interval, else membership in a value set; only when no separating
   field exists are the targets folded together — so mined machines pass
   the same determinism discipline (speclint's exact rule, compiled
   dispatch) as the hand-written ones.

The result is a real :class:`Efsm` built through the ordinary machine API:
``validate()``, ``speclint``, and ``to_dot`` work on it unchanged, and
:func:`replay_sequence` re-delivers a training sequence to prove the model
accepts it.  ``repro.efsm.specdiff`` diffs mined machines against the
hand-written specifications.  See docs/MINING.md.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..obs.trace import TraceBus, TraceEvent, TraceExport
from .events import Event, TIMER_CHANNEL
from .guards import DISJOINT, Guard, decide, x
from .machine import Efsm, EfsmInstance, FiringResult

__all__ = [
    "CallSequence",
    "MinedMachine",
    "MiningCorpus",
    "Observation",
    "StepRecord",
    "extract_corpus",
    "mine",
    "mine_machine",
    "replay_sequence",
]

#: Default k-tails depth: 2 keeps retransmit self-loops distinct from
#: first-time transitions while still folding long call bodies.
DEFAULT_K = 2

#: End-of-trace marker inside k-tail signatures: a state where traces may
#: stop is behaviourally different from one where they never do.
_END = "$"

_MISSING = object()


# ---------------------------------------------------------------------------
# Corpus extraction
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class StepRecord:
    """One observed firing: the miner's unit of evidence."""

    event: str
    channel: Optional[str]
    from_state: str          # spec machine's state when the event arrived
    to_state: str
    args: Dict[str, Any]     # event argument vector x (if traced)
    valuation: Dict[str, Any]  # pre-step variable vector v (accumulated)
    time: float = 0.0

    @property
    def key(self) -> Tuple[str, Optional[str]]:
        return (self.event, self.channel)


@dataclass(slots=True)
class CallSequence:
    """The training steps of one (call, machine) timeline."""

    call_id: str
    machine: str
    steps: List[StepRecord] = field(default_factory=list)


@dataclass(slots=True)
class MiningCorpus:
    """Per-machine training sequences plus exclusion accounting.

    The counters make the miner's blind spots explicit: a consumer can see
    how many calls were unusable (ring truncation, checkpoint restores),
    how many were set aside as attack-labelled, and whether the source
    export itself reported drops.
    """

    sequences: Dict[str, List[CallSequence]] = field(default_factory=dict)
    calls_seen: int = 0
    calls_trained: int = 0
    #: Calls excluded because their timeline does not start at
    #: ``call-created`` (ring-evicted head or mid-call checkpoint restore).
    calls_truncated: int = 0
    #: Calls excluded because an attack transition fired in them.
    calls_excluded_attack: int = 0
    #: Deviation firings skipped inside otherwise-trained calls.
    deviation_steps: int = 0
    #: Drop count reported by the export's ``$meta`` header (0 when the
    #: source was a live bus or a headerless export).
    dropped_events: int = 0

    def machines(self) -> List[str]:
        return sorted(self.sequences)

    def summary(self) -> Dict[str, Any]:
        return {
            "calls_seen": self.calls_seen,
            "calls_trained": self.calls_trained,
            "calls_truncated": self.calls_truncated,
            "calls_excluded_attack": self.calls_excluded_attack,
            "deviation_steps": self.deviation_steps,
            "dropped_events": self.dropped_events,
            "sequences": {name: len(seqs)
                          for name, seqs in sorted(self.sequences.items())},
        }


TraceSource = Union[TraceExport, TraceBus, Iterable[TraceEvent]]


def extract_corpus(source: TraceSource,
                   include_attacks: bool = False) -> MiningCorpus:
    """Group trace events into per-call, per-machine step sequences.

    ``source`` is a parsed export (:func:`repro.obs.from_jsonl`), a live
    :class:`TraceBus`, or any iterable of :class:`TraceEvent`.  Only calls
    whose timeline starts at ``call-created`` are trained; ``call-restored``
    timelines resume mid-call, so they are counted as truncated too.
    """
    corpus = MiningCorpus()
    if isinstance(source, TraceExport):
        corpus.dropped_events = source.dropped
        events: Iterable[TraceEvent] = source.events
    elif isinstance(source, TraceBus):
        corpus.dropped_events = source.dropped
        events = source.events()
    else:
        events = source

    started: set = set()           # call ids that began inside the window
    truncated: set = set()         # call ids first seen mid-call
    attacked: set = set()          # call ids with an attack firing
    # (call_id, machine) -> CallSequence / accumulated valuation
    sequences: Dict[Tuple[str, str], CallSequence] = {}
    valuations: Dict[Tuple[str, str], Dict[str, Any]] = {}
    # call_id -> {delta event name -> channel}: fallback channel inference
    # for exports written before fire events carried ``channel``.
    delta_channels: Dict[str, Dict[str, str]] = {}

    for event in events:
        kind = event.kind
        call_id = event.call_id
        if call_id is None:
            continue
        if kind == "call-created":
            started.add(call_id)
            continue
        if kind == "call-restored":
            if call_id not in started:
                truncated.add(call_id)
            continue
        if kind == "delta":
            channel = event.data.get("channel")
            name = event.data.get("event")
            if channel and name:
                delta_channels.setdefault(call_id, {})[name] = channel
            continue
        if kind != "fire":
            continue
        if call_id not in started:
            truncated.add(call_id)
            continue
        if call_id in truncated:
            continue
        data = event.data
        machine = data.get("machine")
        name = data.get("event")
        if machine is None or name is None:
            continue
        if data.get("attack"):
            attacked.add(call_id)
        key = (call_id, machine)
        valuation = valuations.setdefault(key, {})
        if data.get("deviation"):
            corpus.deviation_steps += 1
            # Deviations leave the state unchanged and fire no action, so
            # the surrounding steps remain a consistent training sequence.
            continue
        channel = data.get("channel", _MISSING)
        if channel is _MISSING:
            channel = _infer_channel(name, delta_channels.get(call_id))
        sequence = sequences.get(key)
        if sequence is None:
            sequence = sequences[key] = CallSequence(call_id, machine)
        sequence.steps.append(StepRecord(
            event=name,
            channel=channel,
            from_state=data.get("from_state", ""),
            to_state=data.get("to_state", ""),
            args=dict(data.get("args") or {}),
            valuation=dict(valuation),
            time=event.time,
        ))
        changed = data.get("vars")
        if changed:
            valuation.update(changed)

    corpus.calls_seen = len(started | truncated)
    corpus.calls_truncated = len(truncated)
    trained_calls: set = set()
    for (call_id, machine), sequence in sequences.items():
        if not include_attacks and call_id in attacked:
            continue
        if not sequence.steps:
            continue
        corpus.sequences.setdefault(machine, []).append(sequence)
        trained_calls.add(call_id)
    corpus.calls_trained = len(trained_calls)
    corpus.calls_excluded_attack = len(
        attacked - truncated) if not include_attacks else 0
    return corpus


def _infer_channel(event_name: str,
                   deltas: Optional[Dict[str, str]]) -> Optional[str]:
    """Best-effort channel for pre-v2 exports lacking the ``channel`` field."""
    if deltas and event_name in deltas:
        return deltas[event_name]
    if event_name == "T":
        return TIMER_CHANNEL
    return None


# ---------------------------------------------------------------------------
# Guard synthesis
# ---------------------------------------------------------------------------

#: A field with more distinct values than this never becomes a guard —
#: in-set guards that long are memorized identifiers, not predicates.
_MAX_GUARD_CARDINALITY = 16

#: With this much evidence, a field whose values are mostly distinct
#: (>= half as many values as observations) is treated as a per-call
#: counter/identifier (seq numbers, timestamps) and skipped: it can
#: separate the *training* branches by coincidence but rejects all
#: future traffic.
_IDENTIFIER_MIN_EVIDENCE = 6


def _synthesize_guards(
        branches: List[List["Observation"]]) -> Optional[List[Guard]]:
    """Disjoint per-branch guards over one shared argument field, or None.

    Tries every field present in *every* observation of *every* branch.
    An all-numeric field yields interval guards over each branch's observed
    [min, max] (``lo <= x.f <= hi``, which no bool satisfies) — the widest
    sound generalization, so unseen values inside a branch's observed range
    still route to that branch; any field yields in-set guards over each
    branch's observed values (``x.f in {...}``).  The first candidates
    :func:`~repro.efsm.guards.decide` proves mutually disjoint win —
    intervals first: disjoint numeric ranges imply disjoint value sets, so
    an in-set-first order would never emit an interval.  The term carries
    no default, so a missing field — like a value of the wrong type —
    enables no branch and never raises.
    """
    if not branches or any(not branch for branch in branches):
        return None
    fields = set(branches[0][0].args)
    for branch in branches:
        for observation in branch:
            fields &= set(observation.args)
    for name in sorted(fields):
        try:
            value_sets = [{observation.args[name] for observation in branch}
                          for branch in branches]
        except TypeError:           # an unhashable value: not a scalar field
            continue
        distinct = sum(len(values) for values in value_sets)
        evidence = sum(len(branch) for branch in branches)
        if distinct > _MAX_GUARD_CARDINALITY:
            continue
        if evidence >= _IDENTIFIER_MIN_EVIDENCE and distinct * 2 >= evidence:
            continue
        candidates = [[x(name).in_(frozenset(values))
                       for values in value_sets]]
        if all(isinstance(value, (int, float)) and not isinstance(value, bool)
               for values in value_sets for value in values):
            candidates.insert(0, [x(name).between(min(values), max(values))
                                  for values in value_sets])
        for guards in candidates:
            if decide(guards).status == DISJOINT:
                return guards
    return None


# ---------------------------------------------------------------------------
# PTA + k-tails + determinization
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Observation:
    """One piece of evidence attached to a mined transition."""

    args: Dict[str, Any]
    valuation: Dict[str, Any]
    spec_from: str           # spec machine's state labels at firing time
    spec_to: str
    time: float = 0.0


class _PtaNode:
    """Edges are keyed ``(event, channel, spec_to_label)`` — two firings of
    the same event that the spec machine resolved to different states stay
    distinct branches, so guard synthesis gets a chance to separate them
    before determinization folds them together."""

    __slots__ = ("children", "observations", "ends", "labels")

    def __init__(self):
        self.children: Dict[Tuple[str, Optional[str], str], int] = {}
        self.observations: Dict[
            Tuple[str, Optional[str], str], List[Observation]] = {}
        self.ends = 0
        self.labels: Counter = Counter()


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, item: int) -> int:
        root = item
        parent = self.parent
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:      # path compression
            parent[item], item = root, parent[item]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True


def _build_pta(sequences: List[CallSequence]) -> List[_PtaNode]:
    nodes = [_PtaNode()]
    for sequence in sequences:
        current = 0
        for step in sequence.steps:
            node = nodes[current]
            node.labels[step.from_state] += 1
            edge = (step.event, step.channel, step.to_state)
            child = node.children.get(edge)
            if child is None:
                child = len(nodes)
                nodes.append(_PtaNode())
                node.children[edge] = child
            node.observations.setdefault(edge, []).append(Observation(
                args=step.args, valuation=step.valuation,
                spec_from=step.from_state, spec_to=step.to_state,
                time=step.time))
            current = child
        nodes[current].ends += 1
        if sequence.steps:
            nodes[current].labels[sequence.steps[-1].to_state] += 1
    return nodes


def _tails(nodes: List[_PtaNode], node_id: int, depth: int,
           memo: Dict[Tuple[int, int], frozenset]) -> frozenset:
    """Outgoing behaviour of a PTA node to ``depth`` edges (plus $-ends)."""
    cached = memo.get((node_id, depth))
    if cached is not None:
        return cached
    node = nodes[node_id]
    paths = set()
    if node.ends:
        paths.add((_END,))
    for key, child in node.children.items():
        # The signature alphabet is the *observable* (event, channel)
        # pair; the spec-label component of the edge key is not future
        # behaviour, so it is projected away here.
        head = key[:2]
        if depth <= 1:
            paths.add((head,))
            continue
        child_tails = _tails(nodes, child, depth - 1, memo)
        if child_tails:
            for tail in child_tails:
                paths.add((head,) + tail)
        else:
            paths.add((head,))
    result = frozenset(paths)
    memo[(node_id, depth)] = result
    return result


def _merge_k_tails(nodes: List[_PtaNode], k: int) -> _UnionFind:
    """Merge nodes that agree on spec labels and depth-``k`` futures.

    The spec-label component keeps states the specification distinguishes
    (e.g. ``Up`` vs ``Failed`` after the same response event) from being
    folded just because both end the trace; determinization later folds
    label-distinct siblings anyway when no guard can separate them.
    """
    union = _UnionFind(len(nodes))
    memo: Dict[Tuple[int, int], frozenset] = {}
    by_signature: Dict[Tuple[frozenset, frozenset], int] = {}
    for node_id, node in enumerate(nodes):
        signature = (frozenset(node.labels), _tails(nodes, node_id, k, memo))
        anchor = by_signature.setdefault(signature, node_id)
        if anchor != node_id:
            union.union(anchor, node_id)
    return union


def _class_edges(nodes: List[_PtaNode], union: _UnionFind) -> Dict[
        int, Dict[Tuple[str, Optional[str]], Dict[int, List[Observation]]]]:
    """source class -> (event, channel) -> target class -> observations."""
    edges: Dict[int, Dict[Tuple[str, Optional[str]],
                          Dict[int, List[Observation]]]] = {}
    for node_id, node in enumerate(nodes):
        source = union.find(node_id)
        for key, child in node.children.items():
            target = union.find(child)
            group = edges.setdefault(source, {}).setdefault(key[:2], {})
            group.setdefault(target, []).extend(node.observations[key])
    return edges


def _determinize(nodes: List[_PtaNode], union: _UnionFind) -> Dict[
        int, Dict[Tuple[str, Optional[str]], Dict[int, List[Observation]]]]:
    """Fold targets that guard synthesis cannot separate, until stable."""
    while True:
        edges = _class_edges(nodes, union)
        changed = False
        for source, groups in edges.items():
            for key, targets in groups.items():
                if len(targets) < 2:
                    continue
                ordered = sorted(targets)
                branches = [targets[target] for target in ordered]
                if _synthesize_guards(branches) is None:
                    anchor = ordered[0]
                    for other in ordered[1:]:
                        union.union(anchor, other)
                    changed = True
            if changed:
                break
        if not changed:
            return edges


# ---------------------------------------------------------------------------
# Machine emission
# ---------------------------------------------------------------------------

@dataclass
class MinedMachine:
    """A learned machine plus the evidence behind every transition."""

    machine: str                 # source machine name ("sip", "rtp")
    efsm: Efsm
    sequences: int
    steps: int
    #: mined state -> dominant spec-state label observed there.
    state_labels: Dict[str, str]
    #: (source, event, channel, target) -> training observations.
    observations: Dict[Tuple[str, str, Optional[str], str],
                       List[Observation]]

    @property
    def guards(self) -> Dict[Tuple[str, str, Optional[str], str], Guard]:
        """(source, event, channel, target) -> the guard synthesized to keep
        its group deterministic: the transition's own predicate."""
        return {(t.source, t.event_name, t.channel, t.target): t.predicate
                for t in self.efsm.transitions if t.predicate is not None}

    @property
    def supports(self) -> Dict[Tuple[str, str, Optional[str], str], int]:
        """Training-evidence count per transition."""
        return {key: len(group) for key, group in self.observations.items()}

    def summary(self) -> Dict[str, Any]:
        return {
            "machine": self.machine,
            "name": self.efsm.name,
            "states": len(self.efsm.states),
            "transitions": len(self.efsm.transitions),
            "guarded_transitions": len(self.guards),
            "guards": [f"{source} --{event}--> {target}: {guard.describe()}"
                       for (source, event, _, target), guard
                       in self.guards.items()],
            "sequences": self.sequences,
            "steps": self.steps,
            "final_states": sorted(self.efsm.final_states),
        }


def mine_machine(sequences: List[CallSequence], machine: str,
                 k: int = DEFAULT_K) -> MinedMachine:
    """Learn one machine from its training sequences (PTA → k-tails →
    determinize → guard synthesis → :class:`Efsm`)."""
    if not sequences:
        raise ValueError(f"no training sequences for machine {machine!r}")
    nodes = _build_pta(sequences)
    union = _merge_k_tails(nodes, k)
    edges = _determinize(nodes, union)

    # Aggregate class annotations (spec labels, end counts).
    class_labels: Dict[int, Counter] = {}
    class_ends: Dict[int, int] = {}
    for node_id, node in enumerate(nodes):
        root = union.find(node_id)
        class_labels.setdefault(root, Counter()).update(node.labels)
        class_ends[root] = class_ends.get(root, 0) + node.ends

    # Name states after their dominant observed spec state — mined DOT
    # output and specdiff messages then read in the spec's vocabulary.
    order = [union.find(0)]
    seen = {order[0]}
    frontier = [order[0]]
    while frontier:
        current = frontier.pop(0)
        for key in sorted(edges.get(current, {}),
                          key=lambda item: (item[0], item[1] or "")):
            for target in sorted(edges[current][key]):
                if target not in seen:
                    seen.add(target)
                    order.append(target)
                    frontier.append(target)

    names: Dict[int, str] = {}
    used: Dict[str, int] = {}
    for cls in order:
        labels = class_labels.get(cls)
        base = labels.most_common(1)[0][0] if labels else "q"
        count = used.get(base, 0)
        used[base] = count + 1
        names[cls] = base if count == 0 else f"{base}#{count + 1}"

    initial = names[union.find(0)]
    efsm = Efsm(f"mined-{machine}", initial)
    for cls in order:
        efsm.add_state(names[cls], final=class_ends.get(cls, 0) > 0)
    channels = {key[1] for groups in edges.values() for key in groups
                if key[1] is not None and key[1] != TIMER_CHANNEL}
    if channels:
        efsm.declare_channel(*sorted(channels))

    observations: Dict[Tuple[str, str, Optional[str], str],
                       List[Observation]] = {}
    steps = 0
    for cls in order:
        for key, targets in sorted(
                edges.get(cls, {}).items(),
                key=lambda item: (item[0][0], item[0][1] or "")):
            event_name, channel = key
            ordered = sorted(targets)
            specs: Optional[List[Guard]] = None
            if len(ordered) > 1:
                # Never None: _determinize folded every group it is for.
                specs = _synthesize_guards(
                    [targets[target] for target in ordered])
            for index, target in enumerate(ordered):
                group = targets[target]
                steps += len(group)
                transition_key = (names[cls], event_name, channel,
                                  names[target])
                observations.setdefault(transition_key, []).extend(group)
                spec = specs[index] if specs else None
                label = (event_name if spec is None
                         else f"{event_name} [{spec.describe()}]")
                efsm.add_transition(
                    names[cls], event_name, names[target],
                    predicate=spec, channel=channel, label=label)
    efsm.validate()
    return MinedMachine(
        machine=machine, efsm=efsm, sequences=len(sequences), steps=steps,
        state_labels={names[cls]:
                      (class_labels[cls].most_common(1)[0][0]
                       if class_labels.get(cls) else names[cls])
                      for cls in order},
        observations=observations)


def mine(source: Union[TraceSource, MiningCorpus],
         machine: Optional[str] = None,
         k: int = DEFAULT_K,
         include_attacks: bool = False) -> Dict[str, MinedMachine]:
    """Mine every machine (or one) out of a trace source or corpus."""
    corpus = source if isinstance(source, MiningCorpus) else \
        extract_corpus(source, include_attacks=include_attacks)
    targets = [machine] if machine is not None else corpus.machines()
    mined: Dict[str, MinedMachine] = {}
    for name in targets:
        sequences = corpus.sequences.get(name, [])
        if not sequences:
            continue
        mined[name] = mine_machine(sequences, name, k=k)
    return mined


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

def replay_sequence(efsm: Efsm,
                    sequence: CallSequence) -> List[FiringResult]:
    """Deliver a training sequence to a fresh instance of a mined machine.

    Returns the firing results; a result with ``deviation`` set means the
    model rejected its own training data (which :func:`mine_machine`'s
    construction is expected to make impossible — the acceptance tests
    assert exactly that).
    """
    instance = EfsmInstance(efsm, clock_now=lambda: 0.0)
    results = []
    for step in sequence.steps:
        results.append(instance.deliver(Event(
            step.event, step.args, channel=step.channel, time=step.time)))
    return results
