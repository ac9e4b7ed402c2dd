"""Call-scoped structured tracing: the event bus behind the forensic timeline.

The paper's evaluation treats vids as a black box; explaining *why* a call
tripped (or failed to trip) an alert needs the chain the architecture hides:
which classifier verdict a packet got, where the distributor routed it,
which EFSM transition fired, what δ-message crossed the SIP→RTP channel,
and which alert resulted.  A :class:`TraceBus` records exactly that chain as
:class:`TraceEvent` records — sim-time-stamped, correlated by ``call_id``
and ``packet_id``, ring-buffered so a long run keeps the recent past at a
bounded memory cost.

The bus is *passive and optional*: every producer in the pipeline holds an
``Optional[TraceBus]`` and guards each emission with an ``is not None``
check, so a vids instance built without observability pays one pointer
comparison per potential event and allocates nothing.

Exports round-trip: :meth:`TraceBus.to_jsonl` emits a ``$meta`` header line
(emission/drop accounting, so a consumer can tell when the ring evicted the
head of a call) followed by one typed-safe JSON object per event, and
:func:`from_jsonl` parses that text back into equal :class:`TraceEvent`
objects.  Tuples, sets, frozensets, bytes, and non-string dict keys survive
via ``$``-tagged wrappers; payload keys that would collide with the
envelope fields are namespaced with a ``data_`` prefix instead of silently
shadowing them.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional

__all__ = [
    "TraceEvent",
    "TraceBus",
    "TraceExport",
    "DEFAULT_TRACE_CAPACITY",
    "TRACE_FORMAT_VERSION",
    "from_jsonl",
]

#: Default ring-buffer capacity (events, not bytes).
DEFAULT_TRACE_CAPACITY = 65_536

#: Version stamp written into the ``$meta`` header of JSONL exports.
TRACE_FORMAT_VERSION = 2

#: Envelope fields of the flat :meth:`TraceEvent.to_dict` rendering.  A
#: payload key equal to one of these must not overwrite the envelope value.
_ENVELOPE_KEYS = ("seq", "time", "kind", "call_id", "packet_id")
_ENVELOPE_SET = frozenset(_ENVELOPE_KEYS)

#: Keys that *decode* as escaped payload keys: one or more ``data_`` prefixes
#: in front of an envelope name.  Encoding adds one prefix to any key in this
#: language (or in the envelope itself); decoding strips exactly one.  That
#: makes the escape reversible even for pathological keys like ``data_seq``.
_ESCAPED_KEY = re.compile(r"(?:data_)+(?:seq|time|kind|call_id|packet_id)\Z")


def _escape_key(key: str) -> str:
    if key in _ENVELOPE_SET or _ESCAPED_KEY.match(key):
        return "data_" + key
    return key


def _unescape_key(key: str) -> str:
    if _ESCAPED_KEY.match(key):
        return key[len("data_"):]
    return key


def _encode_value(value: Any) -> Any:
    """JSON-safe encoding that round-trips the payload types the bus sees.

    Containers the default encoder would flatten or reject — tuples, sets,
    frozensets, bytes, dicts with non-string keys — become single-key
    ``$``-tagged wrappers.  Anything else non-primitive falls back to
    ``str()`` (the pre-round-trip behaviour), so arbitrary objects still
    export without raising.
    """
    kind = type(value)
    if value is None or kind is str or kind is int or kind is float or kind is bool:
        return value
    if kind is tuple:
        return {"$tuple": [_encode_value(item) for item in value]}
    if kind is list:
        return [_encode_value(item) for item in value]
    if kind is set or kind is frozenset:
        tag = "$set" if kind is set else "$frozenset"
        items = sorted(value, key=lambda item: (str(type(item)), repr(item)))
        return {tag: [_encode_value(item) for item in items]}
    if kind is bytes:
        return {"$bytes": value.hex()}
    if kind is dict:
        plain = all(
            isinstance(key, str) and not key.startswith("$") for key in value)
        if plain:
            return {key: _encode_value(item) for key, item in value.items()}
        return {"$dict": [[_encode_value(key), _encode_value(item)]
                          for key, item in value.items()]}
    return str(value)


def _decode_value(value: Any) -> Any:
    if isinstance(value, list):
        return [_decode_value(item) for item in value]
    if isinstance(value, dict):
        if len(value) == 1:
            tag, payload = next(iter(value.items()))
            if tag == "$tuple":
                return tuple(_decode_value(item) for item in payload)
            if tag == "$set":
                return {_decode_value(item) for item in payload}
            if tag == "$frozenset":
                return frozenset(_decode_value(item) for item in payload)
            if tag == "$bytes":
                return bytes.fromhex(payload)
            if tag == "$dict":
                return {_decode_value(key): _decode_value(item)
                        for key, item in payload}
        return {key: _decode_value(item) for key, item in value.items()}
    return value


@dataclass(slots=True)
class TraceEvent:
    """One structured observation on the bus.

    Attributes:
        seq: monotonically increasing emission number (total order even
            when simulation timestamps collide).
        time: simulation time of the observation, in seconds.
        kind: event type (``classify``, ``route``, ``fire``, ``delta``,
            ``alert``, ``call-created``, ``fault``, ... — see
            docs/OBSERVABILITY.md for the catalog).
        call_id: the SIP Call-ID the event is correlated to, when known.
        packet_id: the :class:`~repro.netsim.packet.Datagram` id, when the
            event was caused by one specific packet.
        data: kind-specific payload fields.
    """

    seq: int
    time: float
    kind: str
    call_id: Optional[str]
    packet_id: Optional[int]
    data: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        """A flat, JSON-serializable rendering (stable field order).

        Payload keys that collide with the envelope (``seq``/``time``/
        ``kind``/``call_id``/``packet_id``) are namespaced with a ``data_``
        prefix rather than overwriting the envelope fields; values are
        encoded with the typed-safe scheme so the rendering round-trips
        through :func:`from_jsonl`.
        """
        record: Dict[str, Any] = {
            "seq": self.seq,
            "time": self.time,
            "kind": self.kind,
        }
        if self.call_id is not None:
            record["call_id"] = self.call_id
        if self.packet_id is not None:
            record["packet_id"] = self.packet_id
        for key, value in self.data.items():
            record[_escape_key(key)] = _encode_value(value)
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "TraceEvent":
        """Inverse of :meth:`to_dict`."""
        data: Dict[str, Any] = {}
        for key, value in record.items():
            if key in _ENVELOPE_SET:
                continue
            data[_unescape_key(key)] = _decode_value(value)
        return cls(
            seq=record["seq"],
            time=record["time"],
            kind=record["kind"],
            call_id=record.get("call_id"),
            packet_id=record.get("packet_id"),
            data=data,
        )


@dataclass(slots=True)
class TraceExport:
    """A parsed JSONL export: the events plus the bus accounting header.

    ``dropped > 0`` means the ring evicted events before the export was
    taken — per-call timelines may be missing their head, and a consumer
    must treat what it counts as a lower bound (``specdiff``'s coverage,
    notably).
    """

    events: List[TraceEvent] = field(default_factory=list)
    emitted: Optional[int] = None
    dropped: int = 0
    capacity: Optional[int] = None
    format: Optional[int] = None

    @property
    def truncated(self) -> bool:
        return self.dropped > 0


def from_jsonl(text: str) -> TraceExport:
    """Parse a :meth:`TraceBus.to_jsonl` export back into events.

    Accepts exports with or without the ``$meta`` header line (pre-v2
    exports had none, so ``emitted``/``capacity`` come back ``None``).
    Blank lines are skipped.
    """
    export = TraceExport()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if not isinstance(record, dict):
            raise ValueError(f"line {lineno}: expected a JSON object")
        if "$meta" in record:
            meta = record["$meta"]
            export.format = meta.get("format")
            export.emitted = meta.get("emitted")
            export.dropped = meta.get("dropped", 0)
            export.capacity = meta.get("capacity")
            continue
        export.events.append(TraceEvent.from_dict(record))
    return export


class TraceBus:
    """A bounded, append-only event bus with call/packet correlation.

    The buffer is a ring: once ``capacity`` events are held, each new
    emission evicts the oldest.  :attr:`emitted` counts every emission ever
    made, so ``emitted - len(bus)`` is the number of evicted (lost) events —
    a forensic session can tell whether its window was wide enough.
    """

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY):
        if capacity <= 0:
            raise ValueError(f"trace capacity must be positive: {capacity}")
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self._seq = 0
        #: Total emissions, including events since evicted from the ring.
        self.emitted = 0
        #: Master switch: emissions while False are discarded unrecorded.
        self.enabled = True

    # -- emission -------------------------------------------------------------

    def emit(self, kind: str, time: float, call_id: Optional[str] = None,
             packet_id: Optional[int] = None, **data: Any) -> None:
        """Record one event.  Extra keyword arguments become ``data``."""
        if not self.enabled:
            return
        self._seq += 1
        self.emitted += 1
        self._events.append(
            TraceEvent(self._seq, time, kind, call_id, packet_id, data))

    # -- inspection -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def dropped(self) -> int:
        """Events evicted from the ring since the last :meth:`clear`."""
        return self.emitted - len(self._events)

    def events(self, kind: Optional[str] = None,
               call_id: Optional[str] = None,
               packet_id: Optional[int] = None) -> List[TraceEvent]:
        """Buffered events, optionally filtered; emission (causal) order."""
        selected: Iterable[TraceEvent] = self._events
        if kind is not None:
            selected = (e for e in selected if e.kind == kind)
        if call_id is not None:
            selected = (e for e in selected if e.call_id == call_id)
        if packet_id is not None:
            selected = (e for e in selected if e.packet_id == packet_id)
        return list(selected)

    def for_call(self, call_id: str) -> List[TraceEvent]:
        """Every buffered event correlated to one call."""
        return self.events(call_id=call_id)

    def call_ids(self) -> List[str]:
        """Distinct call ids seen in the buffer, in first-seen order."""
        seen: Dict[str, None] = {}
        for event in self._events:
            if event.call_id is not None and event.call_id not in seen:
                seen[event.call_id] = None
        return list(seen)

    def clear(self) -> None:
        self._events.clear()
        self.emitted = 0

    # -- export ---------------------------------------------------------------

    def to_jsonl(self, events: Optional[Iterable[TraceEvent]] = None,
                 header: bool = True) -> str:
        """Typed-safe JSONL: a ``$meta`` accounting line, then one event/line.

        The header carries ``emitted``/``dropped``/``capacity`` so a consumer
        can detect ring truncation (``dropped > 0``) instead of silently
        learning from timelines whose head was evicted.  Pass
        ``header=False`` for a bare event stream.
        """
        selected = list(self._events if events is None else events)
        lines: List[str] = []
        if header:
            lines.append(json.dumps({"$meta": {
                "format": TRACE_FORMAT_VERSION,
                "emitted": self.emitted,
                "dropped": self.dropped,
                "capacity": self.capacity,
                "events": len(selected),
            }}, sort_keys=False))
        lines.extend(
            json.dumps(event.to_dict(), sort_keys=False, default=str)
            for event in selected)
        return "\n".join(lines)
