"""Events for extended finite state machines.

The paper (Definition 1) gives each event a name and arguments, and uses CSP
notation to distinguish input events ``c?event(x)`` from output events
``c!event(x)`` on a channel ``c``.  Here an :class:`Event` carries its name,
its argument vector ``x`` (a mapping), and the channel it arrived on —
``None`` for data-packet events from the network, a channel name for
synchronization messages between protocol machines, and ``"timer"`` for
expirations of timers started by transition actions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

__all__ = ["Event", "TIMER_CHANNEL"]

#: Pseudo-channel on which timer-expiry events are delivered.
TIMER_CHANNEL = "timer"


@dataclass(frozen=True, slots=True, init=False)
class Event:
    """An event instance: name, argument vector x, and originating channel.

    One is allocated per packet on the vids hot path: ``slots=True``
    drops the instance ``__dict__``, and ``__init__`` writes the slots
    through their descriptors, not the four ``object.__setattr__`` calls
    of a generated frozen ``__init__``.
    """

    name: str
    args: Mapping[str, Any] = field(default_factory=dict)
    channel: Optional[str] = None
    time: float = 0.0

    def __init__(self, name: str, args: Optional[Mapping[str, Any]] = None,
                 channel: Optional[str] = None, time: float = 0.0) -> None:
        _set_name(self, name)
        _set_args(self, {} if args is None else args)
        _set_channel(self, channel)
        _set_time(self, time)

    def __getitem__(self, key: str) -> Any:
        return self.args[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.args.get(key, default)

    @property
    def is_sync(self) -> bool:
        """True for inter-machine synchronization events (``c?δ``)."""
        return self.channel is not None and self.channel != TIMER_CHANNEL

    @property
    def is_timer(self) -> bool:
        return self.channel == TIMER_CHANNEL

    def describe(self) -> str:
        """CSP-style rendering, e.g. ``sip->rtp?delta(call_id=...)``."""
        args = ", ".join(f"{k}={v!r}" for k, v in sorted(self.args.items()))
        prefix = f"{self.channel}?" if self.channel else ""
        return f"{prefix}{self.name}({args})"


_set_name, _set_args, _set_channel, _set_time = (
    vars(Event)[name].__set__ for name in ("name", "args", "channel", "time"))
