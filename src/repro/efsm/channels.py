"""FIFO synchronization channels between communicating EFSMs.

The paper: "The synchronization messages are transmitted through the
communication channels between protocol entities ... We assume that these
communication channels are reliable and function as FIFO queues.  The
synchronization events waiting in a FIFO queue have higher priority than the
data packet events." (Section 4.2)
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from .events import Event

__all__ = ["Channel", "channel_name", "parse_channel"]


def channel_name(sender: str, receiver: str) -> str:
    """Canonical channel id for the queue from ``sender`` to ``receiver``.

    Matches the paper's ``queue_12`` convention: the queue between protocol
    entity 1 and protocol entity 2 is named by its direction.
    """
    return f"{sender}->{receiver}"


def parse_channel(name: str) -> tuple:
    """Split a canonical channel id back into ``(sender, receiver)``.

    Returns ``(None, None)`` for non-directional channel names (the timer
    pseudo-channel).
    """
    sender, arrow, receiver = name.partition("->")
    if not arrow or not sender or not receiver:
        return None, None
    return sender, receiver


class Channel:
    """A reliable FIFO queue carrying synchronization events one way."""

    def __init__(self, sender: str, receiver: str):
        self.sender = sender
        self.receiver = receiver
        self.name = channel_name(sender, receiver)
        self._queue: Deque[Event] = deque()

    def put(self, event: Event) -> None:
        self._queue.append(event)

    def get(self) -> Optional[Event]:
        return self._queue.popleft() if self._queue else None

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)
