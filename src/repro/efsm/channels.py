"""Names of the synchronization channels between communicating EFSMs.

The paper: "The synchronization messages are transmitted through the
communication channels between protocol entities ... We assume that these
communication channels are reliable and function as FIFO queues.  The
synchronization events waiting in a FIFO queue have higher priority than the
data packet events." (Section 4.2)  An :class:`~repro.efsm.system.EfsmSystem`
consumes every event a firing sends before its step returns, so no queue
outlives a step and a channel is only a name.
"""

from __future__ import annotations

__all__ = ["channel_name", "parse_channel"]


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
