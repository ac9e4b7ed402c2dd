"""Packet tracing utilities for debugging and tests."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional

from .packet import Datagram

__all__ = ["TraceRecord", "PacketTrace"]


@dataclass
class TraceRecord:
    """One observed packet."""

    time: float
    datagram: Datagram
    where: str


class PacketTrace:
    """A passive recorder that can be wired as an inline-device processor
    or called explicitly from application handlers."""

    def __init__(self, where: str = "", keep_payloads: bool = True,
                 predicate: Optional[Callable[[Datagram], bool]] = None):
        self.where = where
        self.keep_payloads = keep_payloads
        self.predicate = predicate
        self.records: List[TraceRecord] = []

    def process(self, datagram: Datagram, now: float) -> float:
        """PacketProcessor interface: record and charge zero CPU."""
        self.observe(datagram, now)
        return 0.0

    def observe(self, datagram: Datagram, now: float) -> None:
        if self.predicate is not None and not self.predicate(datagram):
            return
        if not self.keep_payloads:
            # The stripped copy keeps packet_id and hops, so it correlates
            # with observations of the same packet at other trace points.
            datagram = replace(datagram, payload=b"")
        self.records.append(TraceRecord(now, datagram, self.where))

    def __len__(self) -> int:
        return len(self.records)

    def clear(self) -> None:
        self.records.clear()
