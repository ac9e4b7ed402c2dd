"""Network addressing primitives for the simulated IP/UDP layer."""

from __future__ import annotations

from typing import NamedTuple, Tuple, Union

__all__ = ["Endpoint", "EndpointTable"]


class Endpoint(NamedTuple):
    """A UDP endpoint: (IPv4 address string, port number)."""

    ip: str
    port: int

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.ip}:{self.port}"


class EndpointTable(dict):
    """The :class:`Endpoint` objects of one ingest edge, shared by packet.

    Every packet of a stream names the same two endpoints, so the edge
    (one capture being read, one live tap) indexes its table with
    ``address, port`` — the address as dotted-quad text, or as the four
    raw bytes of an IPv4 header — and a hit costs neither a new object nor
    new text.  At :attr:`CAP` entries the table stops growing and a miss
    builds its endpoint without remembering it: a sweep of spoofed sources
    costs time, not memory.
    """

    __slots__ = ()

    CAP = 16_384

    def __missing__(self, key: Tuple[Union[str, bytes], int]) -> Endpoint:
        address, port = key
        if not isinstance(address, str):
            address = "%d.%d.%d.%d" % tuple(address)
        endpoint = Endpoint(address, port)
        if len(self) < self.CAP:
            self[key] = endpoint
        return endpoint
