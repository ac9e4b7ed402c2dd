"""Order statistics for the benchmark's own reporting."""

from __future__ import annotations

from typing import Sequence

#: Percentiles the benchmark is willing to name, low to high.
LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)

#: A percentile is only reported when this many samples lie beyond it;
#: fewer and it is an anecdote about a handful of packets.
SAMPLES_BEYOND = 10


def percentile(ordered: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile of an already sorted sequence."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def highest_supported_percentile(count: int) -> float:
    """The highest :data:`LADDER` percentile with at least
    :data:`SAMPLES_BEYOND` of ``count`` samples beyond it (0.0 if none)."""
    supported = 0.0
    for p in LADDER:
        # Rounded: 100 - 99.9 is not exactly 0.1 in binary floating point.
        if round(count * (100.0 - p) / 100.0, 6) >= SAMPLES_BEYOND:
            supported = p
    return supported
