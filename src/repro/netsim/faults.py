"""Deterministic fault injection for simulated links.

An IDS deployed as a bump-in-the-wire device is fed by the open Internet:
corrupted datagrams, duplicated and reordered packets, bursty loss, and
flapping access links are its normal operating weather, not exceptional
inputs.  This module provides the machinery to *manufacture* that weather
reproducibly so the robustness of the vids pipeline can be asserted in
tests rather than hoped for.

A :class:`FaultPlan` describes what to inject; a :class:`FaultyLink` wraps
an existing :class:`~repro.netsim.link.Link` and applies the plan to every
datagram crossing it, in both directions.  All randomness comes from one
explicit ``random.Random(plan.seed)`` stream, so two runs with the same
plan produce bit-identical fault sequences — the property the chaos suite
relies on when it asserts that re-running a scenario reproduces identical
alert and metric counts.

Fault repertoire (applied in this order, each with its own probability):

- **link flap** — the link is administratively down during scheduled
  ``(down_at, up_at)`` intervals; everything offered while down is dropped;
- **burst loss** — a two-state Gilbert–Elliott model: a *good* state with
  light independent loss and a *bad* state with heavy loss, with per-packet
  transition probabilities, producing correlated loss bursts rather than
  the Bernoulli loss the plain link already models;
- **corruption** — up to ``corrupt_bits`` random bit flips in the payload;
- **truncation** — the payload is cut at a random offset;
- **duplication** — the datagram is transmitted twice;
- **reordering** — the datagram is held back for a random delay so later
  traffic overtakes it.

Corruption and truncation mutate a *copy* of the datagram; the sender's
view of what it transmitted is never altered.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from .packet import Datagram

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import TraceBus
    from .link import Link

__all__ = ["FaultPlan", "FaultStats", "FaultyLink", "ShardFaultPlan",
           "inject_faults"]


@dataclass(frozen=True)
class FaultPlan:
    """What to inject, with what probability.  Everything defaults off."""

    #: Master seed for the plan's private random stream.
    seed: int = 0

    # -- payload corruption ---------------------------------------------------
    #: Probability a datagram's payload gets random bit flips.
    corrupt_rate: float = 0.0
    #: Bit flips applied to a corrupted payload (1..corrupt_bits, uniform).
    corrupt_bits: int = 4
    #: Probability a datagram's payload is truncated at a random offset.
    truncate_rate: float = 0.0

    # -- delivery faults ------------------------------------------------------
    #: Probability a datagram is transmitted twice.
    duplicate_rate: float = 0.0
    #: Probability a datagram is held back so later packets overtake it.
    reorder_rate: float = 0.0
    #: Maximum hold-back (seconds) for a reordered datagram.
    reorder_delay: float = 0.05

    # -- Gilbert-Elliott burst loss -------------------------------------------
    #: P(good -> bad) evaluated once per offered datagram.
    burst_enter: float = 0.0
    #: P(bad -> good) evaluated once per offered datagram.
    burst_exit: float = 0.3
    #: Independent loss probability while in the good state.
    loss_good: float = 0.0
    #: Independent loss probability while in the bad state.
    loss_bad: float = 1.0

    # -- link flapping ---------------------------------------------------------
    #: Absolute-time ``(down_at, up_at)`` outage intervals.
    flaps: Tuple[Tuple[float, float], ...] = ()

    def with_overrides(self, **overrides) -> "FaultPlan":
        """A copy of this plan with the given fields replaced."""
        return replace(self, **overrides)

    @property
    def active(self) -> bool:
        """True if the plan can actually perturb traffic."""
        return bool(self.corrupt_rate or self.truncate_rate
                    or self.duplicate_rate or self.reorder_rate
                    or self.burst_enter or self.loss_good or self.flaps)


@dataclass(frozen=True)
class ShardFaultPlan:
    """Deterministic faults against *IDS shards* rather than links.

    Consumed by :class:`repro.vids.cluster.ShardSupervisor`: every entry
    names an absolute simulation time and a shard index, so two runs with
    the same plan kill/hang the same members at the same instants —
    the chaos suite's reproducibility contract, same as :class:`FaultPlan`.
    """

    #: ``(at, shard)``: the member's process dies at time ``at`` (it stops
    #: answering heartbeats and accepting packets until restarted).
    kills: Tuple[Tuple[float, int], ...] = ()
    #: ``(at, until, shard)``: the member wedges — alive but unresponsive —
    #: for the interval; restarts attempted while wedged fail too.
    hangs: Tuple[Tuple[float, float, int], ...] = ()


@dataclass
class FaultStats:
    """Counters kept by a :class:`FaultyLink` (both directions combined)."""

    offered: int = 0
    delivered: int = 0
    corrupted: int = 0
    truncated: int = 0
    duplicated: int = 0
    reordered: int = 0
    dropped_burst: int = 0
    dropped_flap: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "offered": self.offered,
            "delivered": self.delivered,
            "corrupted": self.corrupted,
            "truncated": self.truncated,
            "duplicated": self.duplicated,
            "reordered": self.reordered,
            "dropped_burst": self.dropped_burst,
            "dropped_flap": self.dropped_flap,
        }


class _GilbertElliott:
    """Two-state (good/bad) correlated-loss channel model."""

    def __init__(self, plan: FaultPlan, rng: random.Random):
        self.plan = plan
        self.rng = rng
        self.bad = False

    def drops(self) -> bool:
        plan = self.plan
        if plan.burst_enter <= 0.0 and plan.loss_good <= 0.0:
            return False
        if self.bad:
            if self.rng.random() < plan.burst_exit:
                self.bad = False
        else:
            if self.rng.random() < plan.burst_enter:
                self.bad = True
        loss = plan.loss_bad if self.bad else plan.loss_good
        return loss > 0.0 and self.rng.random() < loss


class FaultyLink:
    """Installs a :class:`FaultPlan` onto an existing link.

    The wrapper patches the link's ``transmit`` entry point, so node and
    route wiring are untouched: receivers still see the original
    :class:`~repro.netsim.link.Link` instance and identity checks such as
    ``in_link is self.links[1]`` keep working.  ``uninstall`` restores the
    pristine link.
    """

    def __init__(self, link: "Link", plan: FaultPlan,
                 trace: Optional["TraceBus"] = None):
        self.link = link
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.stats = FaultStats()
        self._ge = _GilbertElliott(plan, self.rng)
        self._original_transmit = link.transmit
        self._installed = False
        #: Observability trace bus; every injected fault lands on it so a
        #: forensic timeline can correlate perturbations with verdicts.
        self.trace = trace

    def _note(self, fault: str, datagram: Datagram, now: float) -> None:
        """Emit one fault event (only called when tracing)."""
        self.trace.emit("fault", now, packet_id=datagram.packet_id,
                        fault=fault, link=self.link.name)

    # -- lifecycle ------------------------------------------------------------

    def install(self) -> "FaultyLink":
        if not self._installed:
            self.link.transmit = self._transmit  # type: ignore[method-assign]
            self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            self.link.transmit = self._original_transmit  # type: ignore[method-assign]
            self._installed = False

    @property
    def installed(self) -> bool:
        return self._installed

    # -- fault application ----------------------------------------------------

    def is_down(self, now: float) -> bool:
        """True while a scheduled flap interval covers ``now``."""
        return any(down <= now < up for down, up in self.plan.flaps)

    def _transmit(self, datagram: Datagram, sender) -> None:
        plan = self.plan
        rng = self.rng
        sim = self.link.network.sim
        trace = self.trace
        self.stats.offered += 1

        if self.is_down(sim.now):
            self.stats.dropped_flap += 1
            if trace is not None:
                self._note("flap-drop", datagram, sim.now)
            return
        if self._ge.drops():
            self.stats.dropped_burst += 1
            if trace is not None:
                self._note("burst-drop", datagram, sim.now)
            return

        payload = datagram.payload
        mutated = False
        if plan.corrupt_rate and payload and rng.random() < plan.corrupt_rate:
            payload = self._flip_bits(payload)
            self.stats.corrupted += 1
            mutated = True
            if trace is not None:
                self._note("corrupt", datagram, sim.now)
        if plan.truncate_rate and payload and rng.random() < plan.truncate_rate:
            payload = payload[:rng.randrange(len(payload))]
            self.stats.truncated += 1
            mutated = True
            if trace is not None:
                self._note("truncate", datagram, sim.now)
        if mutated:
            # The mutated copy is still the same wire packet: it keeps the
            # packet_id, so downstream trace points correlate.
            datagram = replace(datagram, payload=payload)

        if plan.duplicate_rate and rng.random() < plan.duplicate_rate:
            self.stats.duplicated += 1
            if trace is not None:
                self._note("duplicate", datagram, sim.now)
            self._original_transmit(
                replace(datagram, packet_id=sim.next_id("packet")), sender)

        if plan.reorder_rate and rng.random() < plan.reorder_rate:
            self.stats.reordered += 1
            if trace is not None:
                self._note("reorder", datagram, sim.now)
            delay = rng.uniform(0.0, plan.reorder_delay)
            sim.schedule(delay, self._original_transmit, datagram, sender)
            return

        self.stats.delivered += 1
        self._original_transmit(datagram, sender)

    def _flip_bits(self, payload: bytes) -> bytes:
        data = bytearray(payload)
        for _ in range(self.rng.randint(1, max(1, self.plan.corrupt_bits))):
            data[self.rng.randrange(len(data))] ^= 1 << self.rng.randrange(8)
        return bytes(data)


def inject_faults(link: "Link", plan: FaultPlan,
                  trace: Optional["TraceBus"] = None) -> FaultyLink:
    """Wrap ``link`` with ``plan`` and activate it; returns the wrapper."""
    return FaultyLink(link, plan, trace=trace).install()
