#!/usr/bin/env python3
"""Fingerprint the simulator's output, so a change to it shows.

The tier harness replays whatever capture the simulator made, so only
this sees a change to ``netsim/``, ``sip/``, ``rtp/``, ``telephony/`` or
``attacks/``.  It prints one line per seeded recipe: the recipe, the packet
count and sha256 of the pcap written from its capture, and
``events_processed`` of every simulator it built::

    mixed1     benchmarks/e2e workloads.mixed_capture(1), the mixed_attack
               set-up capture
    mixed7     the same on seed 7
    fixture23  ``scenario_capture()``, the capture tier-1 replays
    lossy      fixture23 over 300 s under a FaultPlan (loss, duplication,
               reordering)

``make sim-ident`` diffs the lines against ``tools/sim_ident.expected``,
pinned on Python 3.11 (other versions are untried).  A simulator owns its
id streams, so every recipe runs in this one process::

    python tools/sim_ident.py                 # all four, ~12 s
    python tools/sim_ident.py fixture23 lossy # the ones named
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
RECIPES = ("mixed1", "mixed7", "fixture23", "lossy")


def scenario_capture(lossy: bool = False) -> list:
    """The fixture23 (or lossy) capture: a bare forwarding perimeter
    records an INVITE flood, a DRDoS reflection, a BYE teardown and media
    spam over benign calls."""
    from repro.attacks import (ByeTeardownAttack, DrdosReflectionAttack,
                               InviteFloodAttack, MediaSpamAttack)
    from repro.netsim.faults import FaultPlan
    from repro.telephony import (ScenarioParams, TestbedParams,
                                 WorkloadParams, run_scenario)
    from repro.vids import RecordingProcessor
    recorder = RecordingProcessor()
    run_scenario(ScenarioParams(
        testbed=TestbedParams(seed=23, phones_per_network=4),
        workload=WorkloadParams(mean_interarrival=15.0, mean_duration=120.0,
                                horizon=300.0 if lossy else 100.0),
        with_vids=False,
        attacks=(InviteFloodAttack(30.0, target_aor="b2@b.example.com",
                                   count=20),
                 DrdosReflectionAttack(40.0, count=20),
                 ByeTeardownAttack(55.0, spoof="none"), MediaSpamAttack(70.0)),
        drain_time=120.0 if lossy else 60.0,
        fault_plan=FaultPlan(seed=5, loss_good=0.15, duplicate_rate=0.05,
                             reorder_rate=0.05) if lossy else None,
        hooks=(lambda testbed, vids, sim: testbed.attach_processor(recorder),)))
    return recorder.capture


def pcap_fingerprint(capture) -> Tuple[int, str]:
    """The packet count and sha256 of the pcap written from ``capture``."""
    from repro.live.pcap import write_pcap

    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "ident.pcap")
        count = write_pcap(path, capture)
        with open(path, "rb") as handle:
            return count, hashlib.sha256(handle.read()).hexdigest()


@contextmanager
def simulators_built() -> Iterator[List]:
    """Every :class:`~repro.netsim.engine.Simulator` built in the block."""
    from repro.netsim import engine

    sims, init = [], engine.Simulator.__init__

    def recording_init(self) -> None:
        init(self)
        sims.append(self)

    engine.Simulator.__init__ = recording_init
    try:
        yield sims
    finally:
        engine.Simulator.__init__ = init


def ident(recipe: str) -> str:
    """The fingerprint line of one recipe."""
    with simulators_built() as sims:
        if recipe.startswith("mixed"):
            import workloads
            capture = workloads.mixed_capture(int(recipe[5:]), 1.0).capture
        else:
            capture = scenario_capture(lossy=recipe == "lossy")
    count, digest = pcap_fingerprint(capture)
    return f"{recipe} {count} {digest} {[sim.events_processed for sim in sims]}"


def main(argv: list) -> int:
    recipes = argv or list(RECIPES)
    unknown = sorted(set(recipes) - set(RECIPES))
    if unknown:
        print(f"unknown recipe(s) {unknown}; choose from {RECIPES}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT / "benchmarks/e2e")]
    for recipe in recipes:
        print(ident(recipe), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
