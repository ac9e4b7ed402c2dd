#!/usr/bin/env python3
"""Fingerprint the simulator's output, so a change to it shows.

The tier harness replays whatever capture the simulator produced, so it
cannot see a change to ``netsim/``, ``sip/``, ``rtp/``, ``telephony/`` or
``attacks/``.  This script runs four seeded recipes and prints one line
each: the recipe, the packet count of the pcap written from its capture,
the pcap's sha256 and ``events_processed`` of every simulator it built::

    mixed1     benchmarks/e2e workloads.mixed_capture(1), the mixed_attack
               set-up capture
    mixed7     the same on seed 7
    fixture23  tests/conftest.py's seed-23 mixed-attack capture
    lossy      fixture23 over 300 s under a FaultPlan (loss, duplication,
               reordering)

``make sim-ident`` diffs the output against ``tools/sim_ident.expected``.
Call-IDs and branches come from process-wide counters and the set of
string hashes, so each recipe runs in a fresh ``PYTHONHASHSEED=0``
process, and the pinned lines hold for one interpreter version (CI pins
them on Python 3.11)::

    python tools/sim_ident.py                 # all four, ~1.5 min
    python tools/sim_ident.py fixture23 lossy # the ones named
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RECIPES = ("mixed1", "mixed7", "fixture23", "lossy")


def capture_of(recipe: str) -> list:
    if recipe.startswith("mixed"):
        import workloads
        return workloads.mixed_capture(int(recipe[5:]), 1.0).capture
    from repro.attacks import (ByeTeardownAttack, DrdosReflectionAttack,
                               InviteFloodAttack, MediaSpamAttack)
    from repro.netsim.faults import FaultPlan
    from repro.telephony import (ScenarioParams, TestbedParams,
                                 WorkloadParams, run_scenario)
    from repro.vids import RecordingProcessor
    lossy, recorder = recipe == "lossy", RecordingProcessor()
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


def ident(recipe: str) -> str:
    """The fingerprint line of one recipe, run in this process."""
    from repro.live.pcap import write_pcap
    from repro.netsim import engine

    sims = []
    init = engine.Simulator.__init__

    def recording_init(self) -> None:
        init(self)
        sims.append(self)

    engine.Simulator.__init__ = recording_init
    try:
        capture = capture_of(recipe)
    finally:
        engine.Simulator.__init__ = init
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "ident.pcap")
        count = write_pcap(path, capture)
        with open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
    return f"{recipe} {count} {digest} {[sim.events_processed for sim in sims]}"


def main(argv: list) -> int:
    recipes = argv or list(RECIPES)
    unknown = sorted(set(recipes) - set(RECIPES))
    if unknown:
        print(f"unknown recipe(s) {unknown}; choose from {RECIPES}",
              file=sys.stderr)
        return 2
    if len(recipes) == 1 and os.environ.get("PYTHONHASHSEED") == "0":
        sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT / "benchmarks/e2e")]
        print(ident(recipes[0]), flush=True)
        return 0
    env = dict(os.environ, PYTHONHASHSEED="0")
    for recipe in recipes:     # one fresh process each
        subprocess.run([sys.executable, __file__, recipe], env=env, check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
