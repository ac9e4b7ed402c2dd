#!/usr/bin/env python3
"""Split one benchmark workload's set-up into its steps, in raw seconds.

``setup_s`` is one number, and the ``--trace 1`` ledger has no set-up
row.  This script runs ``benchmarks/e2e/worker.py``'s own ``prepare`` for
one workload and seed, with a stopwatch around each step it takes, and
prints one line per step::

    imports     everything worker.py imports (the repro package included)
    capture     the workload's capture; for mixed_* this is the simulation
    write_pcap  the capture file and the warm-up file
    warmup      the warm-up replay
    total       the four above
    us/event    host µs per simulated event: capture seconds over
                ``events_processed`` of every simulator built (mixed_*)

The seconds are the clock's, not scaled by the benchmark's speed probe,
so they read higher than ``setup_s``.  It edits nothing under
``benchmarks/``: the steps are timed by wrapping the functions
``prepare`` calls.  Compare two trees by running it in fresh processes,
interleaved, with every ``__pycache__`` deleted before each run::

    python tools/setup_split.py                  # mixed_attack, seed 1
    python tools/setup_split.py rtp_steady 7
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

STARTED = time.perf_counter()

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT / "benchmarks/e2e")]

import worker      # noqa: E402 - the benchmark's imports are a step
from sim_ident import simulators_built  # noqa: E402 - beside this file

IMPORTED = time.perf_counter()


def timed(seconds: dict, step: str, function):
    """``function``, adding its clock time to ``seconds[step]``."""
    def wrapper(*args, **kwargs):
        begin = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            seconds[step] = seconds.get(step, 0.0) + time.perf_counter() - begin
    return wrapper


def split(workload: str, seed: int) -> dict:
    """Run ``prepare`` once; returns seconds per step, and the events."""
    seconds = {"imports": IMPORTED - STARTED}
    capture = "mixed_capture" if workload.startswith("mixed_") else workload
    setattr(worker.workloads, capture, timed(
        seconds, "capture", getattr(worker.workloads, capture)))
    worker.write_pcap = timed(seconds, "write_pcap", worker.write_pcap)
    worker.replay_pcap = timed(seconds, "warmup", worker.replay_pcap)
    with simulators_built() as sims, tempfile.TemporaryDirectory() as workdir:
        worker.prepare(workload, seed, 1.0, workdir)
    seconds["total"] = sum(seconds.values())
    return {"seconds": seconds,
            "events": sum(sim.events_processed for sim in sims)}


def main(argv: list) -> int:
    workload = argv[0] if argv else "mixed_attack"
    seed = int(argv[1]) if len(argv) > 1 else 1
    if workload not in worker.TIERS:
        print(f"unknown workload {workload!r}; choose from "
              f"{sorted(worker.TIERS)}", file=sys.stderr)
        return 2
    result = split(workload, seed)
    for step, value in result["seconds"].items():
        print(f"{step:<10} {value:8.3f} s")
    events = result["events"]
    per_event = (f"{result['seconds']['capture'] / events * 1e6:8.2f} us"
                 if events else "       - (nothing simulated)")
    print(f"{'us/event':<10} {per_event}  [{events} events]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
