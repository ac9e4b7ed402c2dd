#!/usr/bin/env python3
"""Wire-to-alert benchmark: one command, every metric, every verdict checked.

    python benchmarks/e2e/run.py --seed 1            # all workloads, report
    python benchmarks/e2e/run.py --quick             # tenth-size smoke
    python benchmarks/e2e/run.py --selfcheck         # run twice, compare
    python benchmarks/e2e/run.py --workload rtp_steady --seed 7 \\
        --seconds 8 --trace 0                        # one contract run

Each workload runs in a fresh subprocess (``worker.py``) with
``PYTHONHASHSEED=0`` and a hard timeout.  With ``--workload`` *and*
``--trace`` the last line printed is the contract's result object
(``correct`` / ``attempted`` / ``failed`` / ``metrics``); otherwise every
metric is printed as ``workload metric value unit`` and the last line is
one JSON document for all workloads.  CPU-bound timings are at nominal
speed (``probe.py``).  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from statistics import median
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
sys.path.insert(0, HERE)

import metrics as tables    # noqa: E402 - needs HERE on the path

DEFAULT_SECONDS = 12.0
#: Fresh processes whose set-up time is taken; ``setup_s`` is the median.
SETUP_SAMPLES = 3
#: Hard limit on one worker process (the contract allows a run 180 s).
WORKER_TIMEOUT = 150.0
QUICK_SCALE = 0.1
QUICK_SECONDS = 0.3
QUICK_JOBS = 2
QUICK_REPEATS = 2


class WorkerFailed(Exception):
    """A worker exited non-zero, timed out, or printed no result."""


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               scale: float, workdir: str, setup_only: bool = False,
               span_dump: Optional[str] = None) -> dict:
    """One worker process; returns the JSON object of its last line."""
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--scale", str(scale), "--workdir", workdir]
    if scale < 1.0:
        # The smoke run checks that everything works, not how fast.
        command.extend(["--min-repeats", str(QUICK_REPEATS)])
    if setup_only:
        command.append("--setup-only")
    if span_dump:
        command.extend(["--span-dump", span_dump])
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT, check=False)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload}: no result after "
                           f"{WORKER_TIMEOUT:.0f} s") from None
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"{line}  [{workload}]", flush=True)
    if done.returncode != 0 or not lines:
        raise WorkerFailed(f"{workload}: worker exited {done.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise WorkerFailed(f"{workload}: unreadable result") from None


def measure(workload: str, seed: int, seconds: float, trace: int,
            scale: float, workdir: str, setup_samples: int,
            span_dir: Optional[str] = None) -> dict:
    """One contract run: the worker's result, with ``setup_s`` replaced by
    the median over ``setup_samples`` fresh processes.  A traced run
    leaves ``<workload>.spans.json`` in ``span_dir`` when one is given."""
    dump = os.path.join(span_dir, f"{workload}.spans.json") \
        if span_dir and trace else None
    result = run_worker(workload, seed, seconds, trace, scale, workdir,
                        span_dump=dump)
    if trace == 0:
        setups = [result["metrics"]["setup_s"]["value"]]
        while len(setups) < setup_samples:
            setups.append(run_worker(workload, seed, seconds, trace, scale,
                                     workdir, setup_only=True)["setup_s"])
        result["metrics"]["setup_s"]["value"] = median(setups)
    return result


def run_workload(workload: str, seed: int, seconds: float,
                 traces: List[int], scale: float, workdir: str,
                 setup_samples: int, span_dump: Optional[str]) -> dict:
    """Both kinds of run of one workload; prints every metric as
    ``workload metric value unit``.  A worker that raises or times out is
    reported with ``failed_share`` 1, not propagated."""
    entry = {"correct": True, "attempted": 0, "failed": 0,
             "end_to_end": {}, "per_layer": {}}
    try:
        for trace in traces:
            result = measure(workload, seed, seconds, trace, scale,
                             workdir, setup_samples, span_dump)
            entry["correct"] = entry["correct"] and result["correct"]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["per_layer" if trace else "end_to_end"] = {
                name: metric["value"]
                for name, metric in result["metrics"].items()}
            for name, metric in result["metrics"].items():
                print(f"{workload} {name} {metric['value']:.6g} "
                      f"{metric['unit']}", flush=True)
    except WorkerFailed as exc:
        print(f"ERROR: {exc}", file=sys.stderr, flush=True)
        entry.update(correct=False, attempted=max(1, entry["attempted"]))
        entry["failed"] = entry["attempted"]
    entry["failed_share"] = entry["failed"] / max(1, entry["attempted"])
    print(f"{workload} ops_attempted {entry['attempted']} count\n"
          f"{workload} ops_failed {entry['failed']} count\n"
          f"{workload} failed_share {entry['failed_share']:.6g} ratio",
          flush=True)
    return entry


def report(workloads: List[str], jobs: int, *settings) -> Dict[str, dict]:
    """Every selected workload, ``jobs`` at a time (more than one only for
    the smoke run, where timings do not count)."""
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        entries = pool.map(
            lambda workload: run_workload(workload, *settings), workloads)
        return dict(zip(workloads, entries))


def selfcheck(first: Dict[str, dict], second: Dict[str, dict]) -> int:
    """Relative difference of two runs beside each bound; the number of
    workload x metric pairs that exceed theirs."""
    excess = 0
    print(f"{'workload':15s} {'metric':24s} {'first':>12s} {'second':>12s} "
          f"{'worse by':>9s} {'bound':>6s}")
    for workload in first:
        for name, (_, better, bound) in tables.END_TO_END.items():
            a = first[workload]["end_to_end"].get(name)
            b = second[workload]["end_to_end"].get(name)
            if not a or not b:
                print(f"{workload:15s} {name:24s} missing")
                excess += 1
                continue
            worse = (b - a) / a if better == "lower" else (a - b) / a
            flag = "  EXCEEDS" if abs(worse) > bound else ""
            excess += bool(flag)
            print(f"{workload:15s} {name:24s} {a:12.6g} {b:12.6g} "
                  f"{worse:+9.3f} {bound:6.2f}{flag}")
        for run in (first, second):
            if run[workload]["failed"]:
                print(f"{workload:15s} failed_share "
                      f"{run[workload]['failed_share']:.6g}  EXCEEDS")
                excess += 1
    return excess


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(tables.WORKLOADS),
                        help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured seconds per run "
                             f"(default {DEFAULT_SECONDS:g})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "(default: both, one run each)")
    parser.add_argument("--quick", action="store_true",
                        help="tenth-size smoke run; bounds do not apply")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run everything twice and compare with the "
                             "bounds")
    parser.add_argument("--span-dump", metavar="DIR", default=None,
                        help="write <workload>.spans.json of each traced "
                             "run into DIR")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    scale = QUICK_SCALE if args.quick else 1.0
    seconds = args.seconds if args.seconds is not None else (
        QUICK_SECONDS if args.quick else DEFAULT_SECONDS)
    setup_samples = 1 if args.quick else SETUP_SAMPLES
    if args.span_dump:
        os.makedirs(args.span_dump, exist_ok=True)

    # Inside the checkout: the contract forbids writing anywhere else.
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="e2e-", dir=scratch)
    try:
        if args.workload and args.trace is not None and not args.selfcheck:
            try:
                result = measure(args.workload, args.seed, seconds,
                                 args.trace, scale, workdir, setup_samples,
                                 args.span_dump)
            except WorkerFailed as exc:
                print(f"ERROR: {exc}", file=sys.stderr)
                return 1
            print(json.dumps(result), flush=True)
            return 0

        workloads = [args.workload] if args.workload \
            else list(tables.WORKLOADS)
        traces = [args.trace] if args.trace is not None \
            and not args.selfcheck else [0, 1]
        jobs = QUICK_JOBS if args.quick else 1
        first = report(workloads, jobs, args.seed, seconds, traces, scale,
                       workdir, setup_samples, args.span_dump)
        status = int(any(not entry["correct"] for entry in first.values()))
        if args.selfcheck:
            second = report(workloads, jobs, args.seed, seconds, [0], scale,
                            workdir, setup_samples, None)
            status = status or int(selfcheck(first, second) > 0)
        print(json.dumps(first), flush=True)
        return status
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass    # another run's work directory is still in there


if __name__ == "__main__":
    sys.exit(main())
