"""The command itself: smoke size, contract output, refusal to fake."""

import _paths

import json
import os
import shutil
import subprocess
import sys
import time

import metrics

RUN = [sys.executable, os.path.join(_paths.E2E, "run.py")]


def test_quick_run_is_fast_and_correct():
    started = time.monotonic()
    done = subprocess.run(RUN + ["--quick", "--seed", "3"], cwd=_paths.ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=120)
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout[-2000:]
    lines = done.stdout.strip().splitlines()
    document = json.loads(lines[-1])
    assert list(document) == list(metrics.WORKLOADS)
    for workload, entry in document.items():
        assert entry["failed_share"] == 0 and entry["correct"], workload
        assert set(entry["end_to_end"]) == set(metrics.END_TO_END)
        assert set(entry["per_layer"]) == set(metrics.PER_LAYER)
        assert all(value > 0 for value in entry["end_to_end"].values())
        for name, value in entry["end_to_end"].items():
            unit = metrics.END_TO_END[name][0]
            assert any(line.startswith(f"{workload} {name} ")
                       and line.endswith(f" {unit}") for line in lines)
    # Not a benchmark of the benchmark: a generous smoke-run budget.
    assert elapsed < 20.0, elapsed
    assert not os.path.exists(os.path.join(_paths.ROOT, ".bench_tmp"))


def test_contract_run_prints_exactly_the_result_object():
    done = subprocess.run(
        RUN + ["--workload", "sip_churn", "--seed", "9", "--seconds", "1",
               "--trace", "1"], cwd=_paths.ROOT, stdout=subprocess.PIPE,
        text=True, timeout=120)
    assert done.returncode == 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(metrics.PER_LAYER)
    assert all(set(metric) == {"value", "unit"}
               for metric in result["metrics"].values())
    # The traced pass accounts for its time.
    assert result["metrics"]["bench.unattributed_ratio"]["value"] < 0.10


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, empty stdout."""
    shutil.copy(os.path.join(_paths.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(_paths.E2E, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "sip_churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
    assert sorted(os.listdir(tmp_path)) == ["BENCHMARK.json", "benchmarks"]


def test_a_failing_worker_is_reported_not_propagated(monkeypatch, capsys):
    import run

    def explode(*args, **kwargs):
        raise run.WorkerFailed("sip_churn: worker exited 1")

    monkeypatch.setattr(run, "run_worker", explode)
    entry = run.run_workload("sip_churn", 1, 1.0, [0, 1], 1.0, "unused", 1,
                             None)
    assert entry["correct"] is False
    assert entry["failed_share"] == 1
    assert "sip_churn failed_share 1 ratio" in capsys.readouterr().out
