"""Opt-in per-stage wall/CPU profiling hooks.

The paper's Section 7.3 CPU numbers come from charging a *modelled* cost per
packet; this module measures the reproduction's *actual* cost per pipeline
stage (classify / distribute / fire) so regressions are attributable to a
stage rather than a whole run.

Profiling is off by default: an :class:`~repro.obs.Observability` bundle
builds a profiler only with ``profile=True``, and a pipeline built with one
binds :meth:`StageProfiler.timed` wrappers over its three stage entry
points once, at construction.  A pipeline built without one runs the bare
entry points: the disabled cost is nothing, not a check per stage.

The overhead-guard test pins this down by monkeypatching this module's
``perf_counter`` to raise: a disabled pipeline must never call it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter, process_time
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = ["StageStats", "StageProfiler"]


@dataclass(slots=True)
class StageStats:
    """Accumulated timings for one stage."""

    count: int = 0
    wall_total: float = 0.0
    cpu_total: float = 0.0
    wall_max: float = 0.0

    @property
    def wall_mean(self) -> float:
        return self.wall_total / self.count if self.count else 0.0

    @property
    def cpu_mean(self) -> float:
        return self.cpu_total / self.count if self.count else 0.0


class StageProfiler:
    """Accumulates per-stage wall/CPU time; optionally feeds histograms.

    A pipeline wraps a stage's entry point once (no per-call branch)::

        classifier.classify = profiler.timed("classify", classifier.classify)

    When built with a registry, each commit also observes the wall duration
    into the ``vids_stage_seconds{stage=...}`` histogram, which is what the
    Prometheus exposition reports.
    """

    def __init__(self, registry: Optional[Any] = None,
                 histogram_name: str = "vids_stage_seconds"):
        self.stages: Dict[str, StageStats] = {}
        self._hist = None
        if registry is not None:
            self._hist = registry.histogram(
                histogram_name,
                "Wall-clock latency per vids pipeline stage",
                labelnames=("stage",))

    # -- measurement ----------------------------------------------------------

    def begin(self) -> Tuple[float, float]:
        """Snapshot (wall, cpu) clocks; pass the token to :meth:`commit`."""
        return (perf_counter(), process_time())

    def commit(self, stage: str, token: Tuple[float, float]) -> float:
        """Charge the elapsed time since ``token`` to ``stage``."""
        wall = perf_counter() - token[0]
        cpu = process_time() - token[1]
        stats = self.stages.get(stage)
        if stats is None:
            stats = self.stages[stage] = StageStats()
        stats.count += 1
        stats.wall_total += wall
        stats.cpu_total += cpu
        if wall > stats.wall_max:
            stats.wall_max = wall
        if self._hist is not None:
            self._hist.labels(stage=stage).observe(wall)
        return wall

    def timed(self, stage: str, fn: Callable) -> Callable:
        """``fn`` with every call charged to ``stage``: what a pipeline
        binds in place of a stage's entry point when it is profiled."""
        begin, commit = self.begin, self.commit

        def timed_call(*args):
            token = begin()
            try:
                return fn(*args)
            finally:
                commit(stage, token)
        return timed_call

    @contextmanager
    def measure(self, stage: str):
        """Context-manager form for non-hot-path call sites."""
        token = self.begin()
        try:
            yield
        finally:
            self.commit(stage, token)

    # -- reporting ------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {
            stage: {
                "count": stats.count,
                "wall_total": stats.wall_total,
                "wall_mean": stats.wall_mean,
                "wall_max": stats.wall_max,
                "cpu_total": stats.cpu_total,
                "cpu_mean": stats.cpu_mean,
            }
            for stage, stats in sorted(self.stages.items())
        }

    def report(self) -> str:
        """A human-readable per-stage table."""
        if not self.stages:
            return "no stages profiled"
        header = (f"{'stage':<12} {'count':>10} {'wall total':>12} "
                  f"{'wall mean':>12} {'wall max':>12} {'cpu total':>12}")
        lines = [header, "-" * len(header)]
        for stage, stats in sorted(self.stages.items()):
            lines.append(
                f"{stage:<12} {stats.count:>10} "
                f"{stats.wall_total:>11.4f}s "
                f"{stats.wall_mean * 1e6:>10.1f}µs "
                f"{stats.wall_max * 1e6:>10.1f}µs "
                f"{stats.cpu_total:>11.4f}s")
        return "\n".join(lines)

    def clear(self) -> None:
        self.stages.clear()
