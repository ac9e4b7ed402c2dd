"""Unit tests for the per-stage profiler and its disabled-cost guarantee."""

import pytest

import repro.obs.profiler as profiler_mod
from repro.obs import MetricsRegistry, Observability, StageProfiler


class TestStageProfiler:
    def test_begin_commit_accumulates(self):
        profiler = StageProfiler()
        token = profiler.begin()
        wall = profiler.commit("classify", token)
        assert wall >= 0.0
        stats = profiler.stages["classify"]
        assert stats.count == 1
        assert stats.wall_total == wall
        assert stats.wall_max == wall

    def test_measure_context_manager(self):
        profiler = StageProfiler()
        with profiler.measure("fire"):
            pass
        with profiler.measure("fire"):
            pass
        assert profiler.stages["fire"].count == 2

    def test_means_handle_zero_count(self):
        from repro.obs import StageStats
        stats = StageStats()
        assert stats.wall_mean == 0.0
        assert stats.cpu_mean == 0.0

    def test_snapshot_and_report(self):
        profiler = StageProfiler()
        with profiler.measure("classify"):
            pass
        snapshot = profiler.snapshot()
        assert snapshot["classify"]["count"] == 1
        assert "classify" in profiler.report()
        profiler.clear()
        assert profiler.report() == "no stages profiled"

    def test_registry_histogram_fed(self):
        registry = MetricsRegistry()
        profiler = StageProfiler(registry=registry)
        with profiler.measure("distribute"):
            pass
        hist = registry.get("vids_stage_seconds")
        assert hist is not None
        assert hist.labels(stage="distribute").count == 1


def test_profiler_is_off_by_default_and_profile_true_builds_it():
    assert Observability().profiler is None
    assert Observability(profile=False).profiler is None
    assert isinstance(Observability(profile=True).profiler, StageProfiler)


class TestDisabledOverheadGuard:
    """A pipeline without profiling must never touch a clock.

    The guard monkeypatches the profiler module's ``perf_counter`` to raise;
    any timing call from a supposedly-disabled path becomes a loud failure
    rather than silent overhead.
    """

    @pytest.fixture
    def broken_clock(self, monkeypatch):
        def _boom():
            raise AssertionError("perf_counter called with profiling off")
        monkeypatch.setattr(profiler_mod, "perf_counter", _boom)
        monkeypatch.setattr(profiler_mod, "process_time", _boom)

    def test_vids_without_obs_never_times(self, broken_clock):
        from tests.vids.test_ids import establish_call, make_vids
        vids, clock = make_vids()
        establish_call(vids, clock)
        assert vids.active_calls == 1

    def test_vids_with_unprofiled_obs_never_times(self, broken_clock):
        from repro.efsm import ManualClock
        from repro.vids import Vids
        from tests.vids.test_ids import establish_call

        obs = Observability(profile=False)
        clock = ManualClock()
        vids = Vids(clock_now=clock.now, timer_scheduler=clock.schedule,
                    obs=obs)
        establish_call(vids, clock)
        assert vids.active_calls == 1
        assert len(obs.trace) > 0  # tracing stayed live, timing stayed off

    def test_profiled_vids_does_time(self, broken_clock):
        from repro.efsm import ManualClock
        from repro.vids import DEFAULT_CONFIG, Vids
        from tests.vids.test_ids import dgram, invite_bytes

        obs = Observability(profile=True)
        clock = ManualClock()
        # The timed stage entry points run inside the crash-containment
        # boundary, which would report the broken clock as an ids-internal
        # alert; with containment off it propagates.
        vids = Vids(clock_now=clock.now, timer_scheduler=clock.schedule,
                    obs=obs, config=DEFAULT_CONFIG.with_overrides(
                        crash_containment=False))
        with pytest.raises(AssertionError, match="perf_counter called"):
            vids.process(dgram(invite_bytes(), "10.1.0.1", "10.2.0.1"),
                         clock.now())
